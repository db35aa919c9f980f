#include "shard/shard_server.hpp"

#include <string>

#include "common/fault_injector.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace elrec {

ShardServer::ShardServer(int shard_id, const InferenceSession& session,
                         ShardServerConfig config)
    : shard_id_(shard_id),
      session_(session),
      slots_(static_cast<std::ptrdiff_t>(config.num_workers)) {
  ELREC_CHECK(config.num_workers > 0, "shard server needs >= 1 worker");
}

bool ShardServer::serve(index_t table, const std::vector<index_t>& rows,
                        Matrix& values, InferenceSession::WorkerState& state,
                        std::chrono::microseconds wait) {
  TRACE_SPAN("shard.serve");
  static obs::Counter& calls_total =
      obs::MetricsRegistry::global().counter("shard.calls");
  static obs::Counter& rows_total =
      obs::MetricsRegistry::global().counter("shard.rows");
  if (!alive()) throw Error("shard " + std::to_string(shard_id_) + " is down");
  if (!slots_.try_acquire_for(wait)) return false;
  struct SlotRelease {
    std::counting_semaphore<>& slots;
    ~SlotRelease() { slots.release(); }
  } release{slots_};

  try {
    // Fatal site first: a crash takes down the whole server, not one call.
    ELREC_FAULT_POINT("shard.crash");
    ELREC_FAULT_POINT("shard.serve");
  } catch (const InjectedFault& e) {
    // Process-death emulation: this call fails and the server refuses
    // every later one until revive().
    kill();
    throw Error("shard " + std::to_string(shard_id_) +
                " crashed serving call: " + e.what());
  }
  session_.materialize_rows(table, rows, values, state);
  calls_.fetch_add(1, std::memory_order_relaxed);
  rows_.fetch_add(rows.size(), std::memory_order_relaxed);
  calls_total.inc();
  rows_total.add(rows.size());
  return true;
}

}  // namespace elrec
