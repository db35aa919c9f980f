#include "shard/shard_router.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace elrec {

namespace {

obs::Counter& shard_counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name);
}

// Copies the answer of one call into `values` at the call's positions and
// marks those rows resolved.
void accept_call(Matrix& values, ShardRouter::RouterState& state) {
  const auto bytes = sizeof(float) * static_cast<std::size_t>(values.cols());
  for (std::size_t i = 0; i < state.call_pos.size(); ++i) {
    std::memcpy(values.row(static_cast<index_t>(state.call_pos[i])),
                state.call_vals.row(static_cast<index_t>(i)), bytes);
    state.resolved[state.call_pos[i]] = 1;
  }
}

}  // namespace

ShardRouter::ShardRouter(const InferenceSession& fallback,
                         std::vector<ShardServer*> shards,
                         ShardRouterConfig config)
    : fallback_(fallback),
      shards_(std::move(shards)),
      config_(config),
      ring_(static_cast<int>(shards_.size()), config.vnodes_per_shard,
            config.ring_seed),
      ladder_depth_(std::min(config.replication,
                             static_cast<int>(shards_.size()))) {
  ELREC_CHECK(!shards_.empty(), "router needs at least one shard");
  ELREC_CHECK(config_.replication >= 1, "router needs replication >= 1");
  for (const ShardServer* s : shards_) {
    ELREC_CHECK(s != nullptr, "router given a null shard");
  }
}

std::unique_ptr<IRankingBackend::State> ShardRouter::make_state() const {
  auto state = std::make_unique<RouterState>();
  state->local = fallback_.make_worker_state();
  for (const ShardServer* s : shards_) {
    state->shard.push_back(s->session().make_worker_state());
  }
  return state;
}

void ShardRouter::predict(const MiniBatch& batch, std::vector<float>& probs,
                          IRankingBackend::State& state) const {
  auto& rs = static_cast<RouterState&>(state);
  fallback_.model().predict_frozen(
      batch, probs, rs.local->ws,
      [this, &rs](index_t t, const std::vector<index_t>& rows, Matrix& values,
                  ILookupContext* /*ctx*/) {
        resolve_rows(t, rows, values, rs);
      });
}

void ShardRouter::resolve_rows(index_t t, const std::vector<index_t>& rows,
                               Matrix& values, RouterState& state) const {
  TRACE_SPAN("shard.route");
  values.resize(static_cast<index_t>(rows.size()),
                fallback_.model().table(t).dim());
  if (rows.empty()) return;
  const auto depth = static_cast<std::size_t>(ladder_depth_);
  state.ladders.resize(rows.size() * depth);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ring_.owners_of(t, rows[i], ladder_depth_, state.owners);
    std::copy(state.owners.begin(), state.owners.end(),
              state.ladders.begin() + static_cast<std::ptrdiff_t>(i * depth));
  }
  state.resolved.assign(rows.size(), 0);
  std::size_t unresolved = rows.size();

  static obs::Counter& failover_total = shard_counter("shard.failover");
  for (std::size_t round = 0; round < depth && unresolved > 0; ++round) {
    // Each live shard gets one call with the unresolved rows it holds
    // this round's rung for; a dead one leaves them to the next round.
    for (int s = 0; s < num_shards() && unresolved > 0; ++s) {
      if (!shard_live(s)) continue;
      state.call_rows.clear();
      state.call_pos.clear();
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!state.resolved[i] && state.ladders[i * depth + round] == s) {
          state.call_rows.push_back(rows[i]);
          state.call_pos.push_back(i);
        }
      }
      if (state.call_rows.empty()) continue;
      if (round > 0) {
        failovers_.fetch_add(state.call_rows.size(), std::memory_order_relaxed);
        failover_total.add(state.call_rows.size());
      }
      if (call_shard(s, t, state)) {
        accept_call(values, state);
        unresolved -= state.call_rows.size();
      }
    }
  }
  if (unresolved > 0) serve_fallback(t, rows, values, state);
}

bool ShardRouter::call_shard(int s, index_t t, RouterState& state) const {
  static obs::Counter& retry_total = shard_counter("shard.retry");
  static obs::Counter& shed_total = shard_counter("shard.shed");
  ShardServer& server = *shards_[static_cast<std::size_t>(s)];
  InferenceSession::WorkerState& ws = *state.shard[static_cast<std::size_t>(s)];
  int attempt = 0;
  bool served = false;
  try {
    served = with_retry(config_.retry, "shard call", [&] {
      if (attempt++ > 0) {
        retries_.fetch_add(1, std::memory_order_relaxed);
        retry_total.inc();
      }
      return server.serve(t, state.call_rows, state.call_vals, ws,
                          config_.shard_deadline);
    });
  } catch (const std::exception&) {
    return false;  // dead, crashed, failed or out of retries: next rung
  }
  if (!served) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    shed_total.inc();
  }
  return served;
}

void ShardRouter::serve_fallback(index_t t, const std::vector<index_t>& rows,
                                 Matrix& values, RouterState& state) const {
  // The local full-model session serves the remainder through its
  // cold-tail cache path. Slower, bitwise identical.
  TRACE_SPAN("shard.fallback");
  static obs::Counter& fallback_total = shard_counter("shard.fallback_rows");
  state.call_rows.clear();
  state.call_pos.clear();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!state.resolved[i]) {
      state.call_rows.push_back(rows[i]);
      state.call_pos.push_back(i);
    }
  }
  fallback_.materialize_rows(t, state.call_rows, state.call_vals,
                             *state.local);
  accept_call(values, state);
  fallback_rows_.fetch_add(state.call_rows.size(), std::memory_order_relaxed);
  fallback_total.add(state.call_rows.size());
}

ShardRouter::RouterStats ShardRouter::stats() const {
  RouterStats s;
  s.retries = retries_.load(std::memory_order_relaxed);
  s.failovers = failovers_.load(std::memory_order_relaxed);
  s.fallback_rows = fallback_rows_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace elrec
