// Backend seam between the micro-batching RequestScheduler and whatever
// actually computes a frozen forward pass.
//
// The scheduler only needs four things from its backend: the request shape
// (dense width, table count), a per-worker mutable state object, and a
// const, thread-safe predict(). InferenceSession (single process) and
// ShardRouter (rows resolved by the shard servers that own them) both
// implement this interface, so the same scheduler fronts a local model and
// a sharded serving tier without changes.
#pragma once

#include <memory>
#include <vector>

#include "embed/minibatch.hpp"

namespace elrec {

class IRankingBackend {
 public:
  /// Per-worker mutable scratch. Backends subclass this with whatever their
  /// predict() needs (model workspace, cache probes, scatter buffers); one
  /// instance per concurrent caller, never shared.
  struct State {
    virtual ~State() = default;
  };

  virtual ~IRankingBackend() = default;

  virtual index_t num_tables() const = 0;
  virtual index_t num_dense() const = 0;

  virtual std::unique_ptr<State> make_state() const = 0;

  /// Frozen forward + sigmoid for a batch. Must be const and thread-safe
  /// across callers as long as each passes its own State (obtained from
  /// this backend's make_state()). labels may be empty.
  virtual void predict(const MiniBatch& batch, std::vector<float>& probs,
                       State& state) const = 0;
};

}  // namespace elrec
