// Structured failure report for the pipeline training system.
//
// Any thread failure inside PipelineTrainer (which ElRecTrainer runs on) is
// funneled into a PipelineError after the shutdown protocol has run (queues
// closed, server joined, in-flight gradients drained), so a caller that
// catches it holds a quiesced trainer and a consistent host store, and knows
// which batch and which stage failed.
#pragma once

#include <string>

#include "common/error.hpp"
#include "tensor/matrix.hpp"  // index_t

namespace elrec {

class PipelineError : public Error {
 public:
  PipelineError(std::string stage, index_t batch_id, std::string cause)
      : Error("pipeline failure in " + stage + " at batch " +
              std::to_string(batch_id) + ": " + cause),
        stage_(std::move(stage)),
        batch_id_(batch_id),
        cause_(std::move(cause)) {}

  /// "worker", "server", or "checkpoint".
  const std::string& stage() const { return stage_; }

  /// Batch being processed when the failure struck (-1 if none).
  index_t batch_id() const { return batch_id_; }

  /// what() of the underlying failure.
  const std::string& cause() const { return cause_; }

 private:
  std::string stage_;
  index_t batch_id_;
  std::string cause_;
};

}  // namespace elrec
