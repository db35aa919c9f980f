// Crash-safe checkpointing for the pipelined training runtime.
//
// A checkpoint is the durable tuple (worker-owned parameters, every host
// store's weights, next batch to run). It is written at a quiescent point —
// every gradient up to `next_batch - 1` applied, none beyond — via
// write-to-temp + checksum footer + atomic rename, so a crash at any
// instant leaves either the old or the new checkpoint fully loadable, never
// a torn file. Replaying the batch stream from `next_batch` reproduces the
// uninterrupted run exactly.
//
// Codec provenance: a run under the null codec writes the 'ELC1' format,
// byte-identical to pre-codec checkpoints. A lossy run writes 'ELC2', which
// additionally records the codec id; loading under a different codec
// throws a structured PipelineError instead of silently resuming a stream
// whose error budget the new codec would not honour.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "codec/grad_codec.hpp"
#include "embed/embedding_table.hpp"  // ParameterVisitor
#include "pipeline/host_embedding_store.hpp"
#include "pipeline/pipeline_error.hpp"  // load throws PipelineError on codec mismatch

namespace elrec {

/// Walks every worker-owned parameter buffer, in a fixed order, through the
/// visitor (e.g. DlrmModel::visit_parameters). Empty = no worker parameters.
using ParameterWalk = std::function<void(const ParameterVisitor&)>;

/// Atomically persists the worker parameters, the stores and the id of the
/// next batch to run.
void save_pipeline_checkpoint(const std::string& path, index_t next_batch,
                              CodecId codec, const ParameterWalk& worker_params,
                              const std::vector<HostEmbeddingStore*>& stores);

/// Restores a checkpoint written by the same configuration (same parameter
/// buffers, same store shapes); returns `next_batch`. Throws on missing,
/// truncated, or corrupt files, and PipelineError when the checkpoint was
/// written under a different codec than `codec`.
index_t load_pipeline_checkpoint(
    const std::string& path, CodecId codec, const ParameterWalk& worker_params,
    const std::vector<HostEmbeddingStore*>& stores);

}  // namespace elrec
