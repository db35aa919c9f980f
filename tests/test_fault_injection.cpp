// Fault-tolerance suite: drives every injected fault class through the
// pipeline training system and checks it either completes (transient faults
// absorbed by retry) or fails cleanly (structured PipelineError, no leaked
// thread, consistent host store, durable checkpoints), and that
// checkpoint/resume reproduces an uninterrupted run bitwise.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>

#include "common/fault_injector.hpp"
#include "common/retry.hpp"
#include "common/serialize.hpp"
#include "data/synthetic.hpp"
#include "pipeline/elrec_trainer.hpp"
#include "pipeline/pipeline_checkpoint.hpp"
#include "pipeline/pipeline_trainer.hpp"
#include "pipeline_test_util.hpp"

namespace elrec {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Every test must leave the process-wide injector clean, even on failure.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::instance().reset(); }
  void TearDown() override { FaultInjector::instance().reset(); }
};

using testutil::decay_compute;
using testutil::make_stores;
using testutil::overlapping_batches;
using testutil::run_batches;

// decay_compute(), except that batches for which `fails` holds throw.
ComputeStep failing_compute(bool (*fails)(index_t batch_id)) {
  return [fails](index_t batch_id, const MiniBatch& batch,
                 const std::vector<std::vector<index_t>>& unique,
                 const std::vector<Matrix>& rows, std::vector<Matrix>& grads) {
    if (fails(batch_id)) {
      throw Error("synthetic compute failure at batch " +
                  std::to_string(batch_id));
    }
    decay_compute()(batch_id, batch, unique, rows, grads);
  };
}

// ---------------------------------------------------------------------
// FaultInjector facility.
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, DisarmedSiteIsInert) {
  EXPECT_NO_THROW(ELREC_FAULT_POINT("nowhere"));
  EXPECT_EQ(FaultInjector::instance().hits("nowhere"), 0u);
  EXPECT_FALSE(FaultInjector::armed_anywhere());
}

TEST_F(FaultInjectionTest, ArmedSiteCountsAndFires) {
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.skip_first = 2;
  spec.max_fires = 1;
  FaultInjector::instance().arm("unit.site", spec);
  EXPECT_NO_THROW(ELREC_FAULT_POINT("unit.site"));
  EXPECT_NO_THROW(ELREC_FAULT_POINT("unit.site"));
  EXPECT_THROW(ELREC_FAULT_POINT("unit.site"), InjectedFault);
  EXPECT_NO_THROW(ELREC_FAULT_POINT("unit.site"));  // max_fires reached
  EXPECT_EQ(FaultInjector::instance().hits("unit.site"), 4u);
  EXPECT_EQ(FaultInjector::instance().fires("unit.site"), 1u);
}

TEST_F(FaultInjectionTest, TransientKindThrowsTransientError) {
  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  FaultInjector::instance().arm("unit.transient", spec);
  EXPECT_THROW(ELREC_FAULT_POINT("unit.transient"), TransientError);
}

TEST_F(FaultInjectionTest, RetryAbsorbsBoundedTransients) {
  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  spec.max_fires = 3;
  FaultInjector::instance().arm("unit.retry", spec);
  RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  const int result = with_retry(policy, "unit op", [&] {
    ++calls;
    ELREC_FAULT_POINT("unit.retry");
    return 7;
  });
  EXPECT_EQ(result, 7);
  EXPECT_EQ(calls, 4);  // 3 transient failures + 1 success
}

TEST_F(FaultInjectionTest, RetryExhaustionIsFatalNotTransient) {
  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  FaultInjector::instance().arm("unit.exhaust", spec);
  RetryPolicy policy;
  policy.max_attempts = 3;
  try {
    with_retry(policy, "unit op", [&] { ELREC_FAULT_POINT("unit.exhaust"); });
    FAIL() << "expected Error";
  } catch (const TransientError&) {
    FAIL() << "exhaustion must not rethrow TransientError";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("retries exhausted"),
              std::string::npos);
  }
  EXPECT_EQ(FaultInjector::instance().hits("unit.exhaust"), 3u);
}

// ---------------------------------------------------------------------
// (a) Injected failures → clean, bounded, structured shutdown.
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, ComputeExceptionYieldsPipelineErrorInBoundedTime) {
  const auto batches = overlapping_batches(40, 24, 77);
  auto stores = make_stores({{24, 3}}, 123);
  PipelineConfig cfg;
  cfg.queue_capacity = 4;
  PipelineTrainer trainer(stores.ptrs(), cfg);
  const ComputeStep failing =
      failing_compute([](index_t batch_id) { return batch_id == 13; });

  // run() must return (by throwing) well before a deadlocked join would; a
  // wedged server thread would hang the future instead.
  auto fut = std::async(std::launch::async, [&] {
    try {
      run_batches(trainer, batches, failing);
      return std::string("no error");
    } catch (const PipelineError& e) {
      EXPECT_EQ(e.stage(), "worker");
      EXPECT_EQ(e.batch_id(), 13);
      EXPECT_NE(std::string(e.what()).find("synthetic compute failure"),
                std::string::npos);
      return std::string("pipeline error");
    }
  });
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(20)),
            std::future_status::ready)
      << "run() wedged after a compute failure — leaked server thread";
  EXPECT_EQ(fut.get(), "pipeline error");

  // Host store stays consistent: all drained gradients were applied, so a
  // fresh fault-free run over the remaining batches still works.
  EXPECT_NO_THROW(run_batches(trainer, batches, decay_compute(), 14));
}

TEST_F(FaultInjectionTest, InjectedComputeFaultPointAlsoShutsDownCleanly) {
  const auto batches = overlapping_batches(20, 16, 5);
  auto stores = make_stores({{16, 2}}, 9);
  PipelineConfig cfg;
  cfg.queue_capacity = 2;
  PipelineTrainer trainer(stores.ptrs(), cfg);

  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.skip_first = 5;
  FaultInjector::instance().arm("elrec.compute", spec);
  try {
    run_batches(trainer, batches, decay_compute());
    FAIL() << "expected PipelineError";
  } catch (const PipelineError& e) {
    EXPECT_EQ(e.stage(), "worker");
    EXPECT_EQ(e.batch_id(), 5);
  }
}

TEST_F(FaultInjectionTest, FatalServerPullFaultIsReportedAsServerFailure) {
  const auto batches = overlapping_batches(30, 16, 11);
  auto stores = make_stores({{16, 2}}, 3);
  PipelineConfig cfg;
  cfg.queue_capacity = 4;
  PipelineTrainer trainer(stores.ptrs(), cfg);

  FaultSpec spec;
  spec.kind = FaultKind::kError;  // fatal: retry must NOT absorb it
  spec.skip_first = 7;
  FaultInjector::instance().arm("host_store.pull", spec);
  try {
    run_batches(trainer, batches, decay_compute());
    FAIL() << "expected PipelineError";
  } catch (const PipelineError& e) {
    EXPECT_EQ(e.stage(), "server");
    EXPECT_NE(std::string(e.what()).find("injected fault"),
              std::string::npos);
  }
}

TEST_F(FaultInjectionTest, StalledServerDiagnosedByQueueDeadline) {
  const auto batches = overlapping_batches(20, 16, 21);
  auto stores = make_stores({{16, 2}}, 4);
  PipelineConfig cfg;
  cfg.queue_capacity = 2;
  cfg.queue_timeout = std::chrono::milliseconds(200);
  PipelineTrainer trainer(stores.ptrs(), cfg);

  FaultSpec spec;
  spec.kind = FaultKind::kDelay;
  spec.delay = std::chrono::milliseconds(3000);
  spec.skip_first = 4;
  spec.max_fires = 1;
  FaultInjector::instance().arm("pipeline.server_tick", spec);

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(run_batches(trainer, batches, decay_compute()), PipelineError);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Deadline (200ms) + the injected 3s stall the join must out-wait; well
  // under a deadlock (which would hit the test timeout instead).
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST_F(FaultInjectionTest, SequentialModeShutdownAlsoClean) {
  // queue_capacity = 1 is the degenerate sequential pipeline; the shutdown
  // protocol must work there too.
  const auto batches = overlapping_batches(10, 8, 3);
  auto stores = make_stores({{8, 2}}, 4);
  PipelineConfig cfg;
  cfg.queue_capacity = 1;
  PipelineTrainer trainer(stores.ptrs(), cfg);
  const ComputeStep failing = failing_compute([](index_t) { return true; });
  auto fut = std::async(std::launch::async, [&] {
    EXPECT_THROW(run_batches(trainer, batches, failing), PipelineError);
  });
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(20)),
            std::future_status::ready);
}

// ---------------------------------------------------------------------
// (b) Transient host-store faults → retry + backoff, identical results.
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, TransientHostFaultsRetryToIdenticalResult) {
  const auto batches = overlapping_batches(40, 24, 77);

  auto clean_stores = make_stores({{24, 3}}, 123);
  PipelineConfig cfg;
  cfg.queue_capacity = 4;
  cfg.lr = 0.3f;
  PipelineTrainer clean(clean_stores.ptrs(), cfg);
  run_batches(clean, batches, decay_compute());

  FaultSpec pull_spec;
  pull_spec.kind = FaultKind::kTransient;
  pull_spec.probability = 0.3;
  FaultInjector::instance().arm("host_store.pull", pull_spec);
  FaultSpec push_spec;
  push_spec.kind = FaultKind::kTransient;
  push_spec.probability = 0.3;
  push_spec.seed = 42;
  FaultInjector::instance().arm("host_store.push", push_spec);

  auto faulty_stores = make_stores({{24, 3}}, 123);
  cfg.host_retry.max_attempts = 40;  // P(40 consecutive fails) ~ 1e-21
  cfg.host_retry.initial_backoff = std::chrono::milliseconds(1);
  PipelineTrainer faulty(faulty_stores.ptrs(), cfg);
  const PipelineStats stats = run_batches(faulty, batches, decay_compute());

  EXPECT_EQ(stats.batches, 40);
  EXPECT_GT(FaultInjector::instance().fires("host_store.pull") +
                FaultInjector::instance().fires("host_store.push"),
            0u)
      << "test vacuous: no transient fault actually fired";
  EXPECT_EQ(Matrix::max_abs_diff(faulty_stores[0].weights(),
                                 clean_stores[0].weights()),
            0.0f)
      << "retried run diverged from the fault-free run";
}

// ---------------------------------------------------------------------
// (c) Crash-safe checkpointing and resume.
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, PeriodicCheckpointsAreWrittenAndLoadable) {
  const std::string path = temp_path("elrec_pipe_ckpt.bin");
  std::remove(path.c_str());
  const auto batches = overlapping_batches(20, 16, 31);
  auto stores = make_stores({{16, 2}}, 6);
  PipelineConfig cfg;
  cfg.queue_capacity = 4;
  cfg.checkpoint_every_n = 5;
  cfg.checkpoint_path = path;
  PipelineTrainer trainer(stores.ptrs(), cfg);
  const PipelineStats stats = run_batches(trainer, batches, decay_compute());
  EXPECT_EQ(stats.checkpoints_written, 4);

  auto loaded = make_stores({{16, 2}}, 7);
  EXPECT_EQ(PipelineTrainer(loaded.ptrs(), cfg).resume(path), 20);
  EXPECT_EQ(Matrix::max_abs_diff(loaded[0].weights(), stores[0].weights()),
            0.0f);
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, CrashMidCheckpointLeavesDurableStateAndResumes) {
  const std::string path = temp_path("elrec_pipeline_crash_ckpt.bin");
  std::remove(path.c_str());
  const auto batches = overlapping_batches(40, 24, 77);

  // Reference: uninterrupted fault-free run.
  auto clean_stores = make_stores({{24, 3}}, 123);
  PipelineConfig cfg;
  cfg.queue_capacity = 4;
  cfg.lr = 0.3f;
  cfg.checkpoint_every_n = 10;
  cfg.checkpoint_path = path;
  {
    PipelineTrainer clean(clean_stores.ptrs(), cfg);
    run_batches(clean, batches, decay_compute());
  }
  std::remove(path.c_str());

  // Crashing run: the 2nd checkpoint write dies mid-array (simulated kill
  // between the length prefix and the payload). With one store and no
  // worker parameters, each checkpoint writes exactly one array.
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.skip_first = 1;  // 1st checkpoint write succeeds
  spec.message = "simulated crash mid-checkpoint";
  FaultInjector::instance().arm("serialize.write_array", spec);

  auto crash_stores = make_stores({{24, 3}}, 123);
  PipelineTrainer crashing(crash_stores.ptrs(), cfg);
  try {
    run_batches(crashing, batches, decay_compute());
    FAIL() << "expected PipelineError from the torn checkpoint";
  } catch (const PipelineError& e) {
    EXPECT_EQ(e.stage(), "checkpoint");
  }
  FaultInjector::instance().reset();

  // Damage is confined to the temp file: the durable checkpoint (batch 10)
  // is intact and loadable.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto resumed_stores = make_stores({{24, 3}}, 123);
  PipelineTrainer resumed(resumed_stores.ptrs(), cfg);
  const index_t start = resumed.resume(path);
  EXPECT_EQ(start, 10);

  // Replaying from the last durable batch matches the uninterrupted run
  // bitwise.
  run_batches(resumed, batches, decay_compute(), start);
  EXPECT_EQ(Matrix::max_abs_diff(resumed_stores[0].weights(),
                                 clean_stores[0].weights()),
            0.0f)
      << "resume diverged from the uninterrupted run";
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, TruncatedCheckpointIsRejectedOnLoad) {
  const std::string path = temp_path("elrec_trunc_ckpt.bin");
  auto stores = make_stores({{8, 2}}, 6);
  save_pipeline_checkpoint(path, 10, CodecId::kNull, {}, stores.ptrs());

  // Chop the footer off: the checksum/size check must reject the file.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 6);
  auto loaded = make_stores({{8, 2}}, 6);
  EXPECT_THROW(load_pipeline_checkpoint(path, CodecId::kNull, {},
                                        loaded.ptrs()),
               Error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Full ElRecTrainer: fault shutdown + checkpoint/resume equivalence.
// ---------------------------------------------------------------------

DatasetSpec small_spec() {
  DatasetSpec spec;
  spec.name = "fault-test";
  spec.num_dense = 4;
  spec.table_rows = {40, 200, 300};  // 1 dense + 2 host tables
  spec.num_samples = 4096;
  return spec;
}

ElRecTrainerConfig small_elrec_config(const DatasetSpec& spec) {
  ElRecTrainerConfig cfg;
  cfg.model.num_dense = spec.num_dense;
  cfg.model.embedding_dim = 8;
  cfg.model.bottom_hidden = {8};
  cfg.model.top_hidden = {8};
  cfg.placement = {TablePlacement::kDeviceDense, TablePlacement::kHost,
                   TablePlacement::kHost};
  cfg.queue_capacity = 3;
  cfg.seed = 5;
  return cfg;
}

TEST_F(FaultInjectionTest, ElrecComputeFaultShutsDownCleanly) {
  const DatasetSpec spec = small_spec();
  ElRecTrainerConfig cfg = small_elrec_config(spec);
  ElRecTrainer trainer(cfg, spec);
  SyntheticDataset data(spec, 11);

  FaultSpec fault;
  fault.kind = FaultKind::kError;
  fault.skip_first = 6;
  FaultInjector::instance().arm("elrec.compute", fault);

  auto fut = std::async(std::launch::async, [&] {
    try {
      trainer.train(data, 20, 32);
      return std::string("no error");
    } catch (const PipelineError& e) {
      EXPECT_EQ(e.stage(), "worker");
      EXPECT_EQ(e.batch_id(), 6);
      return std::string("pipeline error");
    }
  });
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "ElRecTrainer::train wedged after a compute failure";
  EXPECT_EQ(fut.get(), "pipeline error");
}

TEST_F(FaultInjectionTest, ElrecTransientHostFaultsMatchCleanRun) {
  const DatasetSpec spec = small_spec();
  ElRecTrainerConfig cfg = small_elrec_config(spec);

  ElRecTrainer clean(cfg, spec);
  SyntheticDataset clean_data(spec, 11);
  const ElRecRunStats clean_stats = clean.train(clean_data, 12, 32);

  FaultSpec fault;
  fault.kind = FaultKind::kTransient;
  fault.probability = 0.25;
  FaultInjector::instance().arm("host_store.pull", fault);

  cfg.host_retry.max_attempts = 40;
  ElRecTrainer faulty(cfg, spec);
  SyntheticDataset faulty_data(spec, 11);
  const ElRecRunStats faulty_stats = faulty.train(faulty_data, 12, 32);

  ASSERT_EQ(faulty_stats.loss_curve.size(), clean_stats.loss_curve.size());
  for (std::size_t i = 0; i < clean_stats.loss_curve.size(); ++i) {
    EXPECT_EQ(faulty_stats.loss_curve[i], clean_stats.loss_curve[i])
        << "loss diverged at batch " << i;
  }
}

TEST_F(FaultInjectionTest, ElrecCheckpointResumeMatchesUninterruptedRun) {
  const std::string path = temp_path("elrec_full_ckpt.bin");
  std::remove(path.c_str());
  const DatasetSpec spec = small_spec();
  ElRecTrainerConfig cfg = small_elrec_config(spec);
  const index_t num_batches = 16;
  const index_t batch_size = 32;

  // Uninterrupted reference run.
  ElRecTrainer clean(cfg, spec);
  SyntheticDataset clean_data(spec, 11);
  const ElRecRunStats clean_stats =
      clean.train(clean_data, num_batches, batch_size);

  // Checkpointing run, killed by an injected compute fault at batch 11 —
  // after the checkpoints at batches 4 and 8, before the one at 12.
  cfg.checkpoint_every_n = 4;
  cfg.checkpoint_path = path;
  ElRecTrainer crashing(cfg, spec);
  SyntheticDataset crash_data(spec, 11);
  FaultSpec fault;
  fault.kind = FaultKind::kError;
  fault.skip_first = 11;
  FaultInjector::instance().arm("elrec.compute", fault);
  EXPECT_THROW(crashing.train(crash_data, num_batches, batch_size),
               PipelineError);
  FaultInjector::instance().reset();

  // Fresh trainer + fresh dataset fast-forwarded past the checkpoint.
  ElRecTrainer resumed(cfg, spec);
  const index_t start = resumed.resume(path);
  EXPECT_EQ(start, 8);
  SyntheticDataset resume_data(spec, 11);
  resume_data.skip_batches(start, batch_size);
  const ElRecRunStats resumed_stats =
      resumed.train(resume_data, num_batches, batch_size, start);

  // Final parameters match the uninterrupted run bitwise.
  EXPECT_EQ(resumed_stats.final_loss, clean_stats.final_loss);
  for (std::size_t h = 0; h < clean.num_host_tables(); ++h) {
    EXPECT_EQ(Matrix::max_abs_diff(resumed.host_store(h).weights(),
                                   clean.host_store(h).weights()),
              0.0f)
        << "host store " << h << " diverged after resume";
  }
  std::vector<float> clean_params;
  clean.model().visit_parameters([&](float* p, std::size_t n) {
    clean_params.insert(clean_params.end(), p, p + n);
  });
  std::vector<float> resumed_params;
  resumed.model().visit_parameters([&](float* p, std::size_t n) {
    resumed_params.insert(resumed_params.end(), p, p + n);
  });
  EXPECT_EQ(clean_params, resumed_params)
      << "model parameters diverged after resume";
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, StalledServerAtCheckpointBarrierHonorsDeadline) {
  // The checkpoint barrier is a worker wait like the queue waits, so a
  // stalled server is diagnosed there within queue_timeout too.
  const std::string path = temp_path("elrec_barrier_ckpt.bin");
  std::remove(path.c_str());
  const DatasetSpec spec = small_spec();
  ElRecTrainerConfig cfg = small_elrec_config(spec);
  cfg.queue_capacity = 4;
  cfg.queue_timeout = std::chrono::milliseconds(50);
  // A barrier after every batch: the prefetch queue runs ahead, so once the
  // server stalls the worker's next wait is the barrier for its last push.
  cfg.checkpoint_every_n = 1;
  cfg.checkpoint_path = path;
  ElRecTrainer trainer(cfg, spec);
  SyntheticDataset data(spec, 11);

  FaultSpec stall;
  stall.kind = FaultKind::kDelay;
  stall.delay = std::chrono::milliseconds(1500);
  stall.skip_first = 6;
  stall.max_fires = 1;
  FaultInjector::instance().arm("pipeline.server_tick", stall);

  const auto start = std::chrono::steady_clock::now();
  try {
    trainer.train(data, 20, 32);
    FAIL() << "expected PipelineError from the stalled checkpoint barrier";
  } catch (const PipelineError& e) {
    EXPECT_EQ(e.stage(), "checkpoint");
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
        << e.what();
  }
  // Deadline (50ms) + the injected stall the join must out-wait.
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// ELREC_FAULT_SITES env-var configuration (arm_from_string / arm_from_env).

TEST_F(FaultInjectionTest, ArmFromStringArmsKindsAndParams) {
  FaultInjector& inj = FaultInjector::instance();
  EXPECT_EQ(inj.arm_from_string(
                "a.error:1,b.transient:0.5:transient,"
                "c.delay:1:delay:25,d.capped:1:error:2"),
            4u);

  EXPECT_THROW(inj.on_site("a.error"), InjectedFault);
  EXPECT_EQ(inj.fires("a.error"), 1u);

  // probability 0.5: over many hits some fire, some pass.
  std::uint64_t threw = 0;
  for (int i = 0; i < 200; ++i) {
    try {
      inj.on_site("b.transient");
    } catch (const TransientError&) {
      ++threw;
    }
  }
  EXPECT_GT(threw, 0u);
  EXPECT_LT(threw, 200u);

  // delay param is milliseconds of stall.
  const auto t0 = std::chrono::steady_clock::now();
  inj.on_site("c.delay");
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(20));

  // error/transient param caps max_fires.
  EXPECT_THROW(inj.on_site("d.capped"), InjectedFault);
  EXPECT_THROW(inj.on_site("d.capped"), InjectedFault);
  inj.on_site("d.capped");  // third hit: cap reached, passes through
  EXPECT_EQ(inj.fires("d.capped"), 2u);
}

TEST_F(FaultInjectionTest, ArmFromStringRejectsMalformedEntries) {
  FaultInjector& inj = FaultInjector::instance();
  EXPECT_THROW(inj.arm_from_string("noprob"), Error);
  EXPECT_THROW(inj.arm_from_string("site:notanumber"), Error);
  EXPECT_THROW(inj.arm_from_string("site:1.5"), Error);  // prob outside [0,1]
  EXPECT_THROW(inj.arm_from_string("site:1:bogus"), Error);
  EXPECT_THROW(inj.arm_from_string("site:1:delay:-3"), Error);
  EXPECT_THROW(inj.arm_from_string("site:1:error:1:extra"), Error);
  EXPECT_THROW(inj.arm_from_string(":1"), Error);  // empty site name
  // Empty entries (stray commas) are tolerated; nothing armed.
  EXPECT_EQ(inj.arm_from_string(",,"), 0u);
}

TEST_F(FaultInjectionTest, ArmFromEnvHonorsVariable) {
  FaultInjector& inj = FaultInjector::instance();
  ASSERT_EQ(::setenv("ELREC_FAULT_SITES", "env.site:1:transient", 1), 0);
  EXPECT_EQ(inj.arm_from_env(), 1u);
  EXPECT_THROW(inj.on_site("env.site"), TransientError);
  ASSERT_EQ(::unsetenv("ELREC_FAULT_SITES"), 0);
  EXPECT_EQ(inj.arm_from_env(), 0u);  // unset: nothing armed, no error
  EXPECT_EQ(inj.env_config_error(), "");
}

TEST_F(FaultInjectionTest, ArmFromEnvRecordsParseErrorAndRethrows) {
  FaultInjector& inj = FaultInjector::instance();
  ASSERT_EQ(::setenv("ELREC_FAULT_SITES", "bad entry without prob", 1), 0);
  EXPECT_THROW(inj.arm_from_env(), Error);
  EXPECT_NE(inj.env_config_error(), "");
  ASSERT_EQ(::unsetenv("ELREC_FAULT_SITES"), 0);
}

}  // namespace
}  // namespace elrec
