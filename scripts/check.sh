#!/usr/bin/env bash
# Tier-1 verification gate: configure + build + full ctest, then re-run the
# concurrency suites selected by the "sanitize" label (the ones worth a
# second pass under -DELREC_SANITIZE=thread|address builds).
#
#   scripts/check.sh                 # default build dir ./build
#   scripts/check.sh --obs           # observability smoke: traced mini-train,
#                                    # schema-check the chrome trace, require
#                                    # the metrics block in the BENCH json
#   scripts/check.sh --analyze       # static-analysis matrix: elrec_lint
#                                    # (per-file + cross-TU rules) over
#                                    # src/ tests/ tools/ + lint unit tests,
#                                    # then the sanitize-labelled suites
#                                    # rebuilt under TSan, ASan and UBSan
#                                    # (build-tsan/, build-asan/, build-ubsan/)
#   scripts/check.sh --shard         # sharded-serving smoke: 3 shards +
#                                    # failover router, 5k requests, one
#                                    # injected kill mid-stream, then the
#                                    # sanitize-labelled shard/router suites
#   scripts/check.sh --codec         # codec smoke: gated bench_codec run
#                                    # (bytes-on-queue reduction + loss delta
#                                    # vs the null codec), then the codec
#                                    # round-trip/checkpoint/cache suites
#   scripts/check.sh --online        # online-training smoke: online_demo
#                                    # (train->checkpoint->promote loop with
#                                    # live clients + one injected promoter
#                                    # kill), the online/drift suites, then
#                                    # the full promotion soak (the "soak"
#                                    # ctest label tier-1 excludes)
#   BUILD_DIR=build-tsan scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
JOBS=${JOBS:-$(nproc)}

MODE=${1:-}

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$JOBS"

if [[ "$MODE" == "--obs" ]]; then
  echo "== observability smoke: traced mini-train =="
  # bench_fig16_pipeline --quick drives the real ElRecTrainer with tracing
  # on and writes both artifacts next to the binary.
  (cd "$BUILD_DIR/bench" && ./bench_fig16_pipeline --quick)

  echo "== trace schema + span coverage (pipeline / Eff-TT / tensor) =="
  "$BUILD_DIR/tools/trace_check" "$BUILD_DIR/bench/TRACE_fig16_pipeline.json" \
    elrec. efftt. tensor.

  echo "== BENCH json carries the metrics registry snapshot =="
  grep -q '"metrics"' "$BUILD_DIR/bench/BENCH_fig16_pipeline.json" \
    || { echo "BENCH_fig16_pipeline.json missing \"metrics\" block" >&2; exit 1; }
  echo "observability smoke OK"
  exit 0
fi

if [[ "$MODE" == "--analyze" ]]; then
  echo "== elrec-lint: per-file + cross-TU rules over src/ tests/ tools/ =="
  # Soft defaults pick up tools/elrec_lint_baseline.txt,
  # tools/trace_spans.manifest and tools/fault_sites.manifest from the repo
  # root; exits 1 on any fresh finding. The scan covers tests/ and tools/
  # because the fault-site manifest audits sites *armed* there, and the
  # cross-TU index wants every definition. NOLINT at the site (with a
  # `: reason` tail — the nolint-rationale rule insists) is the sanctioned
  # escape hatch; the shipped baseline stays empty.
  "$BUILD_DIR/tools/elrec_lint" src tests tools --index-stats

  echo "== lint unit tests (lexer, rules, index, cross-TU, driver) =="
  ctest --test-dir "$BUILD_DIR" -L lint --output-on-failure -j"$JOBS"

  # Sanitizer matrix: rebuild the tree under each sanitizer and rerun the
  # concurrency-heavy suites. GCC/clang keep the sanitizer runtimes
  # separate, so each mode gets its own build dir.
  for san in thread address undefined; do
    san_dir="build-${san}"
    case "$san" in
      thread)    san_dir="build-tsan"  ;;
      address)   san_dir="build-asan"  ;;
      undefined) san_dir="build-ubsan" ;;
    esac
    echo "== sanitizer matrix: ELREC_SANITIZE=${san} (${san_dir}) =="
    cmake -B "$san_dir" -S . -DELREC_SANITIZE="$san"
    cmake --build "$san_dir" -j"$JOBS"
    ctest --test-dir "$san_dir" -L sanitize --output-on-failure -j"$JOBS"
    # The promotion soak (>= 3 hot swaps under sustained client load) is the
    # data-race honeypot this matrix exists for; run it under every mode.
    ctest --test-dir "$san_dir" -L soak --output-on-failure
  done

  echo "analyze matrix OK (lint + TSan + ASan + UBSan)"
  exit 0
fi

if [[ "$MODE" == "--shard" ]]; then
  echo "== sharded serving smoke: 3 shards + failover router, one kill =="
  # shard_demo --smoke routes 5k requests through the failover router,
  # kills a shard mid-stream, and exits non-zero unless every accepted
  # request is answered and the revived shard rejoins. ELREC_FAULT_SITES
  # additionally sprinkles retryable faults over the serve path to exercise
  # the env-var fault configuration end to end.
  ELREC_FAULT_SITES='shard.serve:0.02:transient' \
    "$BUILD_DIR/examples/shard_demo" --smoke

  echo "== sanitize-labelled shard/router suites =="
  ctest --test-dir "$BUILD_DIR" -L sanitize -R 'HashRing|Placement|MergeHotRows|Shard' \
    --output-on-failure -j"$JOBS"
  echo "shard smoke OK"
  exit 0
fi

if [[ "$MODE" == "--codec" ]]; then
  echo "== codec smoke: null vs dual-level on the real pipeline =="
  # bench_codec --quick trains the Fig. 16 workload under the null and
  # dual-level codecs and exits non-zero unless the dual-int4 arm cuts
  # bytes-on-queue >= 4x with the final loss inside the error budget (the
  # null arm is the bitwise-identity reference).
  (cd "$BUILD_DIR/bench" && ./bench_codec --quick)

  echo "== sanitize-labelled codec suites =="
  # Round-trip edge cases, corruption detection, thread-count determinism,
  # checkpoint codec provenance, cache precision.
  ctest --test-dir "$BUILD_DIR" -L sanitize -R 'Codec' \
    --output-on-failure -j"$JOBS"
  echo "codec smoke OK"
  exit 0
fi

if [[ "$MODE" == "--online" ]]; then
  echo "== online-training smoke: train -> checkpoint -> promote, live =="
  # online_demo --smoke runs the closed loop end to end: continuous trainer
  # on the drifting stream, scheduled promotions under client load, one
  # promoter kill at the commit fault site (armed through ELREC_FAULT_SITES
  # semantics inside the demo), and exits non-zero unless every accepted
  # request is answered by a coherent generation.
  "$BUILD_DIR/examples/online_demo" --smoke

  echo "== online/drift/cache sanitize suites =="
  ctest --test-dir "$BUILD_DIR" -L sanitize \
    -R 'HotSwap|ModelPromoter|OnlineTrainer|Drift|AccessStats|ServingCache' \
    --output-on-failure -j"$JOBS"

  echo "== promotion soak (>= 3 hot swaps under sustained load) =="
  ctest --test-dir "$BUILD_DIR" -L soak --output-on-failure
  echo "online smoke OK"
  exit 0
fi

echo "== tier-1: full test suite (soak excluded — see --online) =="
ctest --test-dir "$BUILD_DIR" -LE soak --output-on-failure -j"$JOBS"

echo "== sanitize-labelled concurrency suites =="
ctest --test-dir "$BUILD_DIR" -L sanitize --output-on-failure -j"$JOBS"
