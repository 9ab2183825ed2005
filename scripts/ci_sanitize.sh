#!/usr/bin/env bash
# CI job: build with ASan + UBSan (BDLFI_SANITIZE=ON) and run the test suite,
# then run the thread-pool-heavy suites in a separate ThreadSanitizer build.
# The resilience layer (signal handlers, checkpoint serialization, chain
# retry/quarantine) is the main consumer: those paths have exactly the
# use-after-free / UB failure modes sanitizers exist to catch.
#
# Usage: scripts/ci_sanitize.sh [build-dir]   (default: build-sanitize)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-sanitize}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBDLFI_SANITIZE=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

# abort_on_error gives CI a crash dump instead of a hung exit; the suite must
# stay leak-clean too.
export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"

# The suite runs once per kernel backend: the scalar reference always, and
# the avx2 table when the CI box supports it (the sanitizers instrument the
# intrinsics paths like any other code). BDLFI_BACKEND is read at startup by
# every test binary.
echo "=== test suite under BDLFI_BACKEND=scalar ==="
BDLFI_BACKEND=scalar ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -j "$(nproc)"

if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
  echo "=== test suite under BDLFI_BACKEND=avx2 ==="
  BDLFI_BACKEND=avx2 ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -j "$(nproc)"
else
  echo "=== avx2 not supported on this host: skipping the avx2 pass ==="
fi

# Targeted ABFT / compute-fault pass: the checksum verification and the
# mid-kernel flip injection are the newest pointer-arithmetic-heavy paths
# (row-window selection from elem_base, each conv sample's window of a wide
# panel product, in-place row recompute), so they get an explicit sanitized
# run per backend — the Abft* gtests (ctest regexes are case-sensitive), the
# ABFT bench smoke, and the protection-table smoke that drives compute faults
# through the whole random-FI pipeline.
for backend in scalar avx2; do
  if [ "$backend" = avx2 ] && ! grep -q avx2 /proc/cpuinfo 2>/dev/null; then
    continue
  fi
  echo "=== ABFT + compute-fault suite under BDLFI_BACKEND=$backend ==="
  BDLFI_BACKEND="$backend" ctest --test-dir "$BUILD_DIR" \
    --output-on-failure -R 'Abft|abft|tab_protection_smoke'
done

# Targeted eval-path pass: every eval forward runs on an ExecutionPlan
# compiled from whichever layer the eval enters at and sized from each
# layer's output_shape, so plan slots are relative to that entry layer —
# borrowed views into one flat arena that outlive individual forwards — and
# a basic block (float or quantized) stages its inner activation and
# projection shortcut as views into the plan's workspace. MC dropout draws
# its masks and a calibrating range guard records its range inside those
# slots too. The plan suite (arena sizing, steady-state reuse, planned vs
# layer-by-layer parity, checked runs and stateful layers included), the
# truncated-replay parity suite, the MCMC chains (replicas compiling their
# own plans; outcome memo and early rejection against chains that run
# every forward and against fresh full forwards), the activation campaigns (input and activation sites replayed
# from the golden activation cache, flips staged into a copy of the replay
# start), the dropout, range-guard and quantized-layer suites (int8 codes
# XOR'd in place as kCode sites, truncated replay and chains on them), and
# the mask-eval and int8-table bench smokes get an explicit sanitized run per
# backend.
for backend in scalar avx2; do
  if [ "$backend" = avx2 ] && ! grep -q avx2 /proc/cpuinfo 2>/dev/null; then
    continue
  fi
  echo "=== eval-path suite under BDLFI_BACKEND=$backend ==="
  BDLFI_BACKEND="$backend" ctest --test-dir "$BUILD_DIR" \
    --output-on-failure \
    -R 'PlanTest|Replay|McmcTest|Activation|perf_mask_eval|Dropout|RangeGuard|GuardedNetwork|Quantize|QuantDense|QuantSpace|QuantFault|tab_quantized_smoke'
done

# Targeted checkpoint-input pass: load_checkpoint turns JSON doubles into
# counts, mask bits and RNG words, and a resume indexes chains and shifts
# mask bits with them — the hostile-input surface of a campaign. The loader
# tests (tampered documents and the optional forwards_skipped counter
# included), the kill-and-resume tests (a document without that counter
# too) and resume-rejection tests, and the CLI checkpoint chain run
# sanitized per backend.
for backend in scalar avx2; do
  if [ "$backend" = avx2 ] && ! grep -q avx2 /proc/cpuinfo 2>/dev/null; then
    continue
  fi
  echo "=== checkpoint-input suite under BDLFI_BACKEND=$backend ==="
  BDLFI_BACKEND="$backend" ctest --test-dir "$BUILD_DIR" \
    --output-on-failure -R 'Checkpoint|ResilienceTest|cli_checkpoint_'
done

# Targeted flight-recorder pass: the incremental JSONL reader (per-poll
# fopen/fseek over possibly-torn files), the multi-stream aggregator, the
# dashboard render/export paths, the bench-history tracker and the exact
# double formatter every checkpoint and result document goes through
# (to_chars into a stack buffer, pinned to printf's %.17g) all juggle
# offsets and string slicing — run them sanitized explicitly, including the
# end-to-end dash + bench_track ctest chains.
echo "=== flight-recorder / dashboard suite ==="
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'JsonlTailReader|EventAggregator|FlightRecorder|HistogramQuantiles|BenchHistory|Json\.NumberExact|dash_|bench_track_|cli_obs'

# Targeted fleet pass: the multiprocess supervisor is the newest
# signal-and-lifetime-heavy path (fork/waitpid bookkeeping, SIGKILL'd
# children, stale-lock breaking, post-fork thread-pool reinit), exactly the
# territory where use-after-free and leaked-fd bugs hide. Run the fleet unit
# suite, the checkpoint-lock tests, and the end-to-end CLI chain (spec →
# chaos-killed fleet → byte-equal results → dash over the output tree)
# sanitized. ASan makes the forked workers slower, which only widens the
# window the chaos kill needs — the chain's timing gets easier, not tighter.
echo "=== fleet orchestration suite ==="
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'FleetSpec|FleetRunTest|CheckpointDirLock|fleet_'

# Targeted hardening pass: fault-aware fine-tuning XORs live weight tensors
# around the optimizer step (a leaked mask is a silent weight corruption, a
# mis-scoped InjectionSpace is a dangling tensor pointer), and apply_plan
# splices guard layers into a cloned network while remapping ABFT indices —
# structural surgery worth running under ASan/UBSan end to end, plus the
# hardening-loop bench smoke that drives campaign → profile → fine-tune →
# placement → re-assessment in one process.
echo "=== posterior-guided hardening suite ==="
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'HardenTest|tab_hardening_loop_'

# ThreadSanitizer pass. parallel_for_chunked hands out chunks through a
# lock-free cursor and lets a waiting pool worker run its own call's chunks,
# and the conv panels share per-thread scratch across nested calls: races
# there are invisible to ASan. TSan cannot share a build with ASan, so it
# gets its own, instrumented through CMAKE_CXX_FLAGS (compile and link) and
# limited to the suites that drive the pool from several threads; the MCMC
# suite runs chain replicas, each with its own plans, concurrently on it,
# checked convs verify their samples' windows (shared Stats counters, flip
# lists) inside tile-parallel loops, and the conv backward fills one shared
# im2col panel from sample tiles, then writes grad_weight tiles from several
# threads that all read it.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread"
cmake --build "$TSAN_DIR" -j "$(nproc)" \
  --target util_thread_pool_test plan_test replay_test mcmc_test abft_test \
  tensor_ops_test
export TSAN_OPTIONS="halt_on_error=1"
for backend in scalar avx2; do
  if [ "$backend" = avx2 ] && ! grep -q avx2 /proc/cpuinfo 2>/dev/null; then
    continue
  fi
  echo "=== thread pool / nested parallel_for suite (TSan) under BDLFI_BACKEND=$backend ==="
  BDLFI_BACKEND="$backend" ctest --test-dir "$TSAN_DIR" --output-on-failure \
    -R 'ThreadPool|ParallelFor|PlanTest|Replay|McmcTest|AbftConv|Conv2d'
done
