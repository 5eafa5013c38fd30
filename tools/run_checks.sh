#!/usr/bin/env bash
# Builds the ThreadSanitizer and Address+UBSanitizer configurations (see
# CMakePresets.json) and runs the full test suite under each. The thread
# pool, batched evaluation, pooled GP hyper search, and the lock-free
# tracing/metrics paths (src/obs) are the code these exist for; everything
# else rides along for free.
#
#   tools/run_checks.sh             # both sanitizers, full ctest
#   tools/run_checks.sh tsan        # just one preset
#   tools/run_checks.sh --smoke     # default build + obs test suite + a CLI
#                                   # --trace round trip + every bench binary
#                                   # on a tiny budget (ATUNE_SMOKE=1):
#                                   # catches harness rot without the
#                                   # paper-scale cost
#   tools/run_checks.sh --hostile   # default build + bench_supervisor under
#                                   # ATUNE_SMOKE=1, gated on the pass flags
#                                   # it records in BENCH_supervisor.json:
#                                   # hostile-matrix survival, supervision
#                                   # overhead, and supervised kill/resume
#                                   # bit-identity (the binary itself exits 0
#                                   # in smoke mode, so the gate lives here)
#   tools/run_checks.sh --hotpath   # Release build + bench_hotpath under
#                                   # ATUNE_SMOKE=1, gated on the pass flags
#                                   # in BENCH_hotpath.json: blocked-kernel
#                                   # and batched-acquisition speedup floors,
#                                   # whole-session fast-vs-scalar
#                                   # bit-identity, zero-alloc Evaluator
#                                   # commits, and mmap replay fallback
#   tools/run_checks.sh --crashsafety
#                                   # Release build + bench_crashsafety at
#                                   # full scale, gated on the pass flags in
#                                   # BENCH_crashsafety.json: crash-point
#                                   # sweeps over every mutating I/O op,
#                                   # serial and at parallelism 4 (recovery
#                                   # + resume bit-identity after a crash and
#                                   # after a power loss + no torn
#                                   # artifacts), fault-schedule matrix
#                                   # with zero session fatals, and the IoEnv
#                                   # seam overhead bound (<= 1.02x journal
#                                   # append). Then rebuilds the asan-ubsan
#                                   # preset and reruns the harness under
#                                   # sanitizers at smoke scale.
#   tools/run_checks.sh --warmstart # Release build + bench_warmstart at full
#                                   # scale, gated on the pass flags in
#                                   # BENCH_warmstart.json: warm-started
#                                   # median cost-to-converge strictly better
#                                   # than cold across the tuner x workload
#                                   # grid, knowledge-repo ingest under a 15%
#                                   # I/O fault schedule plus an 8-thread
#                                   # writer storm with zero corrupt or torn
#                                   # shards, warmed kill -> resume checksum +
#                                   # journal-byte identity, and sparse-GP
#                                   # predictions within tolerance of exact
#                                   # (bit-identical when disabled). Then
#                                   # rebuilds the asan-ubsan preset and
#                                   # reruns the knowledge-repo and sparse-GP
#                                   # suites under sanitizers.
#   tools/run_checks.sh --service   # Release build + bench_service at full
#                                   # scale, gated on the pass flags in
#                                   # BENCH_service.json: zero session fatals
#                                   # across 1200 tenants on a 15% transport-
#                                   # fault schedule, SIGKILL -> restart ->
#                                   # checksum + journal-byte resume identity,
#                                   # and bounded-p99 admission verdicts under
#                                   # saturation with no lost sessions. Then
#                                   # reruns the net test suite (reactor,
#                                   # transport, wire) under ThreadSanitizer.
#   tools/run_checks.sh --drift     # Release build + bench_drift at full
#                                   # scale, gated on the pass flags in
#                                   # BENCH_drift.json: adaptive recovery
#                                   # >= 2x faster than a detector-disabled
#                                   # static pipeline after a phase shift
#                                   # that OOMs the stale incumbent, zero
#                                   # budget leak under drift storms with
#                                   # the re-tune cap held, and whole-
#                                   # registry kill/resume checksum +
#                                   # journal-byte identity under --drift
#                                   # (the adaptive row's detection rounds
#                                   # identical live vs replay). Then
#                                   # rebuilds the asan-ubsan preset and
#                                   # reruns the drift detector, drifting
#                                   # workload, and adaptive-retune suites
#                                   # under sanitizers.
#   tools/run_checks.sh --think     # tsan preset, GP and iTuned/OtterTune
#                                   # suites only: pooled-vs-serial GP bit-
#                                   # identity, the hyper search's overlap
#                                   # step, work-claiming PredictBatch, pinned
#                                   # serial sessions (with and without the
#                                   # fallback rng rewind), the think-pool
#                                   # thread count, and the fork regression
#                                   # test — the code that puts const
#                                   # GaussianProcess reads, its thread_local
#                                   # buffers and the shared chunk/candidate
#                                   # counters on the session's worker threads
#                                   # and the calling thread (DESIGN.md §6)
#   tools/run_checks.sh --io-repeat # default build + every suite that touches
#                                   # the filesystem (journal, resume,
#                                   # knowledge repo, io_env, warm start,
#                                   # adaptive re-tune, trace resume, commit
#                                   # alloc, repository I/O) under ctest in
#                                   # parallel, random order, 20 passes: a
#                                   # temp path two tests share shows up as a
#                                   # flake here
#   tools/run_checks.sh --coverage  # instrumented Debug build + full ctest +
#                                   # per-directory line-coverage summary for
#                                   # src/. Uses gcovr if installed, else
#                                   # lcov, else falls back to parsing raw
#                                   # `gcov` output (always available with
#                                   # gcc). Nothing is installed.
#
# Coverage thresholds (enforced only in --coverage mode):
#   - gate:     src/ overall line coverage >= 70% or the run fails. This is
#               deliberately below the observed ~85%+ so routine refactors
#               don't trip it; ratchet it upward, never downward.
#   - advisory: per-directory table is printed for review. src/obs is the
#               observability layer grown by its own test suite and is
#               expected to stay >= 90%; a drop below that is a smell even
#               though it does not fail the run.
set -euo pipefail

cd "$(dirname "$0")/.."

if [ "${1:-}" = "--smoke" ]; then
  jobs="$(nproc 2>/dev/null || echo 2)"
  echo "=== [smoke] configure + build (default preset) ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "$jobs"
  echo "=== [smoke] durability gate ==="
  # Unlike the paper-scale benches, durability is a correctness property:
  # bench_durability gates its exit code even under ATUNE_SMOKE (small kill
  # matrix: every registry tuner, kill points {1, n/2, n-1, random},
  # parallelism 1 and 8, plus torn-journal fuzzing). Run it first and
  # loudly so a broken resume path fails the smoke run on its own line.
  ATUNE_SMOKE=1 ./build/bench/bench_durability > /dev/null
  echo "bench_durability: kill/resume bit-identity + fuzz recovery ok"
  echo "=== [smoke] crash-safety gate ==="
  # Same contract as durability: bench_crashsafety gates its exit code even
  # under ATUNE_SMOKE (reduced sweeps of >= 8 evenly spaced crash points plus
  # the full fault-schedule matrix; the seam-overhead bound is advisory in
  # unoptimized builds but the correctness flags always gate).
  ATUNE_SMOKE=1 ./build/bench/bench_crashsafety > /dev/null
  echo "bench_crashsafety: crash-point sweep + fault matrix + seam overhead ok"
  echo "=== [smoke] observability suite ==="
  # The obs tests are cheap (seconds) and guard the trace-as-oracle that
  # bench_durability's bit-identity checks stand on, so the smoke run pays
  # for them directly instead of waiting for a full ctest pass.
  ./build/tests/atune_obs_tests --gtest_brief=1
  echo "atune_obs_tests: ok"
  echo "=== [smoke] knowledge-repo / sparse-GP / warm-start suites ==="
  # The warm-start transfer path gates bit-identity (fingerprints, k-NN
  # mapping, seeded resume) the same way the obs layer gates traces, so the
  # smoke run pays for these suites directly too. Filtered: the rest of each
  # binary runs under full ctest.
  ./build/tests/atune_core_tests --gtest_brief=1 --gtest_filter='KnowledgeRepo*'
  ./build/tests/atune_ml_tests --gtest_brief=1 --gtest_filter='SparseGp*'
  ./build/tests/atune_tuners_tests --gtest_brief=1 --gtest_filter='WarmStart*'
  echo "knowledge-repo + sparse-GP + warm-start suites: ok"
  echo "=== [smoke] CLI --trace round trip ==="
  # End-to-end: a tiny tuning session must leave a loadable Chrome trace
  # behind. grep-level validation only; the byte-exact goldens live in
  # tests/obs/trace_export_test.cc.
  smoke_trace="$(mktemp /tmp/atune_smoke_trace.XXXXXX.json)"
  ./build/tools/atune --tuner=random-search --budget=4 --seed=7 \
      --trace="$smoke_trace" --trace-summary --metrics > /dev/null
  grep -q '"traceEvents"' "$smoke_trace"
  grep -q '"name":"session"' "$smoke_trace"
  grep -q '"name":"trial"' "$smoke_trace"
  rm -f "$smoke_trace"
  echo "atune --trace: ok (session/trial spans present)"
  echo "=== [smoke] CLI --supervise round trip ==="
  # Supervised session must complete, say so, and keep the exit-code
  # contract: 0 ok, 2 usage error (bad flag combos / unknown fallback).
  ./build/tools/atune --tuner=random-search --supervise \
      --fallback-tuner=random-search --budget=4 --seed=7 \
      | grep -q '(supervised)'
  echo "atune --supervise: ok (session completed)"
  if ./build/tools/atune --tuner=random-search --fallback-tuner=random-search \
      --budget=2 > /dev/null 2>&1; then
    echo "atune: --fallback-tuner without --supervise should exit 2" >&2
    exit 1
  elif [ $? -ne 2 ]; then
    echo "atune: wrong exit code for --fallback-tuner without --supervise" >&2
    exit 1
  fi
  if ./build/tools/atune --tuner=random-search --supervise \
      --fallback-tuner=no-such-tuner --budget=2 > /dev/null 2>&1; then
    echo "atune: unknown --fallback-tuner should exit 2" >&2
    exit 1
  elif [ $? -ne 2 ]; then
    echo "atune: wrong exit code for unknown --fallback-tuner" >&2
    exit 1
  fi
  echo "atune --supervise: ok (usage errors exit 2)"
  # Strict journal policy must fail loudly on an unwritable journal: exit 3
  # (journal I/O error) with a one-line message, distinct from usage errors.
  if ./build/tools/atune --tuner=random-search --budget=2 --seed=7 \
      --journal=/nonexistent-dir/smoke.wal --journal-policy=strict \
      > /dev/null 2>&1; then
    echo "atune: unwritable --journal under strict policy should exit 3" >&2
    exit 1
  elif [ $? -ne 3 ]; then
    echo "atune: wrong exit code for strict-policy journal I/O failure" >&2
    exit 1
  fi
  echo "atune --journal-policy=strict: ok (journal I/O failure exits 3)"
  echo "=== [smoke] atuned loopback kill+restart round trip ==="
  # End-to-end service check: run a session through a live daemon, SIGKILL
  # the daemon, restart it over the same journal dir, and reattach with the
  # same idempotent session id — the recovered checksum must be identical.
  svc_dir="$(mktemp -d /tmp/atune_smoke_svc.XXXXXX)"
  svc_addr="unix:$svc_dir/d.sock"
  svc_cli() {
    ./build/tools/atune --connect="$svc_addr" --session-id=smoke-rt \
        --tuner=random-search --budget=20 --seed=11
  }
  ./build/tools/atuned --listen="$svc_addr" --journal-dir="$svc_dir/state" \
      --quiet > /dev/null &
  svc_pid=$!
  for _ in $(seq 1 100); do [ -S "$svc_dir/d.sock" ] && break; sleep 0.05; done
  ref_sum="$(svc_cli | grep '^checksum:')"
  kill -9 "$svc_pid"; wait "$svc_pid" 2> /dev/null || true
  ./build/tools/atuned --listen="$svc_addr" --journal-dir="$svc_dir/state" \
      --quiet > /dev/null &
  svc_pid=$!
  for _ in $(seq 1 100); do [ -S "$svc_dir/d.sock" ] && break; sleep 0.05; done
  got_sum="$(svc_cli | grep '^checksum:')"
  kill "$svc_pid" 2> /dev/null; wait "$svc_pid" 2> /dev/null || true
  rm -rf "$svc_dir"
  if [ -z "$ref_sum" ] || [ "$ref_sum" != "$got_sum" ]; then
    echo "atuned: kill+restart reattach checksum mismatch" >&2
    echo "  before: ${ref_sum:-<none>}" >&2
    echo "  after:  ${got_sum:-<none>}" >&2
    exit 1
  fi
  echo "atuned loopback: ok (kill -9 + restart reattach, checksum identical)"
  echo "=== [smoke] benches at ATUNE_SMOKE=1 ==="
  # bench_micro is a google-benchmark binary: listing its benchmarks proves
  # it links and registers without paying for a timing run.
  ./build/bench/bench_micro --benchmark_list_tests > /dev/null
  echo "bench_micro: ok (listed)"
  for bench in build/bench/bench_*; do
    name="$(basename "$bench")"
    [ "$name" = "bench_micro" ] && continue
    [ "$name" = "bench_durability" ] && continue
    [ "$name" = "bench_crashsafety" ] && continue
    [ -x "$bench" ] || continue
    echo "--- $name ---"
    ATUNE_SMOKE=1 "$bench" > /dev/null
    echo "$name: ok"
  done
  echo "smoke checks passed"
  exit 0
fi

if [ "${1:-}" = "--hostile" ]; then
  jobs="$(nproc 2>/dev/null || echo 2)"
  echo "=== [hostile] configure + build (default preset) ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "$jobs"
  echo "=== [hostile] bench_supervisor (ATUNE_SMOKE=1) ==="
  # Supervision is a correctness property like durability, so this stage
  # gates even at smoke scale. The binary's own exit code is advisory under
  # ATUNE_SMOKE (see AcceptanceExit in bench/bench_common.h); the recorded
  # pass flags in BENCH_supervisor.json are not.
  ATUNE_SMOKE=1 ./build/bench/bench_supervisor
  if ! grep -q '"pass": {"hostile": true, "overhead": true, "resume": true}' \
      BENCH_supervisor.json; then
    echo "hostile gate FAILED:" >&2
    grep '"pass"' BENCH_supervisor.json >&2 || true
    exit 1
  fi
  echo "hostile checks passed: zero session-fatal errors under faults,"
  echo "supervision overhead within bound, supervised resume bit-identical"
  exit 0
fi

if [ "${1:-}" = "--hotpath" ]; then
  jobs="$(nproc 2>/dev/null || echo 2)"
  echo "=== [hotpath] configure + build (default preset, Release) ==="
  # Must be an optimized build: the speedup floors below are meaningless at
  # -O0, and the identity/alloc/replay flags are what actually gate.
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "$jobs"
  echo "=== [hotpath] bench_hotpath (ATUNE_SMOKE=1) ==="
  # Like durability and supervision, the hot-path layer gates correctness
  # (whole-session fast-vs-scalar bit-identity, zero-alloc commits, mmap
  # replay fallback) alongside its speedup floors. The binary exits 0 under
  # ATUNE_SMOKE; the recorded pass flags in BENCH_hotpath.json do not lie.
  ATUNE_SMOKE=1 ./build/bench/bench_hotpath
  if ! grep -q '"pass": {"cholesky": true, "acquisition": true, "identity": true, "alloc": true, "replay": true}' \
      BENCH_hotpath.json; then
    echo "hotpath gate FAILED:" >&2
    grep '"pass"' BENCH_hotpath.json >&2 || true
    exit 1
  fi
  echo "hotpath checks passed: blocked kernels and batched acquisition at"
  echo "speed, bit-identical sessions, zero-alloc commits, mmap replay ok"
  exit 0
fi

if [ "${1:-}" = "--crashsafety" ]; then
  jobs="$(nproc 2>/dev/null || echo 2)"
  echo "=== [crashsafety] configure + build (default preset, Release) ==="
  # Optimized build so the seam-overhead gate (IoEnv dispatch <= 1.02x a raw
  # journal append) is a real measurement; the sweep and fault-matrix flags
  # gate in any build.
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "$jobs"
  echo "=== [crashsafety] bench_crashsafety (full sweep) ==="
  # Full scale: one forked crash per mutating I/O op in the baseline run,
  # serial and at parallelism 4, each checked for longest-valid-prefix
  # recovery, resume bit-identity (checksum + final journal bytes) from the
  # crashed state and from the fsynced state a power loss leaves, and no
  # half-written published artifact; then the fault-schedule matrix (EINTR
  # storms, short writes, transient and persistent EIO, ENOSPC, fsync
  # failure serial and batched, rename failure) under both
  # --journal-policy strict and degrade.
  ./build/bench/bench_crashsafety
  if ! grep -q '"pass": {"sweep": true, "batched_sweep": true, "faults": true, "overhead": true}' \
      BENCH_crashsafety.json; then
    echo "crashsafety gate FAILED:" >&2
    grep '"pass"' BENCH_crashsafety.json >&2 || true
    exit 1
  fi
  echo "=== [crashsafety] asan-ubsan preset, smoke sweep ==="
  # Rerun the harness under Address+UBSanitizer at smoke scale: the fault
  # paths (torn half-writes, truncation guard, tail re-verification) are
  # exactly the code that should meet asan/ubsan. Overhead is advisory in
  # sanitizer builds; the correctness flags still gate via the exit code.
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "$jobs" --target bench_crashsafety
  ATUNE_SMOKE=1 ./build-asan/bench/bench_crashsafety > /dev/null
  echo "crashsafety checks passed: every crash point recovers to the longest"
  echo "valid prefix, resume is bit-identical, no torn artifacts, zero"
  echo "session fatals across the fault matrix, seam overhead within 1.02x"
  exit 0
fi

if [ "${1:-}" = "--warmstart" ]; then
  jobs="$(nproc 2>/dev/null || echo 2)"
  echo "=== [warmstart] configure + build (default preset, Release) ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "$jobs"
  echo "=== [warmstart] bench_warmstart (full grid) ==="
  # Full scale: cold-vs-warm convergence over the tuner x workload grid
  # (gate: warm median cost-to-converge strictly below cold), knowledge-repo
  # ingest under a 15% short-write/EINTR/EIO fault schedule plus an 8-thread
  # concurrent writer storm (gate: every shard present, zero corrupt), a
  # warmed journaled session killed at {1, n/2, n-1} records and resumed
  # (gate: checksum + final journal bytes identical), and sparse-GP
  # predictions vs exact (gate: within tolerance; disabled path bitwise
  # identical to exact).
  ./build/bench/bench_warmstart
  if ! grep -q '"pass": {"warm": true, "ingest": true, "resume": true, "sparse": true}' \
      BENCH_warmstart.json; then
    echo "warmstart gate FAILED:" >&2
    grep '"pass"' BENCH_warmstart.json >&2 || true
    exit 1
  fi
  echo "=== [warmstart] asan-ubsan preset, repo + sparse-GP suites ==="
  # Rerun the suites that exercise the new decode/fault/crash paths under
  # Address+UBSanitizer: shard decode of corrupted bytes, the forked
  # crash-at-every-io-op sweep, and the sparse-GP linear algebra are exactly
  # the code that should meet asan/ubsan.
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "$jobs" \
      --target atune_core_tests atune_ml_tests
  ./build-asan/tests/atune_core_tests --gtest_brief=1 \
      --gtest_filter='KnowledgeRepo*'
  ./build-asan/tests/atune_ml_tests --gtest_brief=1 \
      --gtest_filter='SparseGp*'
  echo "warmstart checks passed: warm median beats cold, zero corrupt shards"
  echo "under faults and concurrent writers, warmed resume bit-identical,"
  echo "sparse GP within tolerance and bit-identical when disabled"
  exit 0
fi

if [ "${1:-}" = "--service" ]; then
  jobs="$(nproc 2>/dev/null || echo 2)"
  echo "=== [service] configure + build (default preset, Release) ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "$jobs"
  echo "=== [service] bench_service (full fleet) ==="
  # Full scale: 1200 faulted tenants (15% transport-fault schedule, zero
  # session fatals), SIGKILL -> restart -> checksum + journal-byte resume
  # identity at three kill points, and saturation shedding with bounded-p99
  # admission verdicts and no lost sessions.
  ./build/bench/bench_service
  if ! grep -q '"pass": {"faults": true, "resume": true, "admission": true}' \
      BENCH_service.json; then
    echo "service gate FAILED:" >&2
    grep '"pass"' BENCH_service.json >&2 || true
    exit 1
  fi
  echo "=== [service] tsan preset, reactor/transport/wire tests ==="
  # The reactor hands session results from pool workers back to the loop
  # thread via Post() and atomic cancel flags — exactly the code that
  # should meet ThreadSanitizer.
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs" --target atune_net_tests
  ./build-tsan/tests/atune_net_tests --gtest_brief=1
  echo "service checks passed: zero session fatals under transport faults,"
  echo "kill/restart resume bit-identical, admission p99 bounded under"
  echo "saturation, net test suite clean under tsan"
  exit 0
fi

if [ "${1:-}" = "--drift" ]; then
  jobs="$(nproc 2>/dev/null || echo 2)"
  echo "=== [drift] configure + build (default preset, Release) ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "$jobs"
  echo "=== [drift] bench_drift (full scale) ==="
  # Full scale: post-shift recovery race over 4 seeds (gate: the adaptive
  # decorator restores a working configuration >= 2x faster, summed over
  # seeds, than an otherwise identical static pipeline whose detector never
  # fires), a drift-storm matrix (violent ramp / diurnal / repeated shift;
  # gate: budget never exceeded, re-tune cap held), and the whole-registry
  # kill/resume matrix under --drift (gate: checksum + final journal bytes
  # identical, and the adaptive row's detection/re-probe/re-tune/eviction
  # counters identical live vs replay).
  ./build/bench/bench_drift
  if ! grep -q '"pass": {"recovery": true, "storms": true, "resume": true}' \
      BENCH_drift.json; then
    echo "drift gate FAILED:" >&2
    grep '"pass"' BENCH_drift.json >&2 || true
    exit 1
  fi
  echo "=== [drift] asan-ubsan preset, drift suites ==="
  # Rerun the suites exercising the new decorator, detector, and schedule
  # arithmetic under Address+UBSanitizer: the eviction/re-probe/re-tune
  # paths and the log-objective Page-Hinkley recursion are exactly the code
  # that should meet asan/ubsan.
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "$jobs" \
      --target atune_core_tests atune_systems_tests atune_tuners_tests
  ./build-asan/tests/atune_core_tests --gtest_brief=1 \
      --gtest_filter='DriftDetector*'
  ./build-asan/tests/atune_systems_tests --gtest_brief=1 \
      --gtest_filter='DriftSchedule*:DriftingWorkload*'
  ./build-asan/tests/atune_tuners_tests --gtest_brief=1 \
      --gtest_filter='AdaptiveRetune*'
  echo "drift checks passed: adaptive recovery >= 2x static after the shift,"
  echo "no budget leak under drift storms, whole-registry resume identical"
  echo "under drift with detection rounds matching live vs replay"
  exit 0
fi

if [ "${1:-}" = "--think" ]; then
  jobs="$(nproc 2>/dev/null || echo 2)"
  echo "=== [think] tsan preset, GP + iTuned/OtterTune suites ==="
  # Serial BO sessions run their hyper search and acquisition scan on the
  # session's think pool: workers share one const GaussianProcess and each
  # uses its own thread_local solve buffers and scratch arena.
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs" \
      --target atune_ml_tests atune_tuners_tests
  # The calling thread claims hyper-search candidates and PredictBatch
  # chunks from the same atomic counters as the workers:
  # GaussianProcessPoolTest.OverlapStepRunsOnceOnCallerAfterHyperDraws and
  # GpBatch.PooledPredictBatchBitIdenticalToNoPool drive both, and the
  # *SerialFallbackAfterNan* sessions the rng rewind after a failed search.
  ./build-tsan/tests/atune_ml_tests --gtest_brief=1 \
      --gtest_filter='GpBatch*:GaussianProcess*:GpTest*'
  ./build-tsan/tests/atune_tuners_tests --gtest_brief=1 \
      --gtest_filter='ITuned*:OtterTune*:ThinkPool*'
  echo "think checks passed: pooled GP paths and pooled serial sessions"
  echo "clean under tsan, forked child reruns its session"
  exit 0
fi

if [ "${1:-}" = "--io-repeat" ]; then
  jobs="$(nproc 2>/dev/null || echo 2)"
  echo "=== [io-repeat] configure + build (default preset) ==="
  cmake -B build -S .
  cmake --build build -j "$jobs"
  echo "=== [io-repeat] I/O suites, parallel, shuffled, 20 passes ==="
  # Every one of these tests writes under a path private to its suite, name
  # and pid (testing_util::TestTempPath). Running them as concurrent ctest
  # processes in random order, each up to 20 times, fails on the first
  # pass where two of them still meet on one file.
  io_suites='^(JournalTest|JournalFaultTest|JournalMmap|ResumeTest|GroupCommitTest'
  io_suites+='|KnowledgeRepoTest|IoEnvTest|WarmStartTest|AdaptiveRetuneTest'
  io_suites+='|TraceResumeTest|CommitAlloc|RepositoryIoTest)\.'
  ctest --test-dir build -j "$jobs" --schedule-random \
      --repeat until-fail:20 --output-on-failure -R "$io_suites"
  echo "io-repeat checks passed: no shared temp path across 20 shuffled"
  echo "parallel passes of the I/O suites"
  exit 0
fi

if [ "${1:-}" = "--coverage" ]; then
  jobs="$(nproc 2>/dev/null || echo 2)"
  echo "=== [coverage] configure + build (gcov instrumentation) ==="
  cmake -B build-coverage -S . -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_FLAGS="-O0 --coverage" \
      -DCMAKE_EXE_LINKER_FLAGS="--coverage"
  cmake --build build-coverage -j "$jobs"
  echo "=== [coverage] full ctest ==="
  # Counter files (.gcda) accumulate across processes, so one full suite
  # pass is enough; reruns keep adding without resetting.
  ctest --test-dir build-coverage -j "$jobs" --output-on-failure
  echo "=== [coverage] report (src/ only) ==="
  if command -v gcovr > /dev/null 2>&1; then
    # Preferred: gcovr does the per-file table and totals natively.
    gcovr -r . --object-directory build-coverage --filter 'src/' \
        --print-summary
  elif command -v lcov > /dev/null 2>&1; then
    lcov --capture --directory build-coverage \
        --output-file build-coverage/coverage.info > /dev/null
    lcov --extract build-coverage/coverage.info "$(pwd)/src/*" \
        --output-file build-coverage/coverage.src.info > /dev/null
    lcov --list build-coverage/coverage.src.info
  else
    # Raw-gcov fallback (gcov ships with gcc, so this always works). Each
    # src/ translation unit compiles exactly once into its atune_* static
    # library, so its single .gcda already holds the union of every test
    # binary's runs; header lines inlined into test objects also show up,
    # and we keep the best-covered record per file to avoid double counting.
    find build-coverage/src -name '*.gcda' | while read -r gcda; do
      gcov -n -o "$(dirname "$gcda")" "$gcda" 2> /dev/null
    done | awk -v root="$(pwd)/" '
      /^File / {
        # Lines look like: File QUOTE/abs/path/src/obs/trace.ccQUOTE
        f = substr($0, 7, length($0) - 7)   # strip "File <quote>" + trailing quote
        sub("^" root, "", f); sub(/^\.\//, "", f)
        keep = (f ~ /^src\//)
        next
      }
      keep && /^Lines executed:/ {
        split($0, a, /[:% ]+/)   # a[3]=pct, a[5]=total lines
        hit = a[3] / 100.0 * a[5]
        if (!(f in best_total) || hit > best_hit[f]) {
          best_hit[f] = hit; best_total[f] = a[5]
        }
        keep = 0
      }
      END {
        for (f in best_hit) {
          d = f; sub(/\/[^\/]*$/, "", d)
          dir_hit[d] += best_hit[f]; dir_total[d] += best_total[f]
          all_hit += best_hit[f]; all_total += best_total[f]
        }
        printf "%-14s %10s %10s %8s\n", "directory", "lines", "covered", "pct"
        n = 0
        for (d in dir_hit) dirs[++n] = d
        for (i = 1; i < n; ++i)        # selection sort: mawk has no asorti
          for (j = i + 1; j <= n; ++j)
            if (dirs[j] < dirs[i]) { t = dirs[i]; dirs[i] = dirs[j]; dirs[j] = t }
        for (i = 1; i <= n; ++i) {
          d = dirs[i]
          printf "%-14s %10d %10d %7.1f%%\n", d, dir_total[d], dir_hit[d],
                 100.0 * dir_hit[d] / dir_total[d]
        }
        pct = all_total ? 100.0 * all_hit / all_total : 0.0
        printf "%-14s %10d %10d %7.1f%%\n", "TOTAL src/", all_total, all_hit,
               pct
        if (pct < 70.0) {
          printf "coverage gate FAILED: %.1f%% < 70%% (see thresholds in the\n", pct
          printf "header of tools/run_checks.sh)\n"
          exit 1
        }
        printf "coverage gate ok: %.1f%% >= 70%%\n", pct
      }'
  fi
  echo "coverage checks passed"
  exit 0
fi

# The sanitizer presets run the full ctest suite, which includes the
# journal fuzz tests (tests/core/journal_test.cc), the per-tuner
# resume-equivalence tests (tests/core/resume_test.cc), and the racy span
# forest / metrics property tests (tests/obs/) — torn-frame parsing,
# replay, and the lock-free trace buffer are exactly the code that should
# meet tsan/asan/ubsan.
presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(tsan asan-ubsan)
fi

jobs="$(nproc 2>/dev/null || echo 2)"
for preset in "${presets[@]}"; do
  echo "=== [$preset] configure ==="
  cmake --preset "$preset"
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j "$jobs"
  echo "=== [$preset] ctest ==="
  ctest --preset "$preset" -j "$jobs"
done
echo "all checks passed: ${presets[*]}"
