// E17 — hot-path speed layer (DESIGN.md §11): the blocked math kernels,
// batched GP prediction/acquisition, arena-backed zero-allocation commit
// path, and mmap journal replay must be *faster* and *bit-identical* to the
// scalar paths they replaced. This harness is the acceptance gate:
//
//   * kernels: ns/op for Cholesky at n in {64, 300}, fast (blocked) vs
//     scalar (reference) via the runtime A/B switch; gate >= 2x at n=300.
//   * acquisition: a 1500-candidate EI scan over a 300-point GP, per-point
//     Predict loop vs PredictBatch + ExpectedImprovementBatch; gate >= 3x,
//     with every EI value and the argmax verified bitwise equal.
//   * alloc: steady-state Evaluator commits (journal on, tracing/metrics
//     off, default policy) must report last_commit_allocs() == 0. This
//     binary links the counting operator-new override, so zero is meaningful.
//   * replay: journal recovery MB/s, mmap vs forced streaming, identical
//     records in every mode including the ATUNE_JOURNAL_NO_MMAP env
//     fallback.
//   * identity: whole-registry tuning sessions — serial, batched p=8, and
//     kill/resume — run under fast and scalar kernels must produce equal
//     OutcomeChecksums, structural trace trees, and journal file bytes.
//
// Results go to console + BENCH_hotpath.json. Kernel/acquisition problem
// sizes are constant under ATUNE_SMOKE (they are cheap); only the session
// budget shrinks. The identity/alloc/replay flags gate even at smoke scale
// via tools/run_checks.sh --hotpath (correctness, not paper-scale numbers);
// the speedup gates use the binary's own exit code (advisory under smoke).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/alloc_hook.h"
#include "common/file_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/journal.h"
#include "core/registry.h"
#include "core/session.h"
#include "math/matrix.h"
#include "ml/acquisition.h"
#include "ml/gaussian_process.h"
#include "obs/trace.h"
#include "systems/dbms/dbms_workloads.h"
#include "tuners/builtin.h"

#ifndef ATUNE_BUILD_FLAGS
#define ATUNE_BUILD_FLAGS "(unknown)"
#endif

namespace atune {
namespace bench {
namespace {

const size_t kBudget = SmokeSize(14, 8);
const uint64_t kSeed = 5;
const int kTimingReps = SmokeMode() ? 3 : 7;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Optimizer sink: accumulating results here keeps timed kernels live.
double g_sink = 0.0;

Matrix RandomSpd(size_t n, Rng* rng) {
  Matrix g(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) g.At(i, j) = rng->Uniform() * 2.0 - 1.0;
  }
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < n; ++k) acc += g.At(i, k) * g.At(j, k);
      a.At(i, j) = acc;
    }
    a.At(i, i) += 2.0 + static_cast<double>(n);
  }
  return a;
}

// ---- section 1: blocked kernel timings ------------------------------------

struct KernelTiming {
  size_t n = 0;
  double fast_ns = 0.0;
  double scalar_ns = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

KernelTiming TimeCholesky(size_t n) {
  Rng rng(kSeed + n);
  Matrix a = RandomSpd(n, &rng);
  KernelTiming t;
  t.n = n;
  double best_fast = std::numeric_limits<double>::infinity();
  double best_scalar = best_fast;
  Matrix fast_factor(0, 0);
  Matrix scalar_factor(0, 0);
  // Alternate sides each rep so cache warmth doesn't favor one of them.
  for (int rep = 0; rep < kTimingReps; ++rep) {
    for (bool scalar : {false, true}) {
      SetScalarKernelsForTesting(scalar);
      uint64_t t0 = NowNs();
      auto l = a.Cholesky();
      uint64_t dt = NowNs() - t0;
      SetScalarKernelsForTesting(false);
      if (!l.ok()) return t;
      g_sink += l->At(n - 1, n - 1);
      if (scalar) {
        best_scalar = std::min(best_scalar, static_cast<double>(dt));
        scalar_factor = *std::move(l);
      } else {
        best_fast = std::min(best_fast, static_cast<double>(dt));
        fast_factor = *std::move(l);
      }
    }
  }
  t.fast_ns = best_fast;
  t.scalar_ns = best_scalar;
  t.speedup = best_scalar / best_fast;
  t.identical =
      fast_factor.rows() == scalar_factor.rows() &&
      std::memcmp(fast_factor.data().data(), scalar_factor.data().data(),
                  fast_factor.data().size() * sizeof(double)) == 0;
  return t;
}

// ---- section 2: batched acquisition scan ----------------------------------

struct AcquisitionTiming {
  size_t n = 0;
  size_t m = 0;
  double scalar_ns = 0.0;
  double batched_ns = 0.0;
  double speedup = 0.0;
  bool bitwise_match = false;
};

AcquisitionTiming TimeAcquisitionScan() {
  const size_t n = 300, d = 8, m = 1500;
  AcquisitionTiming t;
  t.n = n;
  t.m = m;
  Rng rng(kSeed + 17);
  std::vector<Vec> xs(n, Vec(d));
  Vec ys(n);
  for (size_t i = 0; i < n; ++i) {
    for (double& v : xs[i]) v = rng.Uniform();
    ys[i] = rng.Uniform() * 4.0 - 2.0;
  }
  GaussianProcess gp(GpHyperParams{KernelType::kMatern52, {}, 1.0, 1e-4});
  if (!gp.Fit(xs, ys).ok()) return t;
  Matrix cands(m, d);
  for (size_t r = 0; r < m; ++r) {
    for (size_t j = 0; j < d; ++j) cands.At(r, j) = rng.Uniform();
  }
  double best = *std::min_element(ys.begin(), ys.end());

  Vec scalar_ei(m), batched_ei;
  GpScratch scratch;
  std::vector<GpPrediction> preds;
  double best_scalar = std::numeric_limits<double>::infinity();
  double best_batched = best_scalar;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    {
      SetScalarKernelsForTesting(true);
      uint64_t t0 = NowNs();
      for (size_t r = 0; r < m; ++r) {
        scalar_ei[r] = ExpectedImprovement(gp.Predict(cands.Row(r)), best);
      }
      best_scalar = std::min(best_scalar, static_cast<double>(NowNs() - t0));
      SetScalarKernelsForTesting(false);
      g_sink += scalar_ei[m - 1];
    }
    {
      uint64_t t0 = NowNs();
      gp.PredictBatch(cands, &scratch, &preds);
      ExpectedImprovementBatch(preds, best, 0.0, &batched_ei);
      best_batched = std::min(best_batched, static_cast<double>(NowNs() - t0));
      g_sink += batched_ei[m - 1];
    }
  }
  t.scalar_ns = best_scalar;
  t.batched_ns = best_batched;
  t.speedup = best_scalar / best_batched;
  size_t scalar_argmax =
      std::max_element(scalar_ei.begin(), scalar_ei.end()) - scalar_ei.begin();
  size_t batched_argmax =
      std::max_element(batched_ei.begin(), batched_ei.end()) -
      batched_ei.begin();
  t.bitwise_match =
      batched_ei.size() == m && scalar_argmax == batched_argmax &&
      std::memcmp(scalar_ei.data(), batched_ei.data(), m * sizeof(double)) ==
          0;
  return t;
}

// ---- section 3: zero-allocation commit ------------------------------------

struct AllocCheck {
  bool hook_live = false;
  uint64_t max_steady_allocs = 0;
  bool pass = false;
};

AllocCheck CheckCommitAllocs() {
  AllocCheck out;
  {
    uint64_t before = SampleAllocCount();
    void* p = ::operator new(64);
    out.hook_live = SampleAllocCount() > before;
    ::operator delete(p);
  }
  auto dbms = MakeDbms(kSeed + 1);
  Evaluator evaluator(dbms.get(), MakeDbmsOlapWorkload(1.0),
                      TuningBudget{24});
  JournalHeader header;
  header.tuner_name = "hotpath-alloc";
  header.max_evaluations = 24;
  std::string path = "BENCH_hotpath_alloc.waljournal.tmp";
  auto journal = TrialJournal::Create(path, header);
  if (!journal.ok()) return out;
  evaluator.set_journal(journal->get());
  Configuration config = dbms->space().DefaultConfiguration();
  // Warmup commits grow history slack and the journal frame buffer to their
  // high-water marks; steady state begins after them.
  for (int i = 0; i < 4; ++i) {
    if (!evaluator.Evaluate(config).ok()) return out;
  }
  bool all_zero = true;
  for (int i = 0; i < 12; ++i) {
    if (!evaluator.Evaluate(config).ok()) return out;
    out.max_steady_allocs =
        std::max(out.max_steady_allocs, evaluator.last_commit_allocs());
    if (evaluator.last_commit_allocs() != 0) all_zero = false;
  }
  std::remove(path.c_str());
  out.pass = out.hook_live && all_zero;
  return out;
}

// ---- section 4: journal replay throughput ---------------------------------

struct ReplayCheck {
  size_t records = 0;
  size_t bytes = 0;
  double mmap_mb_s = 0.0;
  double streaming_mb_s = 0.0;
  bool records_match = false;
  bool fallback_ok = false;
  bool pass = false;
};

uint64_t RecordsFingerprint(const std::vector<JournalRecord>& records) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (const JournalRecord& r : records) {
    const std::string cfg = r.config.ToString();
    h = Fnv1a(h, cfg.data(), cfg.size());
    h = Fnv1a(h, &r.seq, sizeof(r.seq));
    h = Fnv1a(h, &r.objective, sizeof(r.objective));
    h = Fnv1a(h, &r.used, sizeof(r.used));
  }
  return h;
}

ReplayCheck CheckReplay() {
  ReplayCheck out;
  const size_t n_records = SmokeSize(4000, 600);
  std::string path = "BENCH_hotpath_replay.waljournal.tmp";
  {
    JournalHeader header;
    header.tuner_name = "hotpath-replay";
    header.max_evaluations = n_records;
    auto journal = TrialJournal::Create(path, header);
    if (!journal.ok()) return out;
    for (size_t i = 0; i < n_records; ++i) {
      JournalRecord rec;
      rec.seq = i;
      rec.config.SetDouble("shared_buffers", 0.001 * static_cast<double>(i));
      rec.config.SetInt("max_connections", static_cast<int64_t>(i % 512));
      rec.config.SetString("wal_level", i % 2 == 0 ? "replica" : "logical");
      rec.result.runtime_seconds = 1.0 + 0.25 * static_cast<double>(i % 17);
      rec.result.metrics = {{"throughput", 1000.0 - static_cast<double>(i)}};
      rec.objective = rec.result.runtime_seconds;
      rec.cost = 1.0;
      rec.system_runs = i + 1;
      rec.used = static_cast<double>(i + 1);
      if (!(*journal)->Append(rec).ok()) return out;
    }
  }
  std::string file;
  if (!ReadFileToString(path, &file).ok()) return out;
  out.bytes = file.size();

  auto time_mode = [&](JournalReplayMode mode, uint64_t* fingerprint,
                       size_t* records) {
    SetJournalReplayModeForTesting(mode);
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kTimingReps; ++rep) {
      uint64_t t0 = NowNs();
      auto recovered = TrialJournal::OpenForResume(path);
      uint64_t dt = NowNs() - t0;
      if (!recovered.ok()) return 0.0;
      best = std::min(best, static_cast<double>(dt));
      *fingerprint = RecordsFingerprint(recovered->records);
      *records = recovered->records.size();
    }
    SetJournalReplayModeForTesting(JournalReplayMode::kAuto);
    return static_cast<double>(out.bytes) / (best / 1e9) / 1e6;
  };

  uint64_t mmap_fp = 0, stream_fp = 0, env_fp = 0;
  size_t mmap_n = 0, stream_n = 0, env_n = 0;
  out.mmap_mb_s = time_mode(JournalReplayMode::kMmap, &mmap_fp, &mmap_n);
  out.streaming_mb_s =
      time_mode(JournalReplayMode::kStreaming, &stream_fp, &stream_n);
  // Env fallback: kAuto must degrade to streaming when the env var is set.
  ::setenv("ATUNE_JOURNAL_NO_MMAP", "1", 1);
  double env_mb_s = time_mode(JournalReplayMode::kAuto, &env_fp, &env_n);
  ::unsetenv("ATUNE_JOURNAL_NO_MMAP");
  out.records = mmap_n;
  out.records_match = mmap_n == n_records && stream_n == n_records &&
                      mmap_fp == stream_fp;
  out.fallback_ok = env_n == n_records && env_fp == mmap_fp && env_mb_s > 0.0;
  out.pass = out.records_match && out.fallback_ok && out.mmap_mb_s > 0.0;
  std::remove(path.c_str());
  return out;
}

// ---- section 5: whole-registry fast-vs-scalar identity --------------------

struct SessionResult {
  bool ok = false;
  uint64_t checksum = 0;
  std::string tree;
  std::string journal_bytes;
};

SessionResult RunIdentitySession(const std::string& tuner_name,
                                 size_t parallelism, uint64_t kill_after,
                                 bool scalar, const std::string& journal_path) {
  SessionResult out;
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  auto tuner = registry.Create(tuner_name);
  if (!tuner.ok()) return out;
  (*tuner)->set_parallelism(parallelism);
  auto dbms = MakeDbms(kSeed + 1);
  const Workload workload = MakeDbmsOlapWorkload(1.0);

  SetScalarKernelsForTesting(scalar);
  SessionOptions options;
  options.budget = TuningBudget{kBudget};
  options.seed = kSeed + 100;
  options.measure_default = false;
  options.journal_path = journal_path;
  Tracer tracer;
  if (kill_after > 0) {
    // Kill leg: journal the first `kill_after` records, then abort. The
    // outcome status is irrelevant; the resume leg below is what we compare.
    // Resume uses a freshly created tuner, as a real post-crash process
    // would — replay feeds the journal into pristine tuner state.
    options.interrupt_after_records = kill_after;
    (void)RunTuningSession(tuner->get(), dbms.get(), workload, options);
    auto fresh = registry.Create(tuner_name);
    if (!fresh.ok()) {
      SetScalarKernelsForTesting(false);
      return out;
    }
    (*fresh)->set_parallelism(parallelism);
    options.interrupt_after_records = 0;
    options.tracer = &tracer;
    auto resumed =
        ResumeTuningSession(fresh->get(), dbms.get(), workload, options);
    SetScalarKernelsForTesting(false);
    if (!resumed.ok()) return out;
    out.checksum = OutcomeChecksum(*resumed);
  } else {
    options.tracer = &tracer;
    auto outcome =
        RunTuningSession(tuner->get(), dbms.get(), workload, options);
    SetScalarKernelsForTesting(false);
    if (!outcome.ok()) return out;
    out.checksum = OutcomeChecksum(*outcome);
  }
  out.tree = tracer.StructuralTreeString();
  (void)ReadFileToString(journal_path, &out.journal_bytes);
  std::remove(journal_path.c_str());
  out.ok = true;
  return out;
}

struct IdentityRow {
  std::string tuner;
  bool applicable = false;
  bool serial = false;
  bool batched = false;
  bool kill_resume = false;
  bool pass() const {
    return !applicable || (serial && batched && kill_resume);
  }
};

bool SameSession(const SessionResult& a, const SessionResult& b,
                 const char* label) {
  bool same = a.ok && b.ok && a.checksum == b.checksum && a.tree == b.tree &&
              a.journal_bytes == b.journal_bytes;
  if (!same) {
    // Name the diverging component so a gate failure is actionable without
    // rerunning under a debugger.
    std::printf(
        "  MISMATCH %-28s ok=%d/%d checksum=%d tree=%d journal=%d "
        "(%zu vs %zu bytes)\n",
        label, a.ok, b.ok, a.checksum == b.checksum, a.tree == b.tree,
        a.journal_bytes == b.journal_bytes, a.journal_bytes.size(),
        b.journal_bytes.size());
  }
  return same;
}

std::vector<IdentityRow> RunIdentityMatrix() {
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  std::vector<IdentityRow> rows;
  for (const std::string& name : registry.Names()) {
    IdentityRow row;
    row.tuner = name;
    const std::string path = "BENCH_hotpath_identity.waljournal.tmp";
    SessionResult fast_serial = RunIdentitySession(name, 1, 0, false, path);
    // Tuners that cannot drive the DBMS under this budget (wrong system
    // kind, degenerate model) fail identically in both modes; skip them.
    row.applicable = fast_serial.ok;
    if (row.applicable) {
      row.serial = SameSession(
          fast_serial, RunIdentitySession(name, 1, 0, true, path), "serial");
      row.batched = SameSession(RunIdentitySession(name, 8, 0, false, path),
                                RunIdentitySession(name, 8, 0, true, path),
                                "batched");
      row.kill_resume = SameSession(RunIdentitySession(name, 1, 3, false, path),
                                    RunIdentitySession(name, 1, 3, true, path),
                                    "kill_resume");
    }
    std::printf("  %-24s %s serial=%d batched=%d kill_resume=%d\n",
                name.c_str(), row.applicable ? "ok " : "n/a", row.serial,
                row.batched, row.kill_resume);
    rows.push_back(row);
  }
  return rows;
}

}  // namespace

int Main() {
  PrintHeader("E17 hot-path speed layer",
              "the paper's iterative-tuning inner loop at interactive speed",
              "blocked kernels, batched acquisition, zero-alloc commit, "
              "mmap replay — speed with bit-identity");

  std::printf("== kernels: blocked Cholesky vs scalar reference ==\n");
  std::vector<KernelTiming> kernels;
  for (size_t n : {size_t{64}, size_t{300}}) {
    KernelTiming t = TimeCholesky(n);
    kernels.push_back(t);
    std::printf("  n=%-4zu fast %8.0f ns  scalar %8.0f ns  speedup %.2fx  "
                "identical=%d\n",
                t.n, t.fast_ns, t.scalar_ns, t.speedup, t.identical);
  }
  bool cholesky_pass = kernels.back().speedup >= 2.0 &&
                       kernels.front().identical && kernels.back().identical;

  std::printf("== acquisition: 1500-candidate EI scan over a 300-point GP ==\n");
  AcquisitionTiming acq = TimeAcquisitionScan();
  std::printf("  scalar %.0f ns  batched %.0f ns  speedup %.2fx  bitwise=%d\n",
              acq.scalar_ns, acq.batched_ns, acq.speedup, acq.bitwise_match);
  bool acquisition_pass = acq.speedup >= 3.0 && acq.bitwise_match;

  std::printf("== alloc: steady-state commit allocations ==\n");
  AllocCheck alloc = CheckCommitAllocs();
  std::printf("  hook_live=%d max_steady_allocs=%llu pass=%d\n",
              alloc.hook_live,
              static_cast<unsigned long long>(alloc.max_steady_allocs),
              alloc.pass);

  std::printf("== replay: journal recovery throughput ==\n");
  ReplayCheck replay = CheckReplay();
  std::printf("  %zu records (%zu bytes): mmap %.1f MB/s, streaming %.1f "
              "MB/s, records_match=%d fallback_ok=%d\n",
              replay.records, replay.bytes, replay.mmap_mb_s,
              replay.streaming_mb_s, replay.records_match, replay.fallback_ok);

  std::printf("== identity: whole-registry fast vs scalar sessions ==\n");
  std::vector<IdentityRow> identity = RunIdentityMatrix();
  bool identity_pass = true;
  size_t applicable = 0;
  for (const IdentityRow& row : identity) {
    if (row.applicable) ++applicable;
    identity_pass = identity_pass && row.pass();
  }
  identity_pass = identity_pass && applicable > 0;

  bool all_pass = cholesky_pass && acquisition_pass && identity_pass &&
                  alloc.pass && replay.pass;

  std::ostringstream json;
  json << "{\n  \"experiment\": \"E17_hotpath\",\n";
  json << StrFormat("  \"smoke\": %s,\n", SmokeMode() ? "true" : "false");
  json << "  \"build_flags\": \"" << ATUNE_BUILD_FLAGS << "\",\n";
  json << "  \"kernels\": [\n";
  for (size_t i = 0; i < kernels.size(); ++i) {
    const KernelTiming& t = kernels[i];
    json << StrFormat(
        "    {\"kernel\": \"cholesky\", \"n\": %zu, \"fast_ns\": %.0f, "
        "\"scalar_ns\": %.0f, \"speedup\": %.3f, \"identical\": %s}%s\n",
        t.n, t.fast_ns, t.scalar_ns, t.speedup,
        t.identical ? "true" : "false", i + 1 < kernels.size() ? "," : "");
  }
  json << "  ],\n";
  json << StrFormat(
      "  \"acquisition\": {\"n\": %zu, \"m\": %zu, \"scalar_ns\": %.0f, "
      "\"batched_ns\": %.0f, \"speedup\": %.3f, \"bitwise_match\": %s},\n",
      acq.n, acq.m, acq.scalar_ns, acq.batched_ns, acq.speedup,
      acq.bitwise_match ? "true" : "false");
  json << StrFormat(
      "  \"alloc\": {\"hook_live\": %s, \"max_steady_allocs\": %llu},\n",
      alloc.hook_live ? "true" : "false",
      static_cast<unsigned long long>(alloc.max_steady_allocs));
  json << StrFormat(
      "  \"replay\": {\"records\": %zu, \"bytes\": %zu, \"mmap_mb_s\": %.1f, "
      "\"streaming_mb_s\": %.1f, \"records_match\": %s, \"fallback_ok\": "
      "%s},\n",
      replay.records, replay.bytes, replay.mmap_mb_s, replay.streaming_mb_s,
      replay.records_match ? "true" : "false",
      replay.fallback_ok ? "true" : "false");
  json << "  \"identity\": [\n";
  for (size_t i = 0; i < identity.size(); ++i) {
    const IdentityRow& row = identity[i];
    json << StrFormat(
        "    {\"tuner\": \"%s\", \"applicable\": %s, \"serial\": %s, "
        "\"batched\": %s, \"kill_resume\": %s}%s\n",
        row.tuner.c_str(), row.applicable ? "true" : "false",
        row.serial ? "true" : "false", row.batched ? "true" : "false",
        row.kill_resume ? "true" : "false",
        i + 1 < identity.size() ? "," : "");
  }
  json << "  ],\n";
  json << StrFormat(
      "  \"pass\": {\"cholesky\": %s, \"acquisition\": %s, \"identity\": %s, "
      "\"alloc\": %s, \"replay\": %s}\n}\n",
      cholesky_pass ? "true" : "false", acquisition_pass ? "true" : "false",
      identity_pass ? "true" : "false", alloc.pass ? "true" : "false",
      replay.pass ? "true" : "false");
  if (AtomicWriteFile("BENCH_hotpath.json", json.str()).ok()) {
    std::printf("wrote BENCH_hotpath.json\n");
  }

  std::printf("hotpath gates: cholesky=%d acquisition=%d identity=%d "
              "alloc=%d replay=%d\n",
              cholesky_pass, acquisition_pass, identity_pass, alloc.pass,
              replay.pass);
  if (g_sink == 12345.6789) std::printf("(sink)\n");
  return AcceptanceExit(all_pass);
}

}  // namespace bench
}  // namespace atune

int main() { return atune::bench::Main(); }
