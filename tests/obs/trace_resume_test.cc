// Trace-as-oracle metamorphic tests (DESIGN.md §9): a session killed at a
// journal commit boundary and resumed must emit a span tree whose
// StructuralTreeString() is bit-identical to the uninterrupted session's —
// replayed trials synthesize their measure/retry/remeasure children from
// the journal's counter deltas, and the live journal_append and replay
// spans share the structural name "commit". Deterministic metrics (every
// name not containing "host", minus the replay bookkeeping) must survive a
// resume bit-identically too.

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/journal.h"
#include "core/registry.h"
#include "core/session.h"
#include "core/supervisor.h"
#include "core/knowledge_repo.h"
#include "systems/fault_injector.h"
#include "tests/testing_util.h"
#include "tuners/builtin.h"
#include "tuners/warm_start.h"

namespace atune {
namespace {

constexpr uint64_t kSeed = 11;
constexpr double kFaultRate = 0.2;

/// Deterministic numerically-unstable primary for supervised-resume cases:
/// evaluates three configs per Tune() pass, then reports kInternal, so the
/// supervisor fails over on a fixed cadence and the kill-point matrix lands
/// inside fallback cooldowns.
class NumericallyFailingTuner : public Tuner {
 public:
  std::string name() const override { return "numerically-failing"; }
  TunerCategory category() const override {
    return TunerCategory::kMachineLearning;
  }
  Status Tune(Evaluator* evaluator, Rng* rng) override {
    for (int i = 0; i < 3; ++i) {
      if (evaluator->Exhausted()) return Status::OK();
      Vec u(evaluator->space().dims());
      for (double& v : u) v = rng->Uniform();
      auto obj = evaluator->Evaluate(evaluator->space().FromUnitVector(u));
      if (!obj.ok()) {
        if (obj.status().code() == StatusCode::kResourceExhausted) {
          return Status::OK();
        }
        return obj.status();
      }
    }
    return Status::Internal("synthetic model collapse");
  }
  std::string Report() const override { return ""; }
};

/// A deterministic knowledge snapshot for the warm-start kill matrix: two
/// completed noise-free historic sessions, rebuilt identically on every
/// call (the same pinned snapshot a daemon restart would reload from its
/// .meta shard list).
const std::vector<KnowledgeRecord>& WarmSnapshot() {
  static const std::vector<KnowledgeRecord>* snapshot = [] {
    auto* records = new std::vector<KnowledgeRecord>();
    TunerRegistry registry;
    RegisterBuiltinTuners(&registry);
    auto dbms = testing_util::MakeTestDbms(kSeed, /*noise=*/false);
    const Workload workloads[] = {MakeDbmsOlapWorkload(1.0),
                                  MakeDbmsOltpWorkload(1.0)};
    uint64_t seed = 900;
    for (const Workload& wl : workloads) {
      auto tuner = registry.Create("random-search");
      if (!tuner.ok()) continue;
      SessionOptions options;
      options.budget = TuningBudget{5};
      options.seed = seed;
      options.measure_default = false;
      auto outcome = RunTuningSession(tuner->get(), dbms.get(), wl, options);
      if (outcome.ok()) {
        records->push_back(MakeKnowledgeRecord(
            "hist-" + std::to_string(seed), "tenant", dbms->name(),
            dbms->space(), dbms->MetricNames(), wl, seed, 5, *outcome));
      }
      ++seed;
    }
    return records;
  }();
  return *snapshot;
}

/// Resolves a tuner spec: "supervised:failing" is the synthetic unstable
/// primary above under supervision; "supervised:<registry-name>" wraps a
/// registry tuner; "warm:<registry-name>" wraps one in a WarmStartTuner
/// seeded with the deterministic snapshot; anything else is a plain
/// registry lookup.
Result<std::unique_ptr<Tuner>> MakeTunerFor(const std::string& spec) {
  SupervisionPolicy policy;
  policy.failover_cooldown_trials = 3;
  if (spec == "supervised:failing") {
    return MakeSupervisedTuner(std::make_unique<NumericallyFailingTuner>(),
                               nullptr, policy);
  }
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  const std::string prefix = "supervised:";
  if (spec.rfind(prefix, 0) == 0) {
    auto inner = registry.Create(spec.substr(prefix.size()));
    if (!inner.ok()) return inner.status();
    return MakeSupervisedTuner(std::move(*inner), nullptr, policy);
  }
  const std::string warm_prefix = "warm:";
  if (spec.rfind(warm_prefix, 0) == 0) {
    return MakeWarmStartTuner(registry, spec.substr(warm_prefix.size()),
                              WarmSnapshot());
  }
  return registry.Create(spec);
}

std::string JournalPath(const std::string& name) {
  return testing_util::TestTempPath("trace_resume_" + name + ".wal");
}

struct TracedRun {
  Status status = Status::OK();
  TuningOutcome outcome;
  std::string tree;     ///< StructuralTreeString() of the session's tracer
  size_t span_count = 0;
  bool ok() const { return status.ok(); }
};

// One traced+metered session against a noisy DBMS behind a transient fault
// injector, so replay has real repair spans to reconstruct.
TracedRun RunTraced(const std::string& tuner_name, const std::string& journal,
                    size_t budget, uint64_t kill_after, bool resume,
                    size_t parallelism = 1) {
  TracedRun run;
  auto tuner = MakeTunerFor(tuner_name);
  if (!tuner.ok()) {
    run.status = tuner.status();
    return run;
  }
  (*tuner)->set_parallelism(parallelism);
  auto dbms = testing_util::MakeTestDbms(kSeed, /*noise=*/true);
  FaultProfile profile;
  profile.transient_failure_rate = kFaultRate;
  FaultInjectingSystem faulty(dbms.get(), profile);

  Tracer tracer;
  MetricsRegistry metrics;
  SessionOptions options;
  options.budget = TuningBudget{budget};
  options.seed = kSeed;
  options.measure_default = false;
  options.journal_path = journal;
  options.interrupt_after_records = kill_after;
  options.tracer = &tracer;
  options.metrics = &metrics;
  const Workload workload = MakeDbmsOlapWorkload(1.0);
  auto outcome =
      resume ? ResumeTuningSession(tuner->get(), &faulty, workload, options)
             : RunTuningSession(tuner->get(), &faulty, workload, options);
  run.tree = tracer.StructuralTreeString();
  run.span_count = tracer.span_count();
  if (!outcome.ok()) {
    run.status = outcome.status();
    return run;
  }
  run.outcome = std::move(*outcome);
  return run;
}

uint64_t RecordCount(const std::string& path) {
  auto recovered = TrialJournal::OpenForResume(path);
  return recovered.ok() ? recovered->records.size() : 0;
}

// The deterministic slice of a metrics snapshot, serialized for exact
// comparison. Excluded by design: names containing "host" (host wall-clock
// varies run to run) and the replay bookkeeping (trial.replayed /
// session.replayed_records), which describe HOW the session got here.
std::map<std::string, std::string> DeterministicMetrics(
    const MetricsSnapshot& snap) {
  std::map<std::string, std::string> out;
  for (const MetricsSnapshot::Entry& e : snap.entries) {
    if (e.name.find("host") != std::string::npos) continue;
    if (e.name == "trial.replayed") continue;
    if (e.name == "session.replayed_records") continue;
    out[e.name] = e.kind + "," + std::to_string(e.count) + "," +
                  TraceDouble(e.value) + "," + TraceDouble(e.sum) + "," +
                  TraceDouble(e.min) + "," + TraceDouble(e.max) + "," +
                  TraceDouble(e.mean) + "," + TraceDouble(e.p50) + "," +
                  TraceDouble(e.p90) + "," + TraceDouble(e.p99);
  }
  return out;
}

void RunMetamorphicCase(const std::string& tuner_name, size_t budget,
                        size_t parallelism) {
  const std::string path = JournalPath(tuner_name + "_p" +
                                       std::to_string(parallelism));
  std::remove(path.c_str());
  TracedRun baseline = RunTraced(tuner_name, path, budget, /*kill_after=*/0,
                                 /*resume=*/false, parallelism);
  ASSERT_TRUE(baseline.ok()) << baseline.status.message();
  ASSERT_GT(baseline.span_count, 0u);
  // The tree is a real session tree, not a degenerate stub.
  EXPECT_EQ(baseline.tree.find("session{"), 0u);
  EXPECT_NE(baseline.tree.find("trial{"), std::string::npos);
  EXPECT_NE(baseline.tree.find("commit"), std::string::npos);
  EXPECT_NE(baseline.tree.find("measure"), std::string::npos);
  const uint64_t records = RecordCount(path);
  std::remove(path.c_str());
  ASSERT_GE(records, 2u);

  for (uint64_t kill : {uint64_t{1}, records / 2, records - 1}) {
    if (kill == 0 || kill >= records) continue;
    SCOPED_TRACE(tuner_name + " killed after " + std::to_string(kill) + "/" +
                 std::to_string(records) + " records");
    std::remove(path.c_str());
    TracedRun interrupted = RunTraced(tuner_name, path, budget, kill,
                                      /*resume=*/false, parallelism);
    ASSERT_FALSE(interrupted.ok());
    EXPECT_EQ(interrupted.status.code(), StatusCode::kAborted);
    // The killed run's tree is a strict prefix in spirit, never larger.
    EXPECT_LT(interrupted.span_count, baseline.span_count);

    TracedRun resumed = RunTraced(tuner_name, path, budget, /*kill_after=*/0,
                                  /*resume=*/true, parallelism);
    ASSERT_TRUE(resumed.ok()) << resumed.status.message();
    // The metamorphic relation: bit-identical structural trees.
    EXPECT_EQ(baseline.tree, resumed.tree);
    EXPECT_EQ(baseline.span_count, resumed.span_count);
    // And bit-identical deterministic metrics.
    EXPECT_EQ(DeterministicMetrics(baseline.outcome.metrics),
              DeterministicMetrics(resumed.outcome.metrics));
    std::remove(path.c_str());
  }
}

TEST(TraceResumeTest, RandomSearchResumesWithIdenticalTrace) {
  RunMetamorphicCase("random-search", /*budget=*/8, /*parallelism=*/1);
}

TEST(TraceResumeTest, ITunedResumesWithIdenticalTrace) {
  // Budget 12 = LHS design 8 + GP iterations, so the tree contains gp_fit
  // and acquisition spans that must recur identically on resume (the tuner
  // re-runs them against replayed observations).
  const std::string path = JournalPath("ituned_probe");
  std::remove(path.c_str());
  TracedRun probe = RunTraced("ituned", path, /*budget=*/12, /*kill_after=*/0,
                              /*resume=*/false);
  ASSERT_TRUE(probe.ok()) << probe.status.message();
  EXPECT_NE(probe.tree.find("gp_fit{"), std::string::npos);
  EXPECT_NE(probe.tree.find("acquisition{"), std::string::npos);
  std::remove(path.c_str());
  RunMetamorphicCase("ituned", /*budget=*/12, /*parallelism=*/1);
}

TEST(TraceResumeTest, BatchedSessionResumesWithIdenticalTrace) {
  // parallelism 2 drives Evaluator::EvaluateBatch: batch spans with lane
  // coordinates, cross-thread measure spans, and mid-batch kill points
  // (recovery may drop a trailing incomplete batch — the tree must still
  // converge to the uninterrupted one).
  const std::string path = JournalPath("batch_probe");
  std::remove(path.c_str());
  TracedRun probe = RunTraced("random-search", path, /*budget=*/8,
                              /*kill_after=*/0, /*resume=*/false,
                              /*parallelism=*/2);
  ASSERT_TRUE(probe.ok()) << probe.status.message();
  EXPECT_NE(probe.tree.find("batch{size="), std::string::npos);
  std::remove(path.c_str());
  RunMetamorphicCase("random-search", /*budget=*/8, /*parallelism=*/2);
}

TEST(TraceResumeTest, ReplayedTreeContainsSynthesizedRepairSpans) {
  // With a 20% transient fault rate and budget 8 the baseline virtually
  // always retries at least once; the resumed tree must contain the same
  // retry spans, synthesized from journal counter deltas rather than
  // re-executed. (If this draw ever changes, the structural equality in
  // RunMetamorphicCase still covers the guarantee; this test just pins the
  // interesting case visibly.)
  const std::string path = JournalPath("repair");
  std::remove(path.c_str());
  TracedRun baseline = RunTraced("grid-search", path, /*budget=*/10,
                                 /*kill_after=*/0, /*resume=*/false);
  ASSERT_TRUE(baseline.ok()) << baseline.status.message();
  if (baseline.outcome.retried_runs == 0) {
    GTEST_SKIP() << "fault draw produced no retries";
  }
  ASSERT_NE(baseline.tree.find("retry"), std::string::npos);
  const uint64_t records = RecordCount(path);
  ASSERT_GE(records, 2u);
  std::remove(path.c_str());
  TracedRun interrupted = RunTraced("grid-search", path, /*budget=*/10,
                                    /*kill_after=*/records - 1,
                                    /*resume=*/false);
  ASSERT_FALSE(interrupted.ok());
  TracedRun resumed = RunTraced("grid-search", path, /*budget=*/10,
                                /*kill_after=*/0, /*resume=*/true);
  ASSERT_TRUE(resumed.ok()) << resumed.status.message();
  EXPECT_EQ(baseline.tree, resumed.tree);
  EXPECT_EQ(baseline.outcome.retried_runs, resumed.outcome.retried_runs);
  std::remove(path.c_str());
}

TEST(TraceResumeTest, SupervisedHealthySessionResumesWithIdenticalTrace) {
  // The supervision layer's guard hooks run on both the live and the replay
  // path; on a healthy tuner they must not perturb the span tree at all.
  RunMetamorphicCase("supervised:random-search", /*budget=*/8,
                     /*parallelism=*/1);
}

TEST(TraceResumeTest, SupervisedFailoverResumesWithIdenticalTrace) {
  // The unstable primary collapses every 3 trials, so the session contains
  // several failover episodes and the kill-point matrix {1, n/2, n-1} kills
  // it mid-cooldown (while the fallback holds the lease). Replay must
  // reconstruct the same failover decisions — they are a pure function of
  // the journaled observations — and re-emit an identical tree, failover
  // spans included.
  const std::string path = JournalPath("supervised_failing_probe");
  std::remove(path.c_str());
  TracedRun probe = RunTraced("supervised:failing", path, /*budget=*/10,
                              /*kill_after=*/0, /*resume=*/false);
  ASSERT_TRUE(probe.ok()) << probe.status.message();
  EXPECT_NE(probe.tree.find("failover{"), std::string::npos);
  std::remove(path.c_str());
  RunMetamorphicCase("supervised:failing", /*budget=*/10, /*parallelism=*/1);
}

TEST(TraceResumeTest, WarmStartedSessionResumesWithIdenticalTrace) {
  // The --warm-start kill matrix: the warm phase's probe and seed trials
  // are ordinary journaled evaluations, and the mapping is a pure function
  // of (snapshot, probe metrics), so killing the session during or after
  // the warm phase and resuming against the same pinned snapshot must
  // re-derive the identical warm schedule — and an identical span tree.
  ASSERT_GE(WarmSnapshot().size(), 2u);
  RunMetamorphicCase("warm:random-search", /*budget=*/10, /*parallelism=*/1);
}

TEST(TraceResumeTest, SupervisedBatchedSessionResumesWithIdenticalTrace) {
  // Supervision over the batched evaluation path: admission happens for the
  // whole submitted batch before truncation, so mid-batch kills must still
  // converge to the uninterrupted tree.
  RunMetamorphicCase("supervised:random-search", /*budget=*/8,
                     /*parallelism=*/2);
}

}  // namespace
}  // namespace atune
