// AdaptiveRetuneTuner (DESIGN.md §15) contracts:
//
//   * on a phase shift mid-serve the degradation ladder engages: the
//     detector fires, stale surrogate observations are evicted, and a
//     stage-1 re-probe runs — all within the session budget
//   * a drift storm cannot leak budget: stage-2 re-tunes are capped by
//     max_retunes, further firings degrade to the free recent-best
//     recovery, and the session never spends past its budget
//   * kill/resume is bit-identical under drift: the detector and every
//     staging decision are pure functions of the committed trial sequence,
//     so a resumed session recomputes identical detection rounds
//   * composes under SupervisedTuner and over any registry tuner
//     (warm-start included) like a plain tuner

#include "tuners/adaptive_retune.h"

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/journal.h"
#include "core/registry.h"
#include "core/session.h"
#include "core/supervisor.h"
#include "systems/drifting_workload.h"
#include "tests/testing_util.h"
#include "tuners/builtin.h"

namespace atune {
namespace {

constexpr uint64_t kSeed = 17;

std::string JournalPath(const std::string& name) {
  return testing_util::TestTempPath("adaptive_" + name + ".wal");
}

TunerFactory RandomSearchFactory() {
  return []() -> std::unique_ptr<Tuner> {
    TunerRegistry registry;
    RegisterBuiltinTuners(&registry);
    auto tuner = registry.Create("random-search");
    return tuner.ok() ? std::move(*tuner) : nullptr;
  };
}

struct AdaptiveRun {
  Status status = Status::OK();
  TuningOutcome outcome;
  AdaptiveRetuneStats stats;
  bool ok() const { return status.ok(); }
};

AdaptiveRun RunAdaptive(const DriftSchedule& schedule, size_t budget,
                        AdaptiveRetuneOptions options,
                        const std::string& journal = "",
                        uint64_t kill_after = 0, bool resume = false) {
  AdaptiveRun run;
  AdaptiveRetuneTuner tuner(RandomSearchFactory(), "random-search", options);
  auto dbms = testing_util::MakeTestDbms(kSeed, /*noise=*/true);
  DriftingWorkload drifting(dbms.get(), schedule);
  SessionOptions session;
  session.budget = TuningBudget{budget};
  session.seed = kSeed;
  session.measure_default = false;
  session.journal_path = journal;
  session.interrupt_after_records = kill_after;
  const Workload workload = MakeDbmsOlapWorkload(1.0);
  auto outcome = resume
                     ? ResumeTuningSession(&tuner, &drifting, workload, session)
                     : RunTuningSession(&tuner, &drifting, workload, session);
  run.stats = tuner.stats();
  if (!outcome.ok()) {
    run.status = outcome.status();
    return run;
  }
  run.outcome = std::move(*outcome);
  return run;
}

void ExpectOutcomeEq(const TuningOutcome& want, const TuningOutcome& got,
                     const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(want.history.size(), got.history.size());
  for (size_t i = 0; i < want.history.size(); ++i) {
    SCOPED_TRACE("trial " + std::to_string(i));
    EXPECT_TRUE(want.history[i].config == got.history[i].config);
    EXPECT_EQ(want.history[i].objective, got.history[i].objective);
    EXPECT_EQ(want.history[i].result.metrics, got.history[i].result.metrics);
  }
  EXPECT_TRUE(want.best_config == got.best_config);
  EXPECT_EQ(want.best_objective, got.best_objective);
  EXPECT_EQ(want.evaluations_used, got.evaluations_used);
}

TEST(AdaptiveRetuneTest, PhaseShiftEngagesTheDegradationLadder) {
  // Shift lands inside the serve phase (explore leases ~half of 30).
  AdaptiveRun run = RunAdaptive(DriftSchedule::PhaseShift(18, 1.6), 30,
                                AdaptiveRetuneOptions());
  ASSERT_TRUE(run.ok()) << run.status.message();
  EXPECT_GE(run.stats.detections, 1u);
  EXPECT_GE(run.stats.reprobes, 1u);          // stage 1 ran...
  EXPECT_GT(run.stats.evicted_observations, 0u);  // ...and evicted history
  EXPECT_LE(run.outcome.evaluations_used, 30u);
}

TEST(AdaptiveRetuneTest, StationaryWorkloadNeverFires) {
  AdaptiveRun run = RunAdaptive(DriftSchedule(), 30, AdaptiveRetuneOptions());
  ASSERT_TRUE(run.ok()) << run.status.message();
  EXPECT_EQ(run.stats.detections, 0u);
  EXPECT_EQ(run.stats.reprobes, 0u);
  EXPECT_EQ(run.stats.retunes, 0u);
}

TEST(AdaptiveRetuneTest, DriftStormCannotLeakBudget) {
  // A relentless ramp keeps degrading: re-probes can never recover (the
  // regime only worsens), so every second firing asks for a full re-tune.
  // With the cap at zero those requests must all degrade to the free
  // recent-best recovery and the session must never spend past its budget.
  DriftSchedule storm = DriftSchedule::Ramp(8.0, 50);
  AdaptiveRetuneOptions options;
  options.max_retunes = 0;
  options.detector.threshold = 0.15;
  options.detector.min_samples = 3;
  const size_t kBudget = 60;
  AdaptiveRun run = RunAdaptive(storm, kBudget, options);
  ASSERT_TRUE(run.ok()) << run.status.message();
  EXPECT_GE(run.stats.detections, 3u);          // the storm kept firing
  EXPECT_EQ(run.stats.retunes, 0u);             // the cap held
  EXPECT_GE(run.stats.retunes_suppressed, 1u);  // capped firings were free
  EXPECT_LE(run.outcome.evaluations_used, kBudget);
}

// The replay-determinism gate: kill a journaled adaptive session under
// drift after 1, n/2, n-1 records; the resume must reconstruct the same
// trial history AND the same detection rounds — the detector state is
// re-derived from the replayed commits, not journaled.
TEST(AdaptiveRetuneTest, KillResumeBitIdenticalIncludingDetections) {
  const DriftSchedule schedule = DriftSchedule::PhaseShift(18, 1.6);
  AdaptiveRetuneOptions options;
  const size_t kBudget = 30;
  const std::string path = JournalPath("resume");
  std::remove(path.c_str());

  AdaptiveRun baseline = RunAdaptive(schedule, kBudget, options, path);
  ASSERT_TRUE(baseline.ok()) << baseline.status.message();
  ASSERT_GE(baseline.stats.detections, 1u);  // drift actually happened

  auto recovered = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(recovered.ok());
  const uint64_t records = recovered->records.size();
  ASSERT_GE(records, 2u);
  std::remove(path.c_str());

  std::set<uint64_t> kill_points = {1, records / 2, records - 1};
  for (uint64_t kill : kill_points) {
    if (kill == 0 || kill >= records) continue;
    SCOPED_TRACE("killed after " + std::to_string(kill) + "/" +
                 std::to_string(records));
    std::remove(path.c_str());
    AdaptiveRun interrupted =
        RunAdaptive(schedule, kBudget, options, path, kill);
    ASSERT_FALSE(interrupted.ok());
    EXPECT_EQ(interrupted.status.code(), StatusCode::kAborted);

    AdaptiveRun resumed = RunAdaptive(schedule, kBudget, options, path,
                                      /*kill_after=*/0, /*resume=*/true);
    ASSERT_TRUE(resumed.ok()) << resumed.status.message();
    ExpectOutcomeEq(baseline.outcome, resumed.outcome, "resume");
    // Live == replay, decision for decision.
    EXPECT_EQ(resumed.stats.detections, baseline.stats.detections);
    EXPECT_EQ(resumed.stats.reprobes, baseline.stats.reprobes);
    EXPECT_EQ(resumed.stats.retunes, baseline.stats.retunes);
    EXPECT_EQ(resumed.stats.evicted_observations,
              baseline.stats.evicted_observations);
    EXPECT_EQ(resumed.stats.incumbent_switches,
              baseline.stats.incumbent_switches);
    std::remove(path.c_str());
  }
}

TEST(AdaptiveRetuneTest, ComposesUnderSupervisorAndOverRegistryTuners) {
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);

  // supervise(adaptive(random-search)): the serve loop's jittered probes
  // must not trip the duplicate-livelock guard.
  auto adaptive = MakeAdaptiveRetuneTuner(registry, "random-search");
  ASSERT_TRUE(adaptive.ok());
  SupervisedTuner supervised(std::move(*adaptive));
  auto dbms = testing_util::MakeTestDbms(kSeed, /*noise=*/true);
  DriftingWorkload drifting(dbms.get(), DriftSchedule::PhaseShift(18, 1.6));
  SessionOptions session;
  session.budget = TuningBudget{30};
  session.seed = kSeed;
  session.measure_default = false;
  auto outcome = RunTuningSession(&supervised, &drifting,
                                  MakeDbmsOlapWorkload(1.0), session);
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_LE(outcome->evaluations_used, 30u);

  // adaptive over a GP tuner from the registry, for the category contract.
  auto over_gp = MakeAdaptiveRetuneTuner(registry, "ituned");
  ASSERT_TRUE(over_gp.ok());
  EXPECT_EQ((*over_gp)->name(), "adaptive-retune:ituned");
  EXPECT_EQ((*over_gp)->category(), TunerCategory::kAdaptive);
}

TEST(AdaptiveRetuneTest, RegistryFactoryValidatesTheInnerName) {
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  auto missing = MakeAdaptiveRetuneTuner(registry, "no-such-tuner");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace atune
