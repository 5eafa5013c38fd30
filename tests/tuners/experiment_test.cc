#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "core/outcome_checksum.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "tests/core/mock_system.h"
#include "tests/testing_util.h"
#include "tuners/builtin.h"
#include "tuners/experiment/adaptive_sampling.h"
#include "tuners/experiment/ituned.h"
#include "tuners/experiment/sard.h"
#include "tuners/experiment/search_baselines.h"

namespace atune {
namespace {

using testing_util::MakeTestDbms;
using testing_util::MockWorkload;
using testing_util::QuadraticSystem;

// A mock with one dominant knob, one weak knob, two dead knobs — for
// screening/ranking tests.
class RankedEffectSystem : public TunableSystem {
 public:
  RankedEffectSystem() {
    Status s = space_.Add(ParameterDef::Double("dominant", 0.0, 1.0, 0.5));
    s = space_.Add(ParameterDef::Double("weak", 0.0, 1.0, 0.5));
    s = space_.Add(ParameterDef::Double("dead1", 0.0, 1.0, 0.5));
    s = space_.Add(ParameterDef::Double("dead2", 0.0, 1.0, 0.5));
    (void)s;
  }
  std::string name() const override { return "ranked-effects"; }
  const ParameterSpace& space() const override { return space_; }
  Result<ExecutionResult> Execute(const Configuration& config,
                                  const Workload&) override {
    ExecutionResult r;
    r.runtime_seconds = 100.0 - 50.0 * config.DoubleOr("dominant", 0.5) -
                        5.0 * config.DoubleOr("weak", 0.5);
    return r;
  }

 private:
  ParameterSpace space_;
};

TEST(RandomSearchTest, NeverWorseThanDefaultAndSpendsBudget) {
  QuadraticSystem system;
  RandomSearchTuner tuner;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{20});
  Rng rng(1);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  EXPECT_DOUBLE_EQ(evaluator.used(), 20.0);
  EXPECT_LE(evaluator.best()->objective,
            evaluator.history().front().objective);
}

TEST(GridSearchTest, SnapsToLatticeLevels) {
  QuadraticSystem system;
  GridSearchTuner tuner(/*levels=*/3);
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{15});
  Rng rng(2);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  for (const Trial& trial : evaluator.history()) {
    double x = trial.config.DoubleOr("x", -1.0);
    EXPECT_TRUE(std::abs(x) < 1e-9 || std::abs(x - 0.5) < 1e-9 ||
                std::abs(x - 1.0) < 1e-9)
        << x;
  }
}

TEST(RecursiveRandomTest, ConvergesTowardOptimum) {
  QuadraticSystem system;
  RecursiveRandomSearchTuner tuner;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{40});
  Rng rng(3);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  // Optimum is 10.0; RRS with 40 probes should land close.
  EXPECT_LT(evaluator.best()->objective, 11.5);
  EXPECT_NE(tuner.Report().find("shrink"), std::string::npos);
}

TEST(SardTest, RanksEffectsCorrectly) {
  RankedEffectSystem system;
  SardTuner tuner;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{30});
  Rng rng(4);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  ASSERT_EQ(tuner.ranking().size(), 4u);
  EXPECT_EQ(tuner.ranking()[0], "dominant");
  EXPECT_EQ(tuner.ranking()[1], "weak");
  // Effects have the right sign: raising "dominant" lowers runtime.
  auto idx = system.space().IndexOf("dominant");
  EXPECT_LT(tuner.effects()[*idx], 0.0);
}

TEST(SardTest, RefinementImprovesOnScreening) {
  RankedEffectSystem system;
  SardTuner tuner;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{25});
  Rng rng(5);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  // Best possible is 100-50-5 = 45 at (1,1); screening high level is 0.85.
  EXPECT_LT(evaluator.best()->objective, 52.0);
}

TEST(SardTest, TinyBudgetDegradesGracefully) {
  RankedEffectSystem system;
  SardTuner tuner;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{3});
  Rng rng(6);
  EXPECT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  EXPECT_LE(evaluator.used(), 3.0);
}

TEST(AdaptiveSamplingTest, ImprovesOverDefault) {
  QuadraticSystem system;
  AdaptiveSamplingTuner tuner;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{25});
  Rng rng(7);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  EXPECT_LT(evaluator.best()->objective,
            evaluator.history().front().objective);
  EXPECT_LT(evaluator.best()->objective, 13.0);
  EXPECT_NE(tuner.Report().find("exploit"), std::string::npos);
}

TEST(ITunedTest, FindsNearOptimumOnQuadratic) {
  QuadraticSystem system;
  ITunedTuner tuner;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{25});
  Rng rng(8);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  // GP+EI should land within ~10% of the optimum (10.0) in 25 runs.
  EXPECT_LT(evaluator.best()->objective, 11.0);
  EXPECT_NE(tuner.Report().find("GP/ei"), std::string::npos);
}

TEST(ITunedTest, BeatsRandomSearchOnAverage) {
  double ituned_sum = 0.0, random_sum = 0.0;
  const int reps = 5;
  for (int rep = 0; rep < reps; ++rep) {
    {
      QuadraticSystem system;
      ITunedTuner tuner;
      Evaluator evaluator(&system, MockWorkload(), TuningBudget{18});
      Rng rng(100 + rep);
      ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
      ituned_sum += evaluator.best()->objective;
    }
    {
      QuadraticSystem system;
      RandomSearchTuner tuner;
      Evaluator evaluator(&system, MockWorkload(), TuningBudget{18});
      Rng rng(100 + rep);
      ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
      random_sum += evaluator.best()->objective;
    }
  }
  EXPECT_LE(ituned_sum, random_sum);
}

TEST(ITunedTest, AlternativeAcquisitions) {
  for (const char* acq : {"pi", "lcb"}) {
    QuadraticSystem system;
    ITunedOptions options;
    options.acquisition = acq;
    ITunedTuner tuner(options);
    Evaluator evaluator(&system, MockWorkload(), TuningBudget{18});
    Rng rng(9);
    ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok()) << acq;
    EXPECT_LT(evaluator.best()->objective, 14.0) << acq;
  }
}

TEST(ITunedTest, EarlyAbortStretchesTheBudget) {
  // With early abort, bad experiments cost a fraction of a run, so the
  // tuner fits more experiments into the same budget.
  size_t with_abort_trials = 0, without_trials = 0;
  {
    QuadraticSystem system;
    ITunedOptions options;
    options.early_abort_factor = 1.5;
    ITunedTuner tuner(options);
    Evaluator evaluator(&system, MockWorkload(), TuningBudget{15});
    Rng rng(77);
    ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
    with_abort_trials = evaluator.history().size();
    EXPECT_LE(evaluator.used(), 15.0 + 1e-9);
    EXPECT_LT(evaluator.best()->objective, 12.0);
  }
  {
    QuadraticSystem system;
    ITunedTuner tuner;
    Evaluator evaluator(&system, MockWorkload(), TuningBudget{15});
    Rng rng(77);
    ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
    without_trials = evaluator.history().size();
  }
  EXPECT_GE(with_abort_trials, without_trials);
}

TEST(ITunedTest, RealDbmsWorkloadEndToEnd) {
  auto dbms = MakeTestDbms();
  Workload w = MakeDbmsOlapWorkload(0.5);
  ITunedTuner tuner;
  Evaluator evaluator(dbms.get(), w, TuningBudget{20});
  Rng rng(10);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  double default_obj = evaluator.history().front().objective;
  EXPECT_LT(evaluator.best()->objective, default_obj / 2.0);
}

// Serial iTuned at budget 14 on the test DBMS: the default, 8 LHS points
// and 5 GP iterations, so the BO loop (and, on a multi-core host, the
// session's think pool) runs.
Result<TuningOutcome> RunSerialITunedSession(MetricsRegistry* metrics) {
  auto dbms = MakeTestDbms(3, /*noise=*/true);
  ITunedTuner tuner;
  SessionOptions options;
  options.budget.max_evaluations = 14;
  options.seed = 29;
  options.metrics = metrics;
  return RunTuningSession(&tuner, dbms.get(), testing_util::SmallOlap(),
                          options);
}

// Think-pool workers a GP session starts on this host (0: inline search).
uint64_t ExpectedThinkThreads() {
  size_t hw = std::thread::hardware_concurrency();
  return hw > 1 ? std::min<size_t>(hw, 4) - 1 : 0;
}

TEST(ITunedTest, SerialSessionMatchesPinnedChecksum) {
  // Pinned from the pool-less serial loop: running the hyper search and
  // the acquisition scan on the think pool must not move a single bit.
  MetricsRegistry metrics;
  auto outcome = RunSerialITunedSession(&metrics);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(OutcomeChecksum(*outcome), 0xab1b08b1d92f7767ULL);
  EXPECT_EQ(metrics.GetCounter("pool.think_host_threads")->Value(),
            ExpectedThinkThreads());
}

TEST(ITunedTest, ForkedChildReproducesSession) {
  // The think pool belongs to the session, so it is joined before a
  // fork(): a child rerunning the session must start its own workers and
  // finish, not wait on workers that exist only in the parent. The alarm
  // turns such a hang into a SIGALRM death.
  auto parent = RunSerialITunedSession(nullptr);
  ASSERT_TRUE(parent.ok()) << parent.status().ToString();
  const uint64_t expected = OutcomeChecksum(*parent);
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::alarm(60);
    auto child = RunSerialITunedSession(nullptr);
    ::_exit(child.ok() && OutcomeChecksum(*child) == expected ? 0 : 1);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus))
      << "child killed by signal " << WTERMSIG(wstatus);
  EXPECT_EQ(WEXITSTATUS(wstatus), 0) << "child session diverged";
}

TEST(ITunedTest, SerialFallbackAfterNanMatchesPinnedHistory) {
  // The 10th observation, the first GP iteration's, is NaN, so every later
  // hyper search fails and the loop falls back to a random draw, twice,
  // before escalating. Each failed search has already drawn its
  // acquisition candidates; the fallback must draw exactly what the loop
  // drew before candidates were generated during the search, and the
  // escalation must leave the rng where that loop left it, since a
  // supervisor hands it on to the fallback tuner. Pinned from the loop that
  // generated candidates only after a successful fit.
  QuadraticSystem inner;
  testing_util::NanAfterSystem system(&inner, /*healthy_runs=*/9);
  ITunedTuner tuner;
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{20});
  Rng rng(41);
  Status status = tuner.Tune(&evaluator, &rng);
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
  ASSERT_EQ(evaluator.history().size(), 12u);
  EXPECT_EQ(HistoryChecksum(evaluator.history()), 0x2c9831342f297ba4ULL);
  EXPECT_EQ(rng.Uniform(), 0x1.14256f9f2c997p-1);
}

TEST(ThinkPoolTest, CheapTunersStartNoThinkThreads) {
  // The think pool is created where a GP fit starts and nowhere else: the
  // cheap tuners, serial or batched, leave the counter untouched.
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  for (const char* name :
       {"random-search", "grid-search", "recursive-random", "sard"}) {
    for (size_t parallelism : {1, 4}) {
      auto tuner = registry.Create(name);
      ASSERT_TRUE(tuner.ok()) << name;
      (*tuner)->set_parallelism(parallelism);
      auto dbms = MakeTestDbms(5);
      MetricsRegistry metrics;
      SessionOptions options;
      options.budget.max_evaluations = 20;
      options.metrics = &metrics;
      auto outcome = RunTuningSession(tuner->get(), dbms.get(),
                                      testing_util::SmallOlap(), options);
      ASSERT_TRUE(outcome.ok()) << name << ": " << outcome.status().ToString();
      EXPECT_EQ(metrics.GetCounter("pool.think_host_threads")->Value(), 0u)
          << name << " parallelism " << parallelism;
    }
  }
}

}  // namespace
}  // namespace atune
