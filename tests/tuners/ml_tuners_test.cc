#include <gtest/gtest.h>

#include "core/outcome_checksum.h"
#include "tests/core/mock_system.h"
#include "tests/testing_util.h"
#include "tuners/ml_tuners/ernest.h"
#include "tuners/ml_tuners/grey_box.h"
#include "tuners/ml_tuners/ottertune.h"
#include "tuners/ml_tuners/rodd_nn.h"

namespace atune {
namespace {

using testing_util::MakeTestDbms;
using testing_util::MakeTestSpark;
using testing_util::MockWorkload;
using testing_util::QuadraticSystem;

TEST(OtterTuneRepositoryTest, BuildCollectsObservations) {
  auto dbms = MakeTestDbms();
  auto workloads = DefaultHistoryWorkloads("simulated-dbms", "olap");
  ASSERT_FALSE(workloads.empty());
  for (const Workload& w : workloads) EXPECT_NE(w.kind, "olap");
  OtterTuneRepository repo =
      BuildOtterTuneRepository(dbms.get(), workloads, 6, 42);
  EXPECT_EQ(repo.sessions.size(), workloads.size());
  EXPECT_GE(repo.TotalObservations(), workloads.size() * 6);
  EXPECT_EQ(repo.metric_names, dbms->MetricNames());
  for (const auto& session : repo.sessions) {
    ASSERT_FALSE(session.configs.empty());
    EXPECT_EQ(session.configs.size(), session.metrics.size());
    EXPECT_EQ(session.configs.size(), session.objectives.size());
  }
}

TEST(OtterTuneTest, TunesDbmsUsingHistory) {
  auto dbms = MakeTestDbms();
  Workload target = MakeDbmsOlapWorkload(0.5);
  OtterTuneRepository repo = BuildOtterTuneRepository(
      dbms.get(), DefaultHistoryWorkloads("simulated-dbms", target.kind), 12,
      7);
  OtterTuneTuner tuner(std::move(repo), /*target_observations=*/4,
                       /*top_knobs=*/6);
  Evaluator evaluator(dbms.get(), target, TuningBudget{15});
  Rng rng(11);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  double default_obj = evaluator.history().front().objective;
  EXPECT_LT(evaluator.best()->objective, default_obj);
  EXPECT_EQ(tuner.knob_ranking().size(), dbms->space().dims());
  EXPECT_NE(tuner.Report().find("mapped to"), std::string::npos);
  EXPECT_LE(evaluator.used(), 15.0);
}

TEST(OtterTuneTest, SerialSessionMatchesPinnedHistory) {
  // Pinned from the pool-less serial loop (5 GP recommendations after the
  // default and 4 LHS probes): the pooled hyper search and 1500-candidate
  // scan must reproduce it bit for bit.
  auto dbms = MakeTestDbms(4, /*noise=*/true);
  Workload target = MakeDbmsOlapWorkload(0.5);
  OtterTuneRepository repo = BuildOtterTuneRepository(
      dbms.get(), DefaultHistoryWorkloads("simulated-dbms", target.kind), 10,
      13);
  OtterTuneTuner tuner(std::move(repo), /*target_observations=*/4,
                       /*top_knobs=*/6);
  Evaluator evaluator(dbms.get(), target, TuningBudget{10});
  Rng rng(31);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  EXPECT_EQ(HistoryChecksum(evaluator.history()), 0x1be829ab3db35117ULL);
}

TEST(OtterTuneTest, SerialFallbackAfterNanMatchesPinnedHistory) {
  // The 6th observation, the first GP recommendation's, is NaN, so every
  // later hyper search fails and the loop perturbs the incumbent at random,
  // twice, before escalating — each time after the search already drew its
  // acquisition candidates — and the escalation must leave the rng where
  // that loop left it, since a supervisor hands it on to the fallback
  // tuner. Pinned from the loop that generated candidates only after a
  // successful fit.
  auto history_dbms = MakeTestDbms(4, /*noise=*/true);
  Workload target = MakeDbmsOlapWorkload(0.5);
  OtterTuneRepository repo = BuildOtterTuneRepository(
      history_dbms.get(),
      DefaultHistoryWorkloads("simulated-dbms", target.kind), 10, 13);
  auto dbms = MakeTestDbms(4, /*noise=*/true);
  testing_util::NanAfterSystem system(dbms.get(), /*healthy_runs=*/5);
  OtterTuneTuner tuner(std::move(repo), /*target_observations=*/4,
                       /*top_knobs=*/6);
  Evaluator evaluator(&system, target, TuningBudget{12});
  Rng rng(31);
  Status status = tuner.Tune(&evaluator, &rng);
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
  ASSERT_EQ(evaluator.history().size(), 8u);
  EXPECT_EQ(HistoryChecksum(evaluator.history()), 0xc578c68bf0f8b488ULL);
  EXPECT_EQ(rng.Uniform(), 0x1.372cf4e425305p-1);
}

TEST(OtterTuneTest, BuildsDefaultRepositoryWhenEmpty) {
  auto dbms = MakeTestDbms();
  OtterTuneTuner tuner;  // empty repository
  Evaluator evaluator(dbms.get(), MakeDbmsOltpWorkload(0.25), TuningBudget{8});
  Rng rng(12);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  EXPECT_NE(evaluator.best(), nullptr);
}

TEST(RoddNnTest, LearnsQuadraticBowl) {
  QuadraticSystem system;
  MlpOptions mlp;
  mlp.epochs = 250;
  mlp.hidden_layers = {12, 12};
  RoddNnTuner tuner(mlp);
  Evaluator evaluator(&system, MockWorkload(), TuningBudget{25});
  Rng rng(13);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  EXPECT_LT(evaluator.best()->objective,
            evaluator.history().front().objective);
  EXPECT_LT(evaluator.best()->objective, 14.0);
  EXPECT_NE(tuner.Report().find("training samples"), std::string::npos);
}

TEST(ErnestTest, SizesSparkExecutors) {
  auto spark = MakeTestSpark();
  Workload w = MakeSparkSqlAggregateWorkload(8.0, 6.0);
  ErnestTuner tuner(/*sample_fraction=*/0.125, /*training_points=*/5);
  Evaluator evaluator(spark.get(), w, TuningBudget{8});
  Rng rng(14);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  ASSERT_NE(evaluator.best(), nullptr);
  // Training runs must be scaled samples, cheaper than full runs.
  size_t scaled = 0;
  for (const Trial& t : evaluator.history()) scaled += t.scaled ? 1 : 0;
  EXPECT_GE(scaled, 4u);
  EXPECT_LE(evaluator.used(), 8.0);
  // The 2-executor default underuses a 32-core cluster; Ernest must pick
  // more parallelism and beat it.
  EXPECT_GT(evaluator.best()->config.IntOr("num_executors", 0), 2);
  EXPECT_NE(tuner.Report().find("fit time(m)"), std::string::npos);
  // The report also validates the default at full scale, so best <= default.
  double default_obj = -1.0;
  for (const Trial& t : evaluator.history()) {
    if (!t.scaled && t.config.IntOr("num_executors", 0) == 2) {
      default_obj = t.objective;
    }
  }
  if (default_obj > 0.0) {
    EXPECT_LE(evaluator.best()->objective, default_obj);
  }
}

TEST(ErnestTest, WorksOnDbmsParallelism) {
  auto dbms = MakeTestDbms();
  Workload w = MakeDbmsOlapWorkload(0.5, /*clients=*/1.0);
  ErnestTuner tuner;
  Evaluator evaluator(dbms.get(), w, TuningBudget{8});
  Rng rng(15);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  EXPECT_NE(evaluator.best(), nullptr);
}

TEST(GreyBoxTest, CorrectsModelAndImproves) {
  auto dbms = MakeTestDbms();
  Workload w = MakeDbmsOlapWorkload(0.5);
  GreyBoxTuner tuner(/*initial_samples=*/5, /*search_size=*/1200);
  Evaluator evaluator(dbms.get(), w, TuningBudget{15});
  Rng rng(17);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  double default_obj = evaluator.history().front().objective;
  EXPECT_LT(evaluator.best()->objective, default_obj);
  EXPECT_LE(evaluator.used(), 15.0);
  EXPECT_NE(tuner.Report().find("grey-box"), std::string::npos);
}

TEST(GreyBoxTest, WorksOnMapReduceAndSpark) {
  Rng rng(18);
  {
    auto mr = testing_util::MakeTestMapReduce();
    GreyBoxTuner tuner(4, 800);
    Evaluator evaluator(mr.get(), MakeMrTeraSortWorkload(5.0),
                        TuningBudget{10});
    ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
    EXPECT_LT(evaluator.best()->objective,
              evaluator.history().front().objective);
  }
  {
    auto spark = MakeTestSpark();
    GreyBoxTuner tuner(4, 800);
    Evaluator evaluator(spark.get(), MakeSparkSqlAggregateWorkload(4.0, 4.0),
                        TuningBudget{10});
    ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
    EXPECT_NE(evaluator.best(), nullptr);
  }
}

TEST(ErnestTest, TinyBudgetFallsBackGracefully) {
  auto spark = MakeTestSpark();
  ErnestTuner tuner(0.5, 5);  // samples cost 0.5/1.0 each
  Evaluator evaluator(spark.get(), MakeSparkSqlAggregateWorkload(4.0, 2.0),
                      TuningBudget{1});
  Rng rng(16);
  EXPECT_TRUE(tuner.Tune(&evaluator, &rng).ok());
}

}  // namespace
}  // namespace atune
