#include <gtest/gtest.h>

#include <cstdio>

#include "tests/testing_util.h"
#include "tuners/ml_tuners/ottertune.h"

namespace atune {
namespace {

using testing_util::MakeTestDbms;

class RepositoryIoTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = testing_util::TestTempPath("repo.txt");
};

TEST_F(RepositoryIoTest, SaveLoadRoundTrip) {
  auto dbms = MakeTestDbms();
  OtterTuneRepository original = BuildOtterTuneRepository(
      dbms.get(), DefaultHistoryWorkloads("simulated-dbms", "olap"), 5, 42);
  ASSERT_FALSE(original.sessions.empty());

  ASSERT_TRUE(SaveOtterTuneRepository(original, path_).ok());
  auto loaded = LoadOtterTuneRepository(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->metric_names, original.metric_names);
  ASSERT_EQ(loaded->sessions.size(), original.sessions.size());
  EXPECT_EQ(loaded->TotalObservations(), original.TotalObservations());
  for (size_t s = 0; s < original.sessions.size(); ++s) {
    const auto& a = original.sessions[s];
    const auto& b = loaded->sessions[s];
    EXPECT_EQ(a.workload_name, b.workload_name);
    ASSERT_EQ(a.configs.size(), b.configs.size());
    for (size_t i = 0; i < a.configs.size(); ++i) {
      for (size_t d = 0; d < a.configs[i].size(); ++d) {
        EXPECT_DOUBLE_EQ(a.configs[i][d], b.configs[i][d]);
      }
      for (size_t m = 0; m < a.metrics[i].size(); ++m) {
        EXPECT_DOUBLE_EQ(a.metrics[i][m], b.metrics[i][m]);
      }
      EXPECT_DOUBLE_EQ(a.objectives[i], b.objectives[i]);
    }
  }
}

TEST_F(RepositoryIoTest, LoadedRepositoryDrivesTuning) {
  auto dbms = MakeTestDbms();
  Workload target = MakeDbmsOlapWorkload(0.25);
  OtterTuneRepository repo = BuildOtterTuneRepository(
      dbms.get(), DefaultHistoryWorkloads("simulated-dbms", target.kind), 8,
      7);
  ASSERT_TRUE(SaveOtterTuneRepository(repo, path_).ok());
  auto loaded = LoadOtterTuneRepository(path_);
  ASSERT_TRUE(loaded.ok());

  OtterTuneTuner tuner(std::move(*loaded), 3, 6);
  Evaluator evaluator(dbms.get(), target, TuningBudget{8});
  Rng rng(9);
  ASSERT_TRUE(tuner.Tune(&evaluator, &rng).ok());
  EXPECT_LT(evaluator.best()->objective,
            evaluator.history().front().objective);
}

TEST_F(RepositoryIoTest, RejectsMissingAndCorruptFiles) {
  EXPECT_EQ(LoadOtterTuneRepository("/nonexistent/repo.txt").status().code(),
            StatusCode::kNotFound);
  {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a repository at all\n", f);
    std::fclose(f);
  }
  EXPECT_EQ(LoadOtterTuneRepository(path_).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace atune
