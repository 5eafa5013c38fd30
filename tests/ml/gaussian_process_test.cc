#include "ml/gaussian_process.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>

namespace atune {
namespace {

std::vector<Vec> Grid1d(size_t n) {
  std::vector<Vec> xs;
  for (size_t i = 0; i < n; ++i) {
    xs.push_back({static_cast<double>(i) / static_cast<double>(n - 1)});
  }
  return xs;
}

// Property: with low noise, the posterior interpolates training targets and
// is far more certain there than away from data — for both kernels.
class GpInterpolationTest : public ::testing::TestWithParam<KernelType> {};

TEST_P(GpInterpolationTest, PosteriorInterpolatesTrainingPoints) {
  std::vector<Vec> xs = {{0.1}, {0.35}, {0.6}, {0.9}};
  Vec ys = {1.0, -0.5, 0.25, 2.0};
  GpHyperParams params;
  params.kernel = GetParam();
  params.lengthscales = {0.2};
  params.noise_variance = 1e-8;
  GaussianProcess gp(params);
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  for (size_t i = 0; i < xs.size(); ++i) {
    GpPrediction p = gp.Predict(xs[i]);
    EXPECT_NEAR(p.mean, ys[i], 1e-3);
    EXPECT_LT(p.variance, 1e-4);
  }
  GpPrediction far = gp.Predict({0.225});
  GpPrediction at = gp.Predict({0.1});
  EXPECT_GT(far.variance, at.variance * 10.0);
}

INSTANTIATE_TEST_SUITE_P(Kernels, GpInterpolationTest,
                         ::testing::Values(KernelType::kSquaredExponential,
                                           KernelType::kMatern52));

TEST(GpTest, RevertsToPriorMeanFarFromData) {
  std::vector<Vec> xs = {{0.5}};
  Vec ys = {3.0};
  GpHyperParams params;
  params.lengthscales = {0.05};
  GaussianProcess gp(params);
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  // Far away, mean -> y_mean (= 3.0 since single point) and variance ->
  // signal variance.
  GpPrediction p = gp.Predict({0.0});
  EXPECT_NEAR(p.variance, params.signal_variance, 1e-3);
}

TEST(GpTest, RejectsBadInput) {
  GaussianProcess gp;
  EXPECT_FALSE(gp.Fit({}, {}).ok());
  EXPECT_FALSE(gp.Fit({{0.1}}, {1.0, 2.0}).ok());
  EXPECT_DOUBLE_EQ(gp.Predict({0.1}).mean, 0.0);  // unfitted
}

TEST(GpTest, HyperSearchRejectsDegenerateDesign) {
  // All-duplicate points with non-finite targets: every hyper candidate's
  // log marginal likelihood comes out NaN. Fitting defaults anyway would
  // hand callers a model built on garbage — the search must surface
  // kInternal instead (the supervision layer's failover trigger).
  std::vector<Vec> xs(5, Vec{0.5, 0.5});
  Vec ys(5, std::numeric_limits<double>::quiet_NaN());
  GaussianProcess gp;
  Rng rng(3);
  Status fit = gp.FitWithHyperSearch(xs, ys, 10, &rng);
  EXPECT_EQ(fit.code(), StatusCode::kInternal);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// 30 points of a smooth 3-d response, the pool tests' shared design.
void PoolTestData(std::vector<Vec>* xs, Vec* ys) {
  Rng data(21);
  for (size_t i = 0; i < 30; ++i) {
    Vec x = {data.Uniform(), data.Uniform(), data.Uniform()};
    ys->push_back(std::sin(5.0 * x[0]) + x[1] * x[2]);
    xs->push_back(std::move(x));
  }
}

// Same hyperparameters, likelihood and posterior bits.
void ExpectSameModel(const GaussianProcess& a, const GaussianProcess& b,
                     const std::string& what) {
  ASSERT_EQ(a.params().lengthscales.size(), b.params().lengthscales.size());
  for (size_t j = 0; j < a.params().lengthscales.size(); ++j) {
    EXPECT_TRUE(
        SameBits(a.params().lengthscales[j], b.params().lengthscales[j]))
        << what;
  }
  EXPECT_TRUE(SameBits(a.params().signal_variance, b.params().signal_variance))
      << what;
  EXPECT_TRUE(SameBits(a.params().noise_variance, b.params().noise_variance))
      << what;
  EXPECT_EQ(a.sparse(), b.sparse()) << what;
  EXPECT_TRUE(SameBits(a.LogMarginalLikelihood(), b.LogMarginalLikelihood()))
      << what;
  for (double t : {0.1, 0.45, 0.8}) {
    GpPrediction pa = a.Predict({t, 1.0 - t, 0.5});
    GpPrediction pb = b.Predict({t, 1.0 - t, 0.5});
    EXPECT_TRUE(SameBits(pa.mean, pb.mean)) << what;
    EXPECT_TRUE(SameBits(pa.variance, pb.variance)) << what;
  }
}

TEST(GaussianProcessPoolTest, PooledHyperSearchBitIdenticalToSerial) {
  // The pooled search must keep the serial winner — same params, same
  // likelihood, same posterior bits — and that winner must be exactly the
  // model a plain Fit with its params produces (the probe is reused, not
  // refit). Sparse mode rides along: its probes score the DTC likelihood.
  std::vector<Vec> xs;
  Vec ys;
  PoolTestData(&xs, &ys);
  for (size_t max_exact : {size_t{0}, size_t{12}}) {
    for (size_t budget : {1, 5, 16, 24}) {
      GpHyperParams params;
      params.max_exact_points = max_exact;
      GaussianProcess serial(params);
      Rng serial_rng(budget);
      ASSERT_TRUE(serial.FitWithHyperSearch(xs, ys, budget, &serial_rng).ok());
      EXPECT_EQ(serial.sparse(), max_exact > 0);
      GaussianProcess refit(serial.params());
      ASSERT_TRUE(refit.Fit(xs, ys).ok());
      ExpectSameModel(serial, refit, "winner reuse vs refit");
      const double serial_next_draw = serial_rng.Uniform();
      for (size_t threads = 1; threads <= 4; ++threads) {
        ThreadPool pool(threads);
        GaussianProcess pooled(params);
        Rng pooled_rng(budget);
        ASSERT_TRUE(
            pooled.FitWithHyperSearch(xs, ys, budget, &pooled_rng, &pool).ok());
        ExpectSameModel(serial, pooled,
                        "budget " + std::to_string(budget) + " threads " +
                            std::to_string(threads) + " max_exact " +
                            std::to_string(max_exact));
        EXPECT_TRUE(SameBits(serial_next_draw, pooled_rng.Uniform()))
            << "pooled search drew a different number of candidates";
      }
    }
  }
}

TEST(GaussianProcessPoolTest, OverlapStepRunsOnceOnCallerAfterHyperDraws) {
  // The overlap step runs exactly once, on the calling thread, whether the
  // search is pooled or not and whether it succeeds or fails with
  // kInternal; it never runs when the arguments are rejected. Its draws
  // land after the hyperparameter draws: the model, the step's draws and
  // the rng position all equal a search without the step followed by the
  // same draws.
  std::vector<Vec> xs;
  Vec ys;
  PoolTestData(&xs, &ys);
  constexpr size_t kDraws = 50;
  struct StepLog {
    size_t calls = 0;
    bool on_caller = false;
    Vec draws;
  };
  auto step_for = [](StepLog* log, Rng* rng) {
    return [log, rng, caller = std::this_thread::get_id()]() {
      ++log->calls;
      log->on_caller = std::this_thread::get_id() == caller;
      log->draws.resize(kDraws);
      for (double& d : log->draws) d = rng->Uniform();
    };
  };
  std::vector<Vec> nan_xs(5, Vec{0.5, 0.5});
  Vec nan_ys(5, std::numeric_limits<double>::quiet_NaN());
  for (size_t threads = 0; threads <= 4; ++threads) {
    std::unique_ptr<ThreadPool> pool =
        threads > 0 ? std::make_unique<ThreadPool>(threads) : nullptr;
    const std::string what = "threads " + std::to_string(threads);

    GaussianProcess reference;
    Rng reference_rng(7);
    ASSERT_TRUE(reference.FitWithHyperSearch(xs, ys, 24, &reference_rng).ok());
    Vec reference_draws(kDraws);
    for (double& d : reference_draws) d = reference_rng.Uniform();

    GaussianProcess gp;
    Rng rng(7);
    StepLog log;
    ASSERT_TRUE(gp.FitWithHyperSearch(xs, ys, 24, &rng, pool.get(),
                                      step_for(&log, &rng))
                    .ok());
    EXPECT_EQ(log.calls, 1u) << what;
    EXPECT_TRUE(log.on_caller) << what;
    ASSERT_EQ(log.draws.size(), kDraws);
    for (size_t i = 0; i < kDraws; ++i) {
      EXPECT_TRUE(SameBits(log.draws[i], reference_draws[i])) << what;
    }
    ExpectSameModel(reference, gp, what);
    EXPECT_TRUE(SameBits(reference_rng.Uniform(), rng.Uniform())) << what;

    GaussianProcess degenerate;
    Rng nan_rng(3);
    StepLog nan_log;
    EXPECT_EQ(degenerate
                  .FitWithHyperSearch(nan_xs, nan_ys, 10, &nan_rng, pool.get(),
                                      step_for(&nan_log, &nan_rng))
                  .code(),
              StatusCode::kInternal)
        << what;
    EXPECT_EQ(nan_log.calls, 1u) << what;
    EXPECT_TRUE(nan_log.on_caller) << what;

    GaussianProcess rejected;
    Rng rejected_rng(3);
    StepLog rejected_log;
    EXPECT_EQ(rejected
                  .FitWithHyperSearch({}, {}, 10, &rejected_rng, pool.get(),
                                      step_for(&rejected_log, &rejected_rng))
                  .code(),
              StatusCode::kInvalidArgument)
        << what;
    EXPECT_EQ(rejected_log.calls, 0u) << what;
  }
}

TEST(GaussianProcessPoolTest, PooledHyperSearchRejectsDegenerateDesign) {
  std::vector<Vec> xs(5, Vec{0.5, 0.5});
  Vec ys(5, std::numeric_limits<double>::quiet_NaN());
  ThreadPool pool(3);
  GaussianProcess gp;
  Rng rng(3);
  Status fit = gp.FitWithHyperSearch(xs, ys, 10, &rng, &pool);
  EXPECT_EQ(fit.code(), StatusCode::kInternal);
  EXPECT_FALSE(gp.fitted());
}

TEST(GpTest, HandlesDuplicateInputsViaJitter) {
  std::vector<Vec> xs = {{0.5}, {0.5}, {0.5}};
  Vec ys = {1.0, 1.2, 0.8};
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  GpPrediction p = gp.Predict({0.5});
  EXPECT_NEAR(p.mean, 1.0, 0.2);
}

TEST(GpTest, HyperSearchImprovesMarginalLikelihood) {
  // A wiggly function: lengthscale matters a lot.
  std::vector<Vec> xs = Grid1d(15);
  Vec ys;
  for (const Vec& x : xs) ys.push_back(std::sin(12.0 * x[0]));

  GpHyperParams fixed;
  fixed.lengthscales = {2.0};  // far too smooth
  fixed.noise_variance = 1e-4;
  GaussianProcess bad(fixed);
  ASSERT_TRUE(bad.Fit(xs, ys).ok());

  GaussianProcess tuned;
  Rng rng(5);
  ASSERT_TRUE(tuned.FitWithHyperSearch(xs, ys, 40, &rng).ok());
  EXPECT_GT(tuned.LogMarginalLikelihood(), bad.LogMarginalLikelihood());

  // And it should predict held-out structure reasonably.
  GpPrediction p = tuned.Predict({0.5 + 0.5 / 14.0});
  double truth = std::sin(12.0 * (0.5 + 0.5 / 14.0));
  EXPECT_NEAR(p.mean, truth, 0.35);
}

TEST(GpTest, ConstantTargetsAreHandled) {
  std::vector<Vec> xs = Grid1d(6);
  Vec ys(6, 5.0);
  GaussianProcess gp;
  Rng rng(3);
  ASSERT_TRUE(gp.FitWithHyperSearch(xs, ys, 10, &rng).ok());
  EXPECT_NEAR(gp.Predict({0.37}).mean, 5.0, 0.1);
}

TEST(GpTest, MultiDimensionalArdLengthscales) {
  // y depends only on dim 0; ARD should still fit well.
  std::vector<Vec> xs;
  Vec ys;
  Rng rng(11);
  for (int i = 0; i < 30; ++i) {
    Vec x = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    ys.push_back(x[0] * x[0]);
    xs.push_back(std::move(x));
  }
  GaussianProcess gp;
  ASSERT_TRUE(gp.FitWithHyperSearch(xs, ys, 40, &rng).ok());
  double err = 0.0;
  for (int i = 0; i < 20; ++i) {
    Vec x = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    err += std::abs(gp.Predict(x).mean - x[0] * x[0]);
  }
  EXPECT_LT(err / 20.0, 0.15);
}

}  // namespace
}  // namespace atune
