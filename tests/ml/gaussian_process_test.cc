#include "ml/gaussian_process.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

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

TEST(GaussianProcessPoolTest, PooledHyperSearchBitIdenticalToSerial) {
  // The pooled search must keep the serial winner — same params, same
  // likelihood, same posterior bits — and that winner must be exactly the
  // model a plain Fit with its params produces (the probe is reused, not
  // refit). Sparse mode rides along: its probes score the DTC likelihood.
  std::vector<Vec> xs;
  Vec ys;
  Rng data(21);
  for (size_t i = 0; i < 30; ++i) {
    Vec x = {data.Uniform(), data.Uniform(), data.Uniform()};
    ys.push_back(std::sin(5.0 * x[0]) + x[1] * x[2]);
    xs.push_back(std::move(x));
  }
  auto same = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  auto expect_same_model = [&](const GaussianProcess& a,
                               const GaussianProcess& b,
                               const std::string& what) {
    ASSERT_EQ(a.params().lengthscales.size(), b.params().lengthscales.size());
    for (size_t j = 0; j < a.params().lengthscales.size(); ++j) {
      EXPECT_TRUE(same(a.params().lengthscales[j], b.params().lengthscales[j]))
          << what;
    }
    EXPECT_TRUE(same(a.params().signal_variance, b.params().signal_variance))
        << what;
    EXPECT_TRUE(same(a.params().noise_variance, b.params().noise_variance))
        << what;
    EXPECT_EQ(a.sparse(), b.sparse()) << what;
    EXPECT_TRUE(same(a.LogMarginalLikelihood(), b.LogMarginalLikelihood()))
        << what;
    for (double t : {0.1, 0.45, 0.8}) {
      GpPrediction pa = a.Predict({t, 1.0 - t, 0.5});
      GpPrediction pb = b.Predict({t, 1.0 - t, 0.5});
      EXPECT_TRUE(same(pa.mean, pb.mean)) << what;
      EXPECT_TRUE(same(pa.variance, pb.variance)) << what;
    }
  };
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
      expect_same_model(serial, refit, "winner reuse vs refit");
      const double serial_next_draw = serial_rng.Uniform();
      for (size_t threads = 1; threads <= 4; ++threads) {
        ThreadPool pool(threads);
        GaussianProcess pooled(params);
        Rng pooled_rng(budget);
        ASSERT_TRUE(
            pooled.FitWithHyperSearch(xs, ys, budget, &pooled_rng, &pool).ok());
        expect_same_model(serial, pooled,
                          "budget " + std::to_string(budget) + " threads " +
                              std::to_string(threads) + " max_exact " +
                              std::to_string(max_exact));
        EXPECT_TRUE(same(serial_next_draw, pooled_rng.Uniform()))
            << "pooled search drew a different number of candidates";
      }
    }
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
