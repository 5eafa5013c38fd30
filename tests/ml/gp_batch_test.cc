// Bit-identity tests for the batched GP paths of DESIGN.md §11:
// PredictBatch vs per-point Predict, BuildKernelRows vs the KernelValue
// loop, the batch acquisition wrappers vs their scalar forms, and the
// fast-vs-scalar A/B switch over a full Fit/AddObservation/Predict cycle.

#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "gtest/gtest.h"
#include "ml/acquisition.h"
#include "ml/gaussian_process.h"

namespace atune {
namespace {

using std::mt19937_64;

std::vector<Vec> RandomPoints(size_t n, size_t d, mt19937_64* gen) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<Vec> xs(n, Vec(d));
  for (auto& x : xs) {
    for (double& v : x) v = u(*gen);
  }
  return xs;
}

Vec RandomTargets(size_t n, mt19937_64* gen) {
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  Vec ys(n);
  for (double& y : ys) y = u(*gen);
  return ys;
}

Matrix RandomCandidates(size_t m, size_t d, mt19937_64* gen) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  Matrix c(m, d);
  for (size_t r = 0; r < m; ++r) {
    for (size_t j = 0; j < d; ++j) c.At(r, j) = u(*gen);
  }
  return c;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(GpBatch, PredictBatchBitIdenticalToPredict) {
  mt19937_64 gen(3);
  for (KernelType kernel :
       {KernelType::kMatern52, KernelType::kSquaredExponential}) {
    for (size_t n : {1, 4, 17, 60}) {
      for (size_t m : {1, 3, 7, 8, 9, 16, 33}) {
        size_t d = 5;
        GaussianProcess gp(GpHyperParams{kernel, {}, 1.0, 1e-4});
        ASSERT_TRUE(gp.Fit(RandomPoints(n, d, &gen), RandomTargets(n, &gen))
                        .ok());
        Matrix cands = RandomCandidates(m, d, &gen);
        GpScratch scratch;
        std::vector<GpPrediction> batch;
        gp.PredictBatch(cands, &scratch, &batch);
        ASSERT_EQ(batch.size(), m);
        for (size_t r = 0; r < m; ++r) {
          GpPrediction p = gp.Predict(cands.Row(r));
          EXPECT_TRUE(SameBits(batch[r].mean, p.mean))
              << "n=" << n << " m=" << m << " r=" << r;
          EXPECT_TRUE(SameBits(batch[r].variance, p.variance))
              << "n=" << n << " m=" << m << " r=" << r;
        }
      }
    }
  }
}

TEST(GpBatch, PredictBatchUnfittedReturnsDefaults) {
  GaussianProcess gp;
  GpScratch scratch;
  std::vector<GpPrediction> batch;
  mt19937_64 gen(5);
  gp.PredictBatch(RandomCandidates(6, 3, &gen), &scratch, &batch);
  ASSERT_EQ(batch.size(), 6u);
  for (const auto& p : batch) {
    EXPECT_EQ(p.mean, 0.0);
    EXPECT_EQ(p.variance, 0.0);
  }
}

TEST(GpBatch, PredictBatchWrongColumnCountFallsBackToPredict) {
  mt19937_64 gen(7);
  size_t n = 12, d = 4;
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(RandomPoints(n, d, &gen), RandomTargets(n, &gen)).ok());
  // Candidates with the wrong dimensionality route through per-point
  // Predict, which itself falls back to KernelValue on ragged input.
  Matrix cands = RandomCandidates(5, d + 2, &gen);
  GpScratch scratch;
  std::vector<GpPrediction> batch;
  gp.PredictBatch(cands, &scratch, &batch);
  ASSERT_EQ(batch.size(), 5u);
  for (size_t r = 0; r < 5; ++r) {
    GpPrediction p = gp.Predict(cands.Row(r));
    EXPECT_TRUE(SameBits(batch[r].mean, p.mean));
    EXPECT_TRUE(SameBits(batch[r].variance, p.variance));
  }
}

TEST(GpBatch, PredictBatchNullScratchFallsBack) {
  mt19937_64 gen(9);
  size_t n = 10, d = 3;
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(RandomPoints(n, d, &gen), RandomTargets(n, &gen)).ok());
  Matrix cands = RandomCandidates(9, d, &gen);
  std::vector<GpPrediction> batch;
  gp.PredictBatch(cands, nullptr, &batch);
  ASSERT_EQ(batch.size(), 9u);
  for (size_t r = 0; r < 9; ++r) {
    GpPrediction p = gp.Predict(cands.Row(r));
    EXPECT_TRUE(SameBits(batch[r].mean, p.mean));
    EXPECT_TRUE(SameBits(batch[r].variance, p.variance));
  }
}

TEST(GpBatch, PooledPredictBatchBitIdenticalToNoPool) {
  // 1-4 workers and the calling thread claim 16-lane chunks, each with its
  // own arena of one GpScratch reused across every pool size; the result
  // must reproduce the pool-less call bit for bit: below, at and around
  // the chunk boundaries, at the acquisition scan's size, in exact and
  // sparse mode, on the fast and the scalar kernels.
  mt19937_64 gen(19);
  size_t n = 40, d = 5;
  std::vector<Vec> xs = RandomPoints(n, d, &gen);
  Vec ys = RandomTargets(n, &gen);
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (size_t threads = 1; threads <= 4; ++threads) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  GpScratch scratch;
  for (bool scalar : {false, true}) {
    SetScalarKernelsForTesting(scalar);
    for (size_t max_exact : {size_t{0}, size_t{20}}) {
      GpHyperParams params{KernelType::kMatern52, {}, 1.0, 1e-4};
      params.max_exact_points = max_exact;
      GaussianProcess gp(params);
      ASSERT_TRUE(gp.Fit(xs, ys).ok());
      ASSERT_EQ(gp.sparse(), max_exact > 0);
      for (size_t m : {1, 15, 16, 17, 63, 64, 65, 2000}) {
        Matrix cands = RandomCandidates(m, d, &gen);
        GpScratch serial_scratch;
        std::vector<GpPrediction> serial;
        gp.PredictBatch(cands, &serial_scratch, &serial);
        // Growing and shrinking pool sizes over the same scratch.
        for (size_t threads : {4, 1, 3, 2}) {
          std::vector<GpPrediction> pooled;
          gp.PredictBatch(cands, &scratch, &pooled, pools[threads - 1].get());
          ASSERT_EQ(pooled.size(), m);
          for (size_t r = 0; r < m; ++r) {
            ASSERT_TRUE(SameBits(pooled[r].mean, serial[r].mean))
                << "scalar=" << scalar << " sparse=" << gp.sparse()
                << " m=" << m << " threads=" << threads << " r=" << r;
            ASSERT_TRUE(SameBits(pooled[r].variance, serial[r].variance))
                << "scalar=" << scalar << " sparse=" << gp.sparse()
                << " m=" << m << " threads=" << threads << " r=" << r;
          }
        }
      }
    }
  }
  SetScalarKernelsForTesting(false);
}

TEST(GpBatch, BuildKernelRowsMatchesPerPointAndReusesStorage) {
  mt19937_64 gen(11);
  size_t n = 21, d = 6, m = 13;
  GaussianProcess gp(
      GpHyperParams{KernelType::kSquaredExponential, {}, 1.3, 1e-4});
  std::vector<Vec> xs = RandomPoints(n, d, &gen);
  ASSERT_TRUE(gp.Fit(xs, RandomTargets(n, &gen)).ok());
  Matrix cands = RandomCandidates(m, d, &gen);
  Matrix rows;
  gp.BuildKernelRows(cands, &rows);
  ASSERT_EQ(rows.rows(), m);
  ASSERT_EQ(rows.cols(), n);
  // Reference via the scalar switch (KernelValue path).
  SetScalarKernelsForTesting(true);
  Matrix ref;
  gp.BuildKernelRows(cands, &ref);
  SetScalarKernelsForTesting(false);
  for (size_t r = 0; r < m; ++r) {
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(SameBits(rows.At(r, i), ref.At(r, i)))
          << "(" << r << "," << i << ")";
    }
  }
  // Same-shape call must not reallocate the caller's buffer.
  const double* storage = rows.RowPtr(0);
  gp.BuildKernelRows(cands, &rows);
  EXPECT_EQ(rows.RowPtr(0), storage);
}

TEST(GpBatch, ScalarSwitchWholeCycleBitIdentical) {
  // Fit + AddObservation + Predict under the fast kernels must equal the
  // same cycle under the scalar (pre-speed-layer) kernels bit for bit.
  auto run = [](bool scalar) {
    SetScalarKernelsForTesting(scalar);
    mt19937_64 gen(13);
    size_t d = 4;
    GaussianProcess gp(GpHyperParams{KernelType::kMatern52, {}, 1.0, 1e-4});
    std::vector<Vec> xs = RandomPoints(20, d, &gen);
    Vec ys = RandomTargets(20, &gen);
    EXPECT_TRUE(gp.Fit(xs, ys).ok());
    std::vector<Vec> extra = RandomPoints(5, d, &gen);
    for (size_t i = 0; i < extra.size(); ++i) {
      EXPECT_TRUE(gp.AddObservation(extra[i], 0.1 * i).ok());
    }
    Matrix probes = RandomCandidates(11, d, &gen);
    std::vector<GpPrediction> preds(probes.rows());
    for (size_t r = 0; r < probes.rows(); ++r) {
      preds[r] = gp.Predict(probes.Row(r));
    }
    SetScalarKernelsForTesting(false);
    return preds;
  };
  std::vector<GpPrediction> fast = run(false);
  std::vector<GpPrediction> scalar = run(true);
  ASSERT_EQ(fast.size(), scalar.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_TRUE(SameBits(fast[i].mean, scalar[i].mean)) << i;
    EXPECT_TRUE(SameBits(fast[i].variance, scalar[i].variance)) << i;
  }
}

TEST(GpBatch, AcquisitionBatchMatchesScalar) {
  mt19937_64 gen(17);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  std::vector<GpPrediction> preds(37);
  for (auto& p : preds) {
    p.mean = u(gen);
    p.variance = std::fabs(u(gen));
  }
  preds[3].variance = 0.0;  // exercise the degenerate-sigma branch
  double best = 0.4;
  Vec ei, pi, lcb;
  ExpectedImprovementBatch(preds, best, 0.0, &ei);
  ProbabilityOfImprovementBatch(preds, best, 0.0, &pi);
  LowerConfidenceBoundBatch(preds, 2.0, &lcb);
  ASSERT_EQ(ei.size(), preds.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    EXPECT_TRUE(SameBits(ei[i], ExpectedImprovement(preds[i], best))) << i;
    EXPECT_TRUE(SameBits(pi[i], ProbabilityOfImprovement(preds[i], best)))
        << i;
    EXPECT_TRUE(SameBits(lcb[i], LowerConfidenceBound(preds[i], 2.0))) << i;
  }
}

}  // namespace
}  // namespace atune
