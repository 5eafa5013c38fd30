#ifndef ATUNE_ML_GAUSSIAN_PROCESS_H_
#define ATUNE_ML_GAUSSIAN_PROCESS_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/arena.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "math/matrix.h"

namespace atune {

/// Kernel families supported by the GP.
enum class KernelType {
  kSquaredExponential,  ///< k(r) = s^2 exp(-r^2/2), ARD lengthscales
  kMatern52,            ///< Matérn 5/2, ARD lengthscales
};

/// GP hyperparameters. Lengthscales are per input dimension (ARD).
struct GpHyperParams {
  KernelType kernel = KernelType::kMatern52;
  std::vector<double> lengthscales;  ///< one per dim; empty = 1.0 each
  double signal_variance = 1.0;      ///< s^2
  double noise_variance = 1e-4;      ///< observation noise
  /// Inducing-point sparse approximation (DTC/SoR). 0 (the default) keeps
  /// the exact GP: that code path's arithmetic is completely untouched, so
  /// disabling the approximation is bit-identical by construction. When
  /// > 0 and the training set exceeds it, Fit selects this many inducing
  /// points by a deterministic farthest-point traversal and fits the DTC
  /// posterior instead — O(n m²) rather than O(n³), which keeps surrogates
  /// tractable as the knowledge repository grows past 10⁴ observations.
  /// With the inducing set equal to the training set the DTC predictive
  /// equals the exact GP, which is the accuracy contract tests pin down.
  size_t max_exact_points = 0;
};

/// Posterior prediction at one point.
struct GpPrediction {
  double mean = 0.0;
  double variance = 0.0;  ///< posterior variance (>= 0)
};

/// Reusable scratch for GaussianProcess::PredictBatch. Owns the arenas the
/// batched kernels carve their candidate-transpose and kernel-row panels
/// from — one per participant, so in a pooled batch the calling thread and
/// every worker each have their own; after the first batch at a given
/// (n, d) it is in steady state and a pool-less PredictBatch call performs
/// zero heap allocations. One scratch per calling thread — it is not
/// synchronized.
class GpScratch {
 public:
  GpScratch() = default;
  GpScratch(const GpScratch&) = delete;
  GpScratch& operator=(const GpScratch&) = delete;

 private:
  friend class GaussianProcess;
  /// Arena of PredictBatch participant `participant` (0 is the calling
  /// thread's), creating the arenas up to it on first use.
  ScratchArena* Arena(size_t participant);

  ScratchArena arena_;
  std::vector<std::unique_ptr<ScratchArena>> worker_arenas_;  // 1..
};

/// Gaussian-process regression, the surrogate model behind iTuned [9] and
/// OtterTune [24]. Inputs are expected normalized to [0,1]^d; targets are
/// internally centered on their mean.
///
/// Usage:
///   GaussianProcess gp;
///   ATUNE_RETURN_IF_ERROR(gp.Fit(xs, ys));         // fixed hyperparameters
///   // or gp.FitWithHyperSearch(xs, ys, &rng);      // random-search ML-II
///   GpPrediction p = gp.Predict(x);
class GaussianProcess {
 public:
  GaussianProcess() = default;
  explicit GaussianProcess(GpHyperParams params) : params_(std::move(params)) {}

  /// Fits the posterior for the given data with the current hyperparameters.
  /// Adds jitter to the kernel diagonal as needed for stability.
  Status Fit(const std::vector<Vec>& xs, const Vec& ys);

  /// Incrementally absorbs one observation into a fitted model. Appends a
  /// row to the cached Cholesky factor (Matrix::CholeskyAppendRow) and
  /// redoes only the O(n²) triangular solves, so growing the model by one
  /// point costs O(n²) instead of the O(n³) full refit — the per-iteration
  /// hot path of Bayesian optimization. The resulting posterior is
  /// bit-identical to Fit() on the extended data with the same
  /// hyperparameters (it performs the same arithmetic); if the append is
  /// numerically degenerate (e.g. a duplicate point), falls back to a full
  /// refit with jitter escalation. On an unfitted model, equivalent to
  /// Fit({x}, {y}).
  Status AddObservation(const Vec& x, double y);

  /// Observation eviction for drift adaptation (DESIGN.md §15): drops the
  /// oldest observations — insertion order of Fit/AddObservation — keeping
  /// the most recent `keep_last`, and refits the posterior on the retained
  /// window with the current hyperparameters. After a workload regime
  /// change, stale observations mislead the surrogate more than they
  /// inform it; evicting them is the cheapest rung of the re-tune
  /// degradation ladder. Returns the number of points evicted (0 when the
  /// model already holds <= keep_last points — then nothing is touched,
  /// so calling this on an untouched model is bit-identical to never
  /// calling it). keep_last == 0 resets the model to unfitted. If the
  /// refit on the retained window fails (degenerate kernel), the model is
  /// left unfitted rather than stale — the PR 5 honesty contract.
  size_t EvictOldest(size_t keep_last);

  /// Fits hyperparameters by maximizing the log marginal likelihood over a
  /// random search of `budget` candidate hyperparameter settings and keeps
  /// the winning candidate's fit as the model (no refit: the probe already
  /// ran Fit on the same data with the same params). With a non-null `pool`,
  /// candidate fits are evaluated concurrently by its workers and the
  /// calling thread, each keeping only its own best probe; candidates are
  /// pre-drawn from `rng` and ties broken by candidate index, so the winner
  /// — and therefore the fitted model — is identical to the serial search.
  ///
  /// `overlap`, when set, runs exactly once on the calling thread after
  /// every candidate has been drawn from `rng` and before the caller scores
  /// any (with a pool, while the workers score them) — also when the
  /// search then fails with kInternal, but not when the arguments are
  /// rejected. Work it does that draws from `rng` lands after the
  /// hyperparameter draws, just as if it ran after the search returned.
  Status FitWithHyperSearch(const std::vector<Vec>& xs, const Vec& ys,
                            size_t budget, Rng* rng,
                            ThreadPool* pool = nullptr,
                            const std::function<void()>& overlap = {});

  /// Posterior mean/variance at x. Requires a successful Fit.
  GpPrediction Predict(const Vec& x) const;

  /// Batched Predict over a whole candidate matrix (one candidate per row,
  /// candidates.cols() == input dims). (*out)[r] is bit-identical to
  /// Predict(candidates.Row(r)) — same per-element operation order — but the
  /// kernel rows are built eight candidates at a time over the contiguous
  /// training-point cache and the eight triangular solves share the factor's
  /// memory traffic (internal::ForwardSolvePanel), which is where the
  /// acquisition-scan speedup gated by bench_hotpath comes from. `scratch`
  /// provides the panel storage and is reused across calls; `out` is
  /// resized (capacity persists for the caller's reuse). With a `pool` the
  /// pool's workers and the calling thread claim whole 16-lane chunks one
  /// at a time from a shared counter, each scoring with its own scratch
  /// arena into disjoint output rows — every chunk's rows, lanes and
  /// padding are those of the pool-less call, so the output is
  /// bit-identical.
  void PredictBatch(const Matrix& candidates, GpScratch* scratch,
                    std::vector<GpPrediction>* out,
                    ThreadPool* pool = nullptr) const;

  /// Batched kernel-row builder: rows->At(r, i) = k(candidates row r, x_i)
  /// for every training point i, bit-identical to the per-point KernelValue
  /// loop. `*rows` is caller-provided and only reallocated when its shape
  /// changes, so a caller looping over batches reuses the same storage.
  void BuildKernelRows(const Matrix& candidates, Matrix* rows) const;

  /// Log marginal likelihood of the fitted model.
  double LogMarginalLikelihood() const { return log_marginal_likelihood_; }

  bool fitted() const { return fitted_; }
  const GpHyperParams& params() const { return params_; }
  size_t num_points() const { return xs_.size(); }
  /// True when the last fit used the inducing-point approximation.
  bool sparse() const { return sparse_; }
  size_t num_inducing() const { return inducing_.size(); }

 private:
  double KernelValue(const Vec& a, const Vec& b) const;
  /// PredictBatch's body over rows [begin, end) into out[begin, end);
  /// `arena` (null = per-row Predict) holds the panels.
  void PredictRows(const Matrix& candidates, size_t begin, size_t end,
                   ScratchArena* arena, GpPrediction* out) const;
  /// Shared scratch-free kernel-row builder over the flat training cache:
  /// out[i - begin] = k(x, x_i) for i in [begin, end), bit-identical to
  /// KernelValue(x, xs_[i]) (same per-dimension accumulation order, with
  /// the lengthscale clamp and kernel-type switch hoisted out of the loop).
  /// Requires flat_ok_ and x spanning clamped_ls_.size() doubles. Routes
  /// Predict's kstar, AddObservation's bordered row, Fit's kernel matrix,
  /// and BuildKernelRows.
  void KernelRowRangeInto(const double* x, size_t begin, size_t end,
                          double* out) const;
  /// Rebuilds xs_flat_/clamped_ls_ from xs_ and params_ (flat_ok_ = false
  /// when xs_ is ragged; every fast path then falls back to KernelValue).
  void RebuildFlatCache();
  /// k(x, x) for any x: both kernels evaluate to the signal variance at
  /// distance zero, so the self-kernel is a cached constant rather than a
  /// per-point distance computation.
  double SelfKernel() const { return params_.signal_variance; }
  /// Recomputes y_mean_/alpha_/LML from xs_, ys_ and the current chol_
  /// (two O(n²) triangular solves); shared by Fit and AddObservation.
  void RecomputePosterior();
  /// DTC inducing-point fit (Fit dispatches here past max_exact_points).
  /// A degenerate inducing set — non-finite kernel entries or a factor
  /// that stays indefinite through jitter escalation — returns kInternal
  /// and leaves the model unfitted (never a NaN posterior), per the PR 5
  /// honesty contract.
  Status SparseFit(const std::vector<Vec>& xs, const Vec& ys);
  GpPrediction SparsePredict(const Vec& x) const;

  GpHyperParams params_;
  std::vector<Vec> xs_;
  Vec xs_flat_;      // xs_ flattened row-major (n x d) for the batched paths
  Vec clamped_ls_;   // per-dim lengthscales with ScaledDistance's clamp baked in
  bool flat_ok_ = false;
  Vec ys_;           // raw targets (kept for recentering and refits)
  Vec alpha_;        // K^{-1} (y - mean)
  Matrix chol_;      // lower Cholesky factor of K + jitter I
  double y_mean_ = 0.0;
  double jitter_ = 0.0;  // diagonal jitter chol_ was computed with
  double log_marginal_likelihood_ = 0.0;
  bool fitted_ = false;

  // Inducing-point (DTC) state; meaningful only while sparse_ is true.
  // chol_/alpha_ are not maintained in sparse mode — every consumer
  // dispatches on sparse_ first.
  bool sparse_ = false;
  std::vector<Vec> inducing_;  // Z, the m selected inducing points
  Matrix kzz_chol_;            // chol(Kzz + jitter I)
  Matrix a_chol_;              // chol(Kzz + sigma^-2 Kzf Kfz + jitter I)
  Vec sparse_alpha_;           // sigma^-2 A^{-1} Kzf (y - mean)
};

}  // namespace atune

#endif  // ATUNE_ML_GAUSSIAN_PROCESS_H_
