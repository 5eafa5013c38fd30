#include "ml/gaussian_process.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <string>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#if defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#define ATUNE_HAVE_SSE2 1
#endif

namespace atune {

namespace {
constexpr double kTwoPi = 6.283185307179586;
// PredictBatch's chunk width: the panel solve streams the whole Cholesky
// factor once per chunk, so wider chunks halve the dominant memory traffic
// versus 8.
constexpr size_t kPanelLanes = 16;

double ScaledDistance(const Vec& a, const Vec& b,
                      const std::vector<double>& ls) {
  // Guard ragged inputs: only the overlapping dimensions contribute (a
  // mismatched caller gets a sane distance instead of an out-of-bounds
  // read of the shorter vector).
  size_t dims = std::min(a.size(), b.size());
  double acc = 0.0;
  for (size_t i = 0; i < dims; ++i) {
    double l = i < ls.size() ? ls[i] : 1.0;
    double d = (a[i] - b[i]) / (l > 1e-12 ? l : 1e-12);
    acc += d * d;
  }
  return std::sqrt(acc);
}
}  // namespace

double GaussianProcess::KernelValue(const Vec& a, const Vec& b) const {
  double r = ScaledDistance(a, b, params_.lengthscales);
  switch (params_.kernel) {
    case KernelType::kSquaredExponential:
      return params_.signal_variance * std::exp(-0.5 * r * r);
    case KernelType::kMatern52: {
      double s = std::sqrt(5.0) * r;
      return params_.signal_variance * (1.0 + s + s * s / 3.0) * std::exp(-s);
    }
  }
  return 0.0;
}

void GaussianProcess::RebuildFlatCache() {
  size_t n = xs_.size();
  size_t d = n > 0 ? xs_[0].size() : 0;
  flat_ok_ = d > 0;
  for (const Vec& x : xs_) {
    if (x.size() != d) {
      flat_ok_ = false;
      break;
    }
  }
  clamped_ls_.resize(d);
  const std::vector<double>& ls = params_.lengthscales;
  for (size_t j = 0; j < d; ++j) {
    double l = j < ls.size() ? ls[j] : 1.0;
    clamped_ls_[j] = l > 1e-12 ? l : 1e-12;
  }
  if (!flat_ok_) {
    xs_flat_.clear();
    return;
  }
  xs_flat_.resize(n * d);
  for (size_t i = 0; i < n; ++i) {
    std::copy(xs_[i].begin(), xs_[i].end(), xs_flat_.begin() + i * d);
  }
}

void GaussianProcess::KernelRowRangeInto(const double* x, size_t begin,
                                         size_t end, double* out) const {
  size_t d = clamped_ls_.size();
  const double* ls = clamped_ls_.data();
  // ScaledDistance's per-element clamp is baked into clamped_ls_ and the
  // kernel switch is hoisted; the accumulation (candidate minus point, per
  // dimension, ascending) and the sqrt→kernel round trip are exactly
  // KernelValue's, so each output is bit-identical.
  bool se = params_.kernel == KernelType::kSquaredExponential;
  double sv = params_.signal_variance;
  for (size_t i = begin; i < end; ++i) {
    const double* xi = xs_flat_.data() + i * d;
    double acc = 0.0;
    for (size_t j = 0; j < d; ++j) {
      double diff = (x[j] - xi[j]) / ls[j];
      acc += diff * diff;
    }
    double r = std::sqrt(acc);
    if (se) {
      out[i - begin] = sv * std::exp(-0.5 * r * r);
    } else {
      double s = std::sqrt(5.0) * r;
      out[i - begin] = sv * (1.0 + s + s * s / 3.0) * std::exp(-s);
    }
  }
}

Status GaussianProcess::Fit(const std::vector<Vec>& xs, const Vec& ys) {
  if (xs.empty() || xs.size() != ys.size()) {
    return Status::InvalidArgument("GP Fit: empty data or size mismatch");
  }
  size_t n = xs.size();
  size_t dims = xs[0].size();
  if (params_.lengthscales.empty()) {
    params_.lengthscales.assign(dims, 0.3);
  }
  if (params_.max_exact_points > 0 && n > params_.max_exact_points) {
    return SparseFit(xs, ys);
  }

  xs_ = xs;
  ys_ = ys;
  sparse_ = false;  // mode bookkeeping only; the exact arithmetic below is
                    // untouched by the sparse path's existence
  RebuildFlatCache();

  Matrix k(n, n);
  if (flat_ok_ && !ScalarKernelsForTesting()) {
    // Upper triangle row by row through the shared kernel-row builder
    // (contiguous spans, hoisted clamp/switch), then mirror — the values
    // are bit-identical to the per-pair KernelValue loop below.
    for (size_t i = 0; i < n; ++i) {
      k.At(i, i) = SelfKernel();
      KernelRowRangeInto(xs_flat_.data() + i * dims, i + 1, n,
                         k.RowPtr(i) + i + 1);
    }
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) k.At(j, i) = k.At(i, j);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      k.At(i, i) = SelfKernel();
      for (size_t j = i + 1; j < n; ++j) {
        double v = KernelValue(xs[i], xs[j]);
        k.At(i, j) = v;
        k.At(j, i) = v;
      }
    }
  }
  double jitter = params_.noise_variance;
  Result<Matrix> chol = Status::Internal("unset");
  for (int attempt = 0; attempt < 6; ++attempt) {
    Matrix kj = k;
    kj.AddDiagonal(jitter);
    chol = kj.Cholesky();
    if (chol.ok()) break;
    jitter = std::max(jitter * 10.0, 1e-10);
  }
  if (!chol.ok()) {
    return Status::Internal("GP Fit: kernel matrix not positive definite");
  }
  chol_ = std::move(chol).value();
  jitter_ = jitter;
  RecomputePosterior();
  return Status::OK();
}

void GaussianProcess::RecomputePosterior() {
  size_t n = xs_.size();
  y_mean_ = 0.0;
  for (double y : ys_) y_mean_ += y;
  y_mean_ /= static_cast<double>(n);
  // Thread-local buffers + the *Into solves keep the per-refit triangular
  // pass allocation-free in steady state (each thread's buffers grow to the
  // session's high-water n and stay there).
  static thread_local Vec centered;
  static thread_local Vec y1;
  centered.resize(n);
  y1.resize(n);
  for (size_t i = 0; i < n; ++i) centered[i] = ys_[i] - y_mean_;
  Matrix::ForwardSolveInto(chol_, centered.data(), y1.data());
  alpha_.resize(n);
  Matrix::BackwardSolveTransposeInto(chol_, y1.data(), alpha_.data());

  // log p(y) = -1/2 y^T alpha - 1/2 log|K| - n/2 log(2 pi)
  double fit_term = -0.5 * Dot(centered, alpha_);
  double det_term = -0.5 * Matrix::LogDetFromCholesky(chol_);
  double const_term = -0.5 * static_cast<double>(n) * std::log(kTwoPi);
  log_marginal_likelihood_ = fit_term + det_term + const_term;
  fitted_ = true;
}

Status GaussianProcess::AddObservation(const Vec& x, double y) {
  if (!fitted_) return Fit({x}, Vec{y});
  if (x.size() != xs_[0].size()) {
    return Status::InvalidArgument(
        "GP AddObservation: dimension mismatch with fitted data");
  }
  if (sparse_ || (params_.max_exact_points > 0 &&
                  xs_.size() + 1 > params_.max_exact_points)) {
    // Sparse mode has no incremental factor to border, and an exact model
    // crossing the threshold must switch modes: refit, re-selecting the
    // inducing set over the extended data. Copy out — Fit overwrites the
    // members it reads from.
    std::vector<Vec> xs = xs_;
    xs.push_back(x);
    Vec ys = ys_;
    ys.push_back(y);
    return Fit(xs, ys);
  }
  ScopedSpan span(CurrentTracer(), "gp_fit");
  if (span.active()) {
    span.AddArg("mode", "incremental");
    span.AddArg("n", std::to_string(xs_.size() + 1));
  }
  size_t n = xs_.size();
  // The bordered kernel row goes through the shared builder over the flat
  // cache — no per-observation Vec, same bits as the KernelValue loop.
  static thread_local Vec row;
  row.resize(n + 1);
  if (flat_ok_ && !ScalarKernelsForTesting() && x.size() == clamped_ls_.size()) {
    KernelRowRangeInto(x.data(), 0, n, row.data());
  } else {
    for (size_t i = 0; i < n; ++i) row[i] = KernelValue(x, xs_[i]);
  }
  row[n] = SelfKernel() + jitter_;
  Status appended = chol_.CholeskyAppendRow(row);
  xs_.push_back(x);
  ys_.push_back(y);
  if (flat_ok_ && x.size() == clamped_ls_.size()) {
    xs_flat_.insert(xs_flat_.end(), x.begin(), x.end());
  } else {
    RebuildFlatCache();
  }
  if (!appended.ok()) {
    // Degenerate append (duplicate/near-duplicate point): rebuild from
    // scratch, letting Fit escalate the jitter. Copy out first — Fit
    // overwrites the members it reads from.
    if (MetricsRegistry* metrics = CurrentMetrics()) {
      metrics->GetCounter("gp.incremental_fallbacks")->Increment();
    }
    std::vector<Vec> xs = xs_;
    Vec ys = ys_;
    return Fit(xs, ys);
  }
  if (MetricsRegistry* metrics = CurrentMetrics()) {
    metrics->GetCounter("gp.incremental_refits")->Increment();
  }
  RecomputePosterior();
  return Status::OK();
}

size_t GaussianProcess::EvictOldest(size_t keep_last) {
  const size_t n = xs_.size();
  if (n <= keep_last) return 0;
  const size_t evicted = n - keep_last;
  if (MetricsRegistry* metrics = CurrentMetrics()) {
    metrics->GetCounter("gp.evicted_observations")->Increment(evicted);
  }
  if (keep_last == 0) {
    xs_.clear();
    ys_.clear();
    fitted_ = false;
    sparse_ = false;
    RebuildFlatCache();
    return evicted;
  }
  // Copy the retained tail out first — Fit overwrites the members it reads
  // from (the AddObservation fallback discipline above).
  std::vector<Vec> xs(xs_.end() - static_cast<ptrdiff_t>(keep_last),
                      xs_.end());
  Vec ys(ys_.end() - static_cast<ptrdiff_t>(keep_last), ys_.end());
  if (!Fit(xs, ys).ok()) {
    // Honesty over staleness: a window too degenerate to refit leaves the
    // model unfitted, never silently serving the pre-eviction posterior.
    fitted_ = false;
    sparse_ = false;
  }
  return evicted;
}

Status GaussianProcess::FitWithHyperSearch(
    const std::vector<Vec>& xs, const Vec& ys, size_t budget, Rng* rng,
    ThreadPool* pool, const std::function<void()>& overlap) {
  if (xs.empty() || xs.size() != ys.size()) {
    return Status::InvalidArgument("GP Fit: empty data or size mismatch");
  }
  ScopedSpan span(CurrentTracer(), "gp_fit");
  if (span.active()) {
    span.AddArg("mode", "hyper_search");
    span.AddArg("n", std::to_string(xs.size()));
    span.AddArg("budget", std::to_string(budget));
  }
  if (MetricsRegistry* metrics = CurrentMetrics()) {
    metrics->GetCounter("gp.hyper_searches")->Increment();
  }
  size_t dims = xs[0].size();
  double y_var = 0.0;
  {
    double m = 0.0;
    for (double y : ys) m += y;
    m /= static_cast<double>(ys.size());
    for (double y : ys) y_var += (y - m) * (y - m);
    y_var /= std::max<size_t>(ys.size() - 1, 1);
    if (y_var <= 0.0) y_var = 1.0;
  }

  // Candidates are drawn up front — the same rng sequence whether they are
  // then scored serially or on the pool, keeping the search deterministic.
  std::vector<GpHyperParams> candidates(std::max<size_t>(budget, 1));
  for (GpHyperParams& cand : candidates) {
    cand.kernel = params_.kernel;
    // The approximation setting rides along: probes past the threshold fit
    // (and score) sparsely, and the winning candidate must not silently
    // reset the mode when it is assigned back into params_.
    cand.max_exact_points = params_.max_exact_points;
    cand.lengthscales.resize(dims);
    for (double& l : cand.lengthscales) {
      // Log-uniform lengthscales over [0.05, 2] of the unit cube.
      l = std::exp(rng->Uniform(std::log(0.05), std::log(2.0)));
    }
    cand.signal_variance = y_var * std::exp(rng->Uniform(std::log(0.2),
                                                         std::log(5.0)));
    cand.noise_variance =
        y_var * std::exp(rng->Uniform(std::log(1e-6), std::log(1e-1)));
  }

  // Each scan fits candidates in ascending index order and keeps only its
  // own first strictly-better probe (a failed fit or NaN likelihood never
  // compares greater), so at most one winning probe per participant is
  // alive. Reducing the scans by (LML descending, index ascending) then
  // picks exactly the candidate the serial loop picks.
  struct Winner {
    double lml = -std::numeric_limits<double>::infinity();
    size_t index = std::numeric_limits<size_t>::max();
    GaussianProcess gp;
  };
  const size_t num_candidates = candidates.size();
  auto scan = [&xs, &ys, &candidates](std::atomic<size_t>* next) -> Winner {
    Winner best;
    for (size_t i = next->fetch_add(1); i < candidates.size();
         i = next->fetch_add(1)) {
      GaussianProcess probe(candidates[i]);
      if (!probe.Fit(xs, ys).ok()) continue;
      if (probe.LogMarginalLikelihood() > best.lml) {
        best.lml = probe.LogMarginalLikelihood();
        best.index = i;
        best.gp = std::move(probe);
      }
    }
    return best;
  };
  std::atomic<size_t> next{0};
  std::vector<std::future<Winner>> futures;
  if (pool != nullptr && num_candidates > 1) {
    size_t workers = std::min(pool->num_threads(), num_candidates);
    futures.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      futures.push_back(pool->Submit([&scan, &next]() { return scan(&next); }));
    }
  }
  if (overlap) overlap();
  // The calling thread joins the claim once its own step is done; without
  // a pool its scan is the whole search.
  Winner best = scan(&next);
  for (std::future<Winner>& future : futures) {
    Winner w = future.get();
    if (w.lml > best.lml || (w.lml == best.lml && w.index < best.index)) {
      best = std::move(w);
    }
  }
  if (best.index == std::numeric_limits<size_t>::max()) {
    // Every candidate produced a non-finite log marginal likelihood: the
    // design is degenerate (duplicated points, non-finite targets). Fitting
    // defaults anyway would hand callers a model built on garbage; surface
    // kInternal so a supervision layer can fail over instead.
    return Status::Internal(StrFormat(
        "GP hyper search: all %zu candidates produced a non-finite log "
        "marginal likelihood (degenerate design of %zu points)",
        num_candidates, xs.size()));
  }
  *this = std::move(best.gp);
  return Status::OK();
}

GpPrediction GaussianProcess::Predict(const Vec& x) const {
  GpPrediction out;
  if (!fitted_) return out;
  if (sparse_) return SparsePredict(x);
  size_t n = xs_.size();
  if (ScalarKernelsForTesting() || !flat_ok_ || x.size() != clamped_ls_.size()) {
    // Pre-speed-layer path, kept verbatim: the scalar half of the
    // bench_hotpath A/B, and the fallback for ragged inputs. Bit-identical
    // to the fast path below.
    Vec kstar(n);
    for (size_t i = 0; i < n; ++i) kstar[i] = KernelValue(x, xs_[i]);
    out.mean = y_mean_ + Dot(kstar, alpha_);
    Vec v = Matrix::ForwardSolve(chol_, kstar);
    double var = SelfKernel() - Dot(v, v);
    out.variance = std::max(var, 0.0);
    return out;
  }
  // The kstar Vec the old loop rebuilt per candidate is gone: thread-local
  // buffers reach steady state after the first call at a given n.
  static thread_local Vec kstar;
  static thread_local Vec v;
  kstar.resize(n);
  v.resize(n);
  KernelRowRangeInto(x.data(), 0, n, kstar.data());
  out.mean = y_mean_ + DotSpan(kstar.data(), alpha_.data(), n);
  Matrix::ForwardSolveInto(chol_, kstar.data(), v.data());
  double var = SelfKernel() - DotSpan(v.data(), v.data(), n);
  out.variance = std::max(var, 0.0);
  return out;
}

ScratchArena* GpScratch::Arena(size_t participant) {
  if (participant == 0) return &arena_;
  while (worker_arenas_.size() < participant) {
    worker_arenas_.push_back(std::make_unique<ScratchArena>());
  }
  return worker_arenas_[participant - 1].get();
}

void GaussianProcess::PredictBatch(const Matrix& candidates, GpScratch* scratch,
                                   std::vector<GpPrediction>* out,
                                   ThreadPool* pool) const {
  size_t m = candidates.rows();
  out->assign(m, GpPrediction{});
  if (!fitted_ || m == 0) return;
  const size_t chunks = (m + kPanelLanes - 1) / kPanelLanes;
  // Participant 0 is the calling thread, 1..workers the pool's.
  const size_t workers =
      pool != nullptr ? std::min(pool->num_threads(), chunks - 1) : 0;
  if (workers == 0) {
    PredictRows(candidates, 0, m,
                scratch != nullptr ? scratch->Arena(0) : nullptr,
                out->data());
    return;
  }
  // Every arena exists before any work is submitted: only this thread
  // touches `scratch`.
  if (scratch != nullptr) scratch->Arena(workers);
  // Whole 16-lane chunks claimed one at a time: each row lands in the same
  // lane of the same chunk as in the pool-less call, and rows never
  // interact, so the split cannot change a bit. A late or descheduled
  // participant costs at most the chunk it holds.
  std::atomic<size_t> next_chunk{0};
  GpPrediction* rows = out->data();
  auto claim = [this, &candidates, &next_chunk, chunks, m,
                rows](ScratchArena* arena) {
    for (size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
         c < chunks; c = next_chunk.fetch_add(1, std::memory_order_relaxed)) {
      size_t begin = c * kPanelLanes;
      PredictRows(candidates, begin, std::min(m, begin + kPanelLanes), arena,
                  rows);
    }
  };
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (size_t w = 1; w <= workers; ++w) {
    ScratchArena* arena = scratch != nullptr ? scratch->Arena(w) : nullptr;
    futures.push_back(pool->Submit([&claim, arena]() { claim(arena); }));
  }
  claim(scratch != nullptr ? scratch->Arena(0) : nullptr);
  for (std::future<void>& future : futures) future.get();
}

void GaussianProcess::PredictRows(const Matrix& candidates, size_t begin,
                                  size_t end, ScratchArena* arena,
                                  GpPrediction* out) const {
  if (sparse_) {
    // The sparse posterior has a single (scalar) evaluation path, so the
    // batched call is just the per-row loop — no fast/scalar split to keep
    // bit-identical.
    for (size_t r = begin; r < end; ++r) {
      out[r] = SparsePredict(candidates.Row(r));
    }
    return;
  }
  size_t n = xs_.size();
  size_t d = clamped_ls_.size();
  if (ScalarKernelsForTesting() || !flat_ok_ || candidates.cols() != d ||
      arena == nullptr) {
    // Scalar A/B half (and ragged fallback): one Predict per row.
    for (size_t r = begin; r < end; ++r) out[r] = Predict(candidates.Row(r));
    return;
  }
  constexpr size_t kLanes = kPanelLanes;
  arena->Reset();
  double* ct = arena->AllocateArray<double>(d * kLanes);
  double* panel = arena->AllocateArray<double>(n * kLanes);
  bool se = params_.kernel == KernelType::kSquaredExponential;
  double sv = params_.signal_variance;
  const double* ls = clamped_ls_.data();
  for (size_t c0 = begin; c0 < end; c0 += kLanes) {
    size_t w = std::min(kLanes, end - c0);
    // Transpose the candidate chunk to d x kLanes so the per-dimension loop
    // below is lane-contiguous; dead lanes repeat the last real candidate
    // (finite arithmetic, results discarded).
    for (size_t j = 0; j < d; ++j) {
      double* cj = ct + j * kLanes;
      for (size_t c = 0; c < kLanes; ++c) {
        cj[c] = candidates.At(c0 + (c < w ? c : w - 1), j);
      }
    }
    // Kernel-row panel: panel[i][c] = k(candidate c, x_i). Per (i, c) the
    // accumulation order and sqrt→kernel round trip are exactly
    // KernelRowRangeInto's, so each lane matches Predict bit for bit.
    for (size_t i = 0; i < n; ++i) {
      const double* xi = xs_flat_.data() + i * d;
      double acc[kLanes] = {};
#if defined(ATUNE_HAVE_SSE2)
      // Hand-vectorized per-lane chains (GCC's auto-vectorizer interleaves
      // the array-accumulator form into shuffle-bound code). Each lane's
      // add/divide order is unchanged, so bits match the scalar loop.
      for (size_t h = 0; h < kLanes; h += 8) {
        __m128d a0 = _mm_setzero_pd(), a1 = _mm_setzero_pd();
        __m128d a2 = _mm_setzero_pd(), a3 = _mm_setzero_pd();
        for (size_t j = 0; j < d; ++j) {
          const __m128d xij = _mm_set1_pd(xi[j]);
          const __m128d lj = _mm_set1_pd(ls[j]);
          const double* cj = ct + j * kLanes + h;
          __m128d d0 = _mm_div_pd(_mm_sub_pd(_mm_loadu_pd(cj + 0), xij), lj);
          __m128d d1 = _mm_div_pd(_mm_sub_pd(_mm_loadu_pd(cj + 2), xij), lj);
          __m128d d2 = _mm_div_pd(_mm_sub_pd(_mm_loadu_pd(cj + 4), xij), lj);
          __m128d d3 = _mm_div_pd(_mm_sub_pd(_mm_loadu_pd(cj + 6), xij), lj);
          a0 = _mm_add_pd(a0, _mm_mul_pd(d0, d0));
          a1 = _mm_add_pd(a1, _mm_mul_pd(d1, d1));
          a2 = _mm_add_pd(a2, _mm_mul_pd(d2, d2));
          a3 = _mm_add_pd(a3, _mm_mul_pd(d3, d3));
        }
        _mm_storeu_pd(acc + h + 0, a0);
        _mm_storeu_pd(acc + h + 2, a1);
        _mm_storeu_pd(acc + h + 4, a2);
        _mm_storeu_pd(acc + h + 6, a3);
      }
#else
      for (size_t j = 0; j < d; ++j) {
        double xij = xi[j];
        double lj = ls[j];
        const double* cj = ct + j * kLanes;
        for (size_t c = 0; c < kLanes; ++c) {
          double diff = (cj[c] - xij) / lj;
          acc[c] += diff * diff;
        }
      }
#endif
      double* pi = panel + i * kLanes;
      if (se) {
        for (size_t c = 0; c < kLanes; ++c) {
          double r = std::sqrt(acc[c]);
          pi[c] = sv * std::exp(-0.5 * r * r);
        }
      } else {
        for (size_t c = 0; c < kLanes; ++c) {
          double s = std::sqrt(5.0) * std::sqrt(acc[c]);
          pi[c] = sv * (1.0 + s + s * s / 3.0) * std::exp(-s);
        }
      }
    }
    // Means before the in-place solve consumes the panel (ascending i, the
    // same order as Dot(kstar, alpha_)).
    double mean_acc[kLanes] = {};
    double var_acc[kLanes] = {};
#if defined(ATUNE_HAVE_SSE2)
    for (size_t h = 0; h < kLanes; h += 8) {
      __m128d m0 = _mm_setzero_pd(), m1 = _mm_setzero_pd();
      __m128d m2 = _mm_setzero_pd(), m3 = _mm_setzero_pd();
      for (size_t i = 0; i < n; ++i) {
        const __m128d ai = _mm_set1_pd(alpha_[i]);
        const double* pi = panel + i * kLanes + h;
        m0 = _mm_add_pd(m0, _mm_mul_pd(_mm_loadu_pd(pi + 0), ai));
        m1 = _mm_add_pd(m1, _mm_mul_pd(_mm_loadu_pd(pi + 2), ai));
        m2 = _mm_add_pd(m2, _mm_mul_pd(_mm_loadu_pd(pi + 4), ai));
        m3 = _mm_add_pd(m3, _mm_mul_pd(_mm_loadu_pd(pi + 6), ai));
      }
      _mm_storeu_pd(mean_acc + h + 0, m0);
      _mm_storeu_pd(mean_acc + h + 2, m1);
      _mm_storeu_pd(mean_acc + h + 4, m2);
      _mm_storeu_pd(mean_acc + h + 6, m3);
    }
    internal::ForwardSolvePanel(chol_, panel, kLanes, kLanes);
    for (size_t h = 0; h < kLanes; h += 8) {
      __m128d v0 = _mm_setzero_pd(), v1 = _mm_setzero_pd();
      __m128d v2 = _mm_setzero_pd(), v3 = _mm_setzero_pd();
      for (size_t i = 0; i < n; ++i) {
        const double* pi = panel + i * kLanes + h;
        const __m128d r0 = _mm_loadu_pd(pi + 0);
        const __m128d r1 = _mm_loadu_pd(pi + 2);
        const __m128d r2 = _mm_loadu_pd(pi + 4);
        const __m128d r3 = _mm_loadu_pd(pi + 6);
        v0 = _mm_add_pd(v0, _mm_mul_pd(r0, r0));
        v1 = _mm_add_pd(v1, _mm_mul_pd(r1, r1));
        v2 = _mm_add_pd(v2, _mm_mul_pd(r2, r2));
        v3 = _mm_add_pd(v3, _mm_mul_pd(r3, r3));
      }
      _mm_storeu_pd(var_acc + h + 0, v0);
      _mm_storeu_pd(var_acc + h + 2, v1);
      _mm_storeu_pd(var_acc + h + 4, v2);
      _mm_storeu_pd(var_acc + h + 6, v3);
    }
#else
    for (size_t i = 0; i < n; ++i) {
      double ai = alpha_[i];
      const double* pi = panel + i * kLanes;
      for (size_t c = 0; c < kLanes; ++c) mean_acc[c] += pi[c] * ai;
    }
    internal::ForwardSolvePanel(chol_, panel, kLanes, kLanes);
    for (size_t i = 0; i < n; ++i) {
      const double* pi = panel + i * kLanes;
      for (size_t c = 0; c < kLanes; ++c) var_acc[c] += pi[c] * pi[c];
    }
#endif
    for (size_t c = 0; c < w; ++c) {
      GpPrediction& p = out[c0 + c];
      p.mean = y_mean_ + mean_acc[c];
      p.variance = std::max(SelfKernel() - var_acc[c], 0.0);
    }
  }
}

void GaussianProcess::BuildKernelRows(const Matrix& candidates,
                                      Matrix* rows) const {
  size_t m = candidates.rows();
  size_t n = xs_.size();
  if (rows->rows() != m || rows->cols() != n) *rows = Matrix(m, n);
  if (!fitted_) return;
  if (ScalarKernelsForTesting() || !flat_ok_ ||
      candidates.cols() != clamped_ls_.size()) {
    for (size_t r = 0; r < m; ++r) {
      Vec cand = candidates.Row(r);
      double* out_row = rows->RowPtr(r);
      for (size_t i = 0; i < n; ++i) out_row[i] = KernelValue(cand, xs_[i]);
    }
    return;
  }
  for (size_t r = 0; r < m; ++r) {
    KernelRowRangeInto(candidates.RowPtr(r), 0, n, rows->RowPtr(r));
  }
}

Status GaussianProcess::SparseFit(const std::vector<Vec>& xs, const Vec& ys) {
  size_t n = xs.size();
  size_t m = std::min(params_.max_exact_points, n);
  ScopedSpan span(CurrentTracer(), "gp_fit");
  if (span.active()) {
    span.AddArg("mode", "sparse");
    span.AddArg("n", std::to_string(n));
  }
  if (MetricsRegistry* metrics = CurrentMetrics()) {
    metrics->GetCounter("gp.sparse_fits")->Increment();
  }
  xs_ = xs;
  ys_ = ys;
  RebuildFlatCache();
  fitted_ = false;
  sparse_ = false;

  // Deterministic farthest-point (k-center greedy) inducing selection in
  // the lengthscale-scaled metric, seeded at the first point; ties go to
  // the lowest index. Stops early when every remaining point duplicates a
  // selected one — the inducing set never carries duplicate rows.
  std::vector<size_t> sel;
  sel.reserve(m);
  sel.push_back(0);
  Vec mind(n);
  for (size_t i = 0; i < n; ++i) {
    mind[i] = ScaledDistance(xs[i], xs[0], params_.lengthscales);
  }
  while (sel.size() < m) {
    size_t best = 0;
    for (size_t i = 1; i < n; ++i) {
      if (mind[i] > mind[best]) best = i;
    }
    if (!(mind[best] > 1e-12)) break;  // NaN distances also stop here
    sel.push_back(best);
    for (size_t i = 0; i < n; ++i) {
      mind[i] = std::min(mind[i], ScaledDistance(xs[i], xs[best],
                                                 params_.lengthscales));
    }
  }
  inducing_.clear();
  for (size_t idx : sel) inducing_.push_back(xs[idx]);
  m = inducing_.size();

  // Kzz (m x m) and Kzf (m x n). The sparse posterior has one evaluation
  // path (plain KernelValue), so there is no fast/scalar split to keep
  // bit-identical here.
  Matrix kzz(m, m);
  for (size_t i = 0; i < m; ++i) {
    kzz.At(i, i) = SelfKernel();
    for (size_t j = i + 1; j < m; ++j) {
      double v = KernelValue(inducing_[i], inducing_[j]);
      kzz.At(i, j) = v;
      kzz.At(j, i) = v;
    }
  }
  Matrix kzf(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      kzf.At(i, j) = KernelValue(inducing_[i], xs[j]);
    }
  }
  for (double v : kzz.data()) {
    if (!std::isfinite(v)) {
      return Status::Internal(
          "GP sparse fit: degenerate inducing set (non-finite Kzz)");
    }
  }
  for (double v : kzf.data()) {
    if (!std::isfinite(v)) {
      return Status::Internal(
          "GP sparse fit: degenerate inducing set (non-finite Kzf)");
    }
  }

  // A = Kzz + sigma^-2 Kzf Kfz; jitter escalates on both factors together
  // so the predictive's two quadratic terms stay consistent.
  double sigma2 = std::max(params_.noise_variance, 1e-10);
  Matrix a(m, m);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i; j < m; ++j) {
      double acc = 0.0;
      const double* ri = kzf.RowPtr(i);
      const double* rj = kzf.RowPtr(j);
      for (size_t t = 0; t < n; ++t) acc += ri[t] * rj[t];
      double v = kzz.At(i, j) + acc / sigma2;
      a.At(i, j) = v;
      a.At(j, i) = v;
    }
  }
  double jitter = 1e-10;
  Result<Matrix> kzz_chol = Status::Internal("unset");
  Result<Matrix> a_chol = Status::Internal("unset");
  for (int attempt = 0; attempt < 6; ++attempt) {
    Matrix kzz_j = kzz;
    kzz_j.AddDiagonal(jitter);
    kzz_chol = kzz_j.Cholesky();
    Matrix a_j = a;
    a_j.AddDiagonal(jitter);
    a_chol = a_j.Cholesky();
    if (kzz_chol.ok() && a_chol.ok()) break;
    jitter *= 10.0;
  }
  if (!kzz_chol.ok() || !a_chol.ok()) {
    return Status::Internal(
        "GP sparse fit: degenerate inducing set (factorization failed "
        "through jitter escalation)");
  }
  kzz_chol_ = std::move(kzz_chol).value();
  a_chol_ = std::move(a_chol).value();
  jitter_ = jitter;

  y_mean_ = 0.0;
  for (double y : ys_) y_mean_ += y;
  y_mean_ /= static_cast<double>(n);
  Vec centered(n);
  for (size_t i = 0; i < n; ++i) centered[i] = ys_[i] - y_mean_;
  Vec b(m);
  for (size_t i = 0; i < m; ++i) {
    double acc = 0.0;
    const double* ri = kzf.RowPtr(i);
    for (size_t t = 0; t < n; ++t) acc += ri[t] * centered[t];
    b[i] = acc;
  }
  Vec y1 = Matrix::ForwardSolve(a_chol_, b);
  Vec ainv_b = Matrix::BackwardSolveTranspose(a_chol_, y1);
  sparse_alpha_.resize(m);
  for (size_t i = 0; i < m; ++i) sparse_alpha_[i] = ainv_b[i] / sigma2;

  // DTC log marginal likelihood of y ~ N(mean, Qff + sigma^2 I) via the
  // Woodbury/determinant lemmas:
  //   y^T (.)^-1 y = sigma^-2 yc^T yc - sigma^-2 b^T alpha
  //   log|.|       = log|A| - log|Kzz| + n log sigma^2
  double yty = 0.0;
  for (double v : centered) yty += v * v;
  double fit_term = -0.5 * (yty / sigma2 - Dot(b, sparse_alpha_) / sigma2);
  double det_term = -0.5 * (Matrix::LogDetFromCholesky(a_chol_) -
                            Matrix::LogDetFromCholesky(kzz_chol_) +
                            static_cast<double>(n) * std::log(sigma2));
  double const_term = -0.5 * static_cast<double>(n) * std::log(kTwoPi);
  log_marginal_likelihood_ = fit_term + det_term + const_term;
  if (!std::isfinite(log_marginal_likelihood_) ||
      !std::isfinite(Dot(sparse_alpha_, sparse_alpha_))) {
    return Status::Internal(
        "GP sparse fit: degenerate inducing set (non-finite posterior)");
  }
  sparse_ = true;
  fitted_ = true;
  return Status::OK();
}

GpPrediction GaussianProcess::SparsePredict(const Vec& x) const {
  // DTC predictive: mean = kz^T alpha, var = k** - kz^T Kzz^-1 kz
  // + kz^T A^-1 kz. A >= Kzz in the PSD order, so the variance never
  // exceeds the prior and the clamp below only absorbs rounding.
  GpPrediction out;
  size_t m = inducing_.size();
  Vec kz(m);
  for (size_t i = 0; i < m; ++i) kz[i] = KernelValue(x, inducing_[i]);
  out.mean = y_mean_ + Dot(kz, sparse_alpha_);
  Vec v = Matrix::ForwardSolve(kzz_chol_, kz);
  Vec w = Matrix::ForwardSolve(a_chol_, kz);
  double var = SelfKernel() - Dot(v, v) + Dot(w, w);
  out.variance = std::max(var, 0.0);
  return out;
}

}  // namespace atune
