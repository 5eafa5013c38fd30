#include "tuners/experiment/ituned.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "common/string_util.h"
#include "math/sampling.h"
#include "ml/acquisition.h"
#include "obs/trace.h"

namespace atune {

namespace {

/// Consecutive GP-fit failures tolerated (with a random-draw fallback per
/// failure) before the fit status escalates out of Tune(). Random draws fix
/// transient degeneracy (constant early responses); they cannot fix poisoned
/// observations, and looping forever on a dead surrogate hides the failure
/// from any supervision layer.
constexpr size_t kMaxConsecutiveModelFailures = 3;

/// Reusable storage for the batched acquisition scan: the candidate matrix,
/// the PredictBatch output, the acquisition values, and the GP panel
/// scratch. Owned by the Tune loop so a whole tuning session allocates the
/// scan buffers once instead of per candidate per iteration.
struct AcquisitionWorkspace {
  Matrix cands;
  std::vector<GpPrediction> preds;
  Vec acq;
  GpScratch gp;
};

/// Draws the `acquisition_candidates` random proposals of one iteration
/// into ws->cands, a third of them perturbing the incumbent — the rng draw
/// order of the old per-point loop (Predict consumed no randomness).
void GenerateCandidates(const ITunedOptions& options,
                        const std::vector<Vec>& xs, const Vec& ys,
                        size_t dims, Rng* rng, AcquisitionWorkspace* ws) {
  size_t m = options.acquisition_candidates;
  if (ws->cands.rows() != m || ws->cands.cols() != dims) {
    ws->cands = Matrix(m, dims);
  }
  // The incumbent is loop-invariant; hoisting its argmin out of the
  // candidate loop changes no draws.
  const Vec* inc = nullptr;
  if (!xs.empty()) {
    inc = &xs[static_cast<size_t>(std::min_element(ys.begin(), ys.end()) -
                                  ys.begin())];
  }
  for (size_t i = 0; i < m; ++i) {
    double* cand = ws->cands.RowPtr(i);
    if (i % 3 == 0 && inc != nullptr) {
      // A third of candidates perturb the incumbent (local refinement).
      for (size_t d = 0; d < dims; ++d) {
        cand[d] = std::clamp((*inc)[d] + rng->Normal(0.0, 0.08), 0.0, 1.0);
      }
    } else {
      for (size_t d = 0; d < dims; ++d) cand[d] = rng->Uniform();
    }
  }
}

/// Acquisition-maximizing row of ws->cands: predicted (on `pool` when
/// non-null) and scored as whole batches; the strict-> argmax in index
/// order selects the bit-identical winner the per-point scan did.
Vec ScoreCandidates(const GaussianProcess& gp, const ITunedOptions& options,
                    const Vec& ys, ThreadPool* pool, AcquisitionWorkspace* ws,
                    double* best_acq_out) {
  double best_log = *std::min_element(ys.begin(), ys.end());
  gp.PredictBatch(ws->cands, &ws->gp, &ws->preds, pool);
  if (options.acquisition == "pi") {
    ProbabilityOfImprovementBatch(ws->preds, best_log, 0.0, &ws->acq);
  } else if (options.acquisition == "lcb") {
    LowerConfidenceBoundBatch(ws->preds, 2.0, &ws->acq);
  } else {
    ExpectedImprovementBatch(ws->preds, best_log, 0.0, &ws->acq);
  }
  size_t m = ws->cands.rows();
  double best_acq = -std::numeric_limits<double>::infinity();
  Vec next;
  size_t best_i = m;
  for (size_t i = 0; i < m; ++i) {
    if (ws->acq[i] > best_acq) {
      best_acq = ws->acq[i];
      best_i = i;
    }
  }
  if (best_i < m) next = ws->cands.Row(best_i);
  if (best_acq_out != nullptr) *best_acq_out = best_acq;
  return next;
}

/// Annotates an `acquisition` span; `phase` tells the serial loop's
/// generation (overlapping the hyper search) from its scoring.
void AnnotateAcquisition(ScopedSpan* span, const ITunedOptions& options,
                         const char* phase) {
  if (!span->active()) return;
  span->AddArg("candidates", std::to_string(options.acquisition_candidates));
  span->AddArg("kind", options.acquisition);
  if (phase != nullptr) span->AddArg("phase", phase);
}

}  // namespace

Status ITunedTuner::Tune(Evaluator* evaluator, Rng* rng) {
  if (options_.parallelism > 1) return TuneBatch(evaluator, rng);
  const ParameterSpace& space = evaluator->space();
  size_t dims = space.dims();

  std::vector<Vec> xs;
  Vec ys;  // log objectives
  auto record = [&](const Vec& u, double obj) {
    xs.push_back(u);
    ys.push_back(std::log(std::max(obj, 1e-6)));
  };

  // Defaults + maximin LHS bootstrap.
  {
    Configuration defaults = space.DefaultConfiguration();
    auto obj = evaluator->Evaluate(defaults);
    if (!obj.ok()) return obj.status();
    record(space.ToUnitVector(defaults), *obj);
  }
  std::vector<Vec> design =
      MaximinLatinHypercube(options_.initial_design, dims, 16, rng);
  for (const Vec& u : design) {
    if (evaluator->Exhausted()) break;
    auto obj = evaluator->Evaluate(space.FromUnitVector(u));
    if (!obj.ok()) {
      if (obj.status().code() == StatusCode::kResourceExhausted) break;
      return obj.status();
    }
    record(u, *obj);
  }

  // Bayesian optimization loop.
  size_t bo_iters = 0;
  size_t aborts = 0;
  size_t model_failures = 0;
  double last_acq = 0.0;
  AcquisitionWorkspace ws;
  while (!evaluator->Exhausted()) {
    // Fetched per iteration so a session whose budget ends in the bootstrap
    // never starts the pool; after the first call it is a lookup.
    ThreadPool* pool = evaluator->think_pool();
    GaussianProcess gp(GpHyperParams{options_.kernel, {}, 1.0, 1e-4});
    // The candidates do not depend on the model, so the calling thread
    // draws them while the pool runs the hyper search — after its
    // hyperparameter draws, the same rng order as drawing them afterwards.
    std::optional<Rng> rewind;
    Status fit = gp.FitWithHyperSearch(
        xs, ys, options_.gp_hyper_budget, rng, pool, [&]() {
          rewind = *rng;
          ScopedSpan span(CurrentTracer(), "acquisition");
          AnnotateAcquisition(&span, options_, "generate");
          GenerateCandidates(options_, xs, ys, dims, rng, &ws);
        });
    Vec next;
    if (fit.ok()) {
      model_failures = 0;
      ScopedSpan span(CurrentTracer(), "acquisition");
      AnnotateAcquisition(&span, options_, "score");
      next = ScoreCandidates(gp, options_, ys, pool, &ws, &last_acq);
    } else {
      // Degenerate GP (e.g. constant responses): one-off failures fall back
      // to a random draw, which usually adds enough diversity to recover.
      // Persistent failures mean the observations themselves are poisoned
      // (NaN objectives, duplicated designs) and no amount of random
      // sampling inside this loop repairs the surrogate — escalate so a
      // supervision layer can fail over.
      //
      // The failed search already drew this iteration's candidates: rewind
      // first, so both the fallback draw and an escalation (whose rng the
      // supervisor hands on to the fallback tuner) see it as if none were
      // drawn.
      if (rewind.has_value()) *rng = *rewind;
      if (++model_failures >= kMaxConsecutiveModelFailures) return fit;
      next.resize(dims);
      for (double& x : next) x = rng->Uniform();
    }
    Result<double> obj = Status::Internal("unset");
    bool aborted = false;
    if (options_.early_abort_factor > 0.0 && evaluator->best() != nullptr) {
      obj = evaluator->EvaluateWithEarlyAbort(
          space.FromUnitVector(next),
          options_.early_abort_factor * evaluator->best()->objective,
          &aborted);
      if (aborted) ++aborts;
    } else {
      obj = evaluator->Evaluate(space.FromUnitVector(next));
    }
    if (!obj.ok()) {
      if (obj.status().code() == StatusCode::kResourceExhausted) break;
      return obj.status();
    }
    // Censored observations still enter the surrogate: the lower bound is
    // enough for the GP to steer away from the region.
    record(next, *obj);
    ++bo_iters;
  }
  report_ = StrFormat(
      "LHS design %zu + %zu GP/%s iterations (%zu early-aborted, final acq "
      "%.4f, %zu obs)",
      design.size(), bo_iters, options_.acquisition.c_str(), aborts, last_acq,
      xs.size());
  return Status::OK();
}

Status ITunedTuner::TuneBatch(Evaluator* evaluator, Rng* rng) {
  const ParameterSpace& space = evaluator->space();
  size_t dims = space.dims();
  size_t parallelism = options_.parallelism;

  std::vector<Vec> xs;
  Vec ys;  // log objectives
  auto record = [&](const Vec& u, double obj) {
    xs.push_back(u);
    ys.push_back(std::log(std::max(obj, 1e-6)));
  };

  // Defaults, then the LHS bootstrap dispatched `parallelism` at a time —
  // the design is fixed up front, so batching it is pure chunking.
  {
    Configuration defaults = space.DefaultConfiguration();
    auto obj = evaluator->Evaluate(defaults);
    if (!obj.ok()) return obj.status();
    record(space.ToUnitVector(defaults), *obj);
  }
  std::vector<Vec> design =
      MaximinLatinHypercube(options_.initial_design, dims, 16, rng);
  for (size_t start = 0; start < design.size() && !evaluator->Exhausted();
       start += parallelism) {
    size_t end = std::min(design.size(), start + parallelism);
    std::vector<Configuration> batch;
    batch.reserve(end - start);
    for (size_t i = start; i < end; ++i) {
      batch.push_back(space.FromUnitVector(design[i]));
    }
    auto objs = evaluator->EvaluateBatch(batch, parallelism);
    if (!objs.ok()) {
      if (objs.status().code() == StatusCode::kResourceExhausted) break;
      return objs.status();
    }
    for (size_t i = 0; i < objs->size(); ++i) record(design[start + i], (*objs)[i]);
  }

  // Batched Bayesian optimization: each round fits one GP (hyper search and
  // acquisition scans on the evaluator's pool), then picks k candidates with
  // the constant-liar heuristic — after each pick, pretend the point
  // observed the incumbent best ("lie"), absorb it into the GP
  // incrementally (AddObservation, O(n²)), and re-run the acquisition so
  // the k proposals repel each other.
  ThreadPool* pool = evaluator->thread_pool(parallelism);
  size_t bo_rounds = 0;
  size_t proposed = 0;
  size_t model_failures = 0;
  double last_acq = 0.0;
  AcquisitionWorkspace ws;
  while (!evaluator->Exhausted()) {
    size_t affordable = static_cast<size_t>(
        std::max(0.0, evaluator->Remaining() + 1e-9));
    size_t k = std::min(parallelism, affordable);
    if (k == 0) break;
    GaussianProcess gp(GpHyperParams{options_.kernel, {}, 1.0, 1e-4});
    Status fit =
        gp.FitWithHyperSearch(xs, ys, options_.gp_hyper_budget, rng, pool);
    std::vector<Vec> proposals;
    std::vector<Configuration> batch;
    proposals.reserve(k);
    batch.reserve(k);
    if (fit.ok()) {
      model_failures = 0;
      double lie = *std::min_element(ys.begin(), ys.end());
      std::vector<Vec> lie_xs = xs;
      Vec lie_ys = ys;
      for (size_t j = 0; j < k; ++j) {
        Vec cand;
        {
          ScopedSpan span(CurrentTracer(), "acquisition");
          AnnotateAcquisition(&span, options_, nullptr);
          GenerateCandidates(options_, lie_xs, lie_ys, dims, rng, &ws);
          cand = ScoreCandidates(gp, options_, lie_ys, pool, &ws, &last_acq);
        }
        batch.push_back(space.FromUnitVector(cand));
        if (j + 1 < k) {
          // Liar update; a degenerate append falls back to a full refit
          // inside AddObservation, so the status is advisory only.
          (void)gp.AddObservation(cand, lie);
          lie_xs.push_back(cand);
          lie_ys.push_back(lie);
        }
        proposals.push_back(std::move(cand));
      }
    } else {
      // Degenerate GP: random fallback for one-off failures, escalate when
      // persistent (see the serial loop for rationale).
      if (++model_failures >= kMaxConsecutiveModelFailures) return fit;
      for (size_t j = 0; j < k; ++j) {
        Vec cand(dims);
        for (double& x : cand) x = rng->Uniform();
        batch.push_back(space.FromUnitVector(cand));
        proposals.push_back(std::move(cand));
      }
    }
    auto objs = evaluator->EvaluateBatch(batch, parallelism);
    if (!objs.ok()) {
      if (objs.status().code() == StatusCode::kResourceExhausted) break;
      return objs.status();
    }
    for (size_t i = 0; i < objs->size(); ++i) record(proposals[i], (*objs)[i]);
    proposed += objs->size();
    ++bo_rounds;
  }
  report_ = StrFormat(
      "LHS design %zu + %zu constant-liar rounds of %zu (%zu proposals, "
      "final acq %.4f, %zu obs)",
      design.size(), bo_rounds, parallelism, proposed, last_acq, xs.size());
  return Status::OK();
}

}  // namespace atune
