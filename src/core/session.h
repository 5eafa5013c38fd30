#ifndef ATUNE_CORE_SESSION_H_
#define ATUNE_CORE_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/tuner.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace atune {

/// Result of a completed tuning session.
struct TuningOutcome {
  std::string tuner_name;
  TunerCategory category = TunerCategory::kRuleBased;
  Configuration best_config;
  double best_objective = 0.0;
  double default_objective = 0.0;  ///< objective of the system defaults
  /// best_objective improvement over default: default/best (>1 = speedup).
  double speedup_over_default = 1.0;
  double evaluations_used = 0.0;
  /// Trials whose run genuinely failed (OOM, abort storm, unretried
  /// transient fault). Censored runs are counted separately below.
  size_t failed_runs = 0;
  /// Trials cut off before completion (early-abort threshold or timeout
  /// watchdog) — the measurement stopped, the configuration did not fail.
  size_t censored_runs = 0;
  /// Robustness-policy activity (see RobustnessPolicy): transient-failure
  /// re-executions, watchdog kills, and outlier re-measurements.
  size_t retried_runs = 0;
  size_t timed_out_runs = 0;
  size_t remeasured_runs = 0;
  std::vector<Trial> history;
  /// Best objective seen after the i-th unit of budget was spent
  /// (cumulative-cost-aligned convergence curve, one entry per trial).
  std::vector<double> convergence;
  /// Cumulative budget spent at each convergence point.
  std::vector<double> convergence_cost;
  /// Wall-clock rounds elapsed at each convergence point. A batch of k
  /// parallel experiments (Evaluator::EvaluateBatch) costs k budget units
  /// but one round, so plotting `convergence` against this curve instead of
  /// `convergence_cost` shows the wall-clock saving of parallel experiments
  /// (iTuned §2.4) while the budget curve stays comparable across tuners.
  std::vector<double> convergence_round;
  std::string tuner_report;
  /// Journal records served by deterministic replay (ResumeTuningSession);
  /// 0 for a fresh session. Excluded from outcome checksums — a resumed
  /// session is otherwise bit-identical to an uninterrupted one.
  size_t replayed_records = 0;
  /// True when a journal I/O failure degraded the session (JournalPolicy::
  /// kDegrade): tuning completed, but part of the history is un-journaled
  /// and the session cannot be resumed.
  bool journal_degraded = false;
  /// What journal recovery had to discard (torn/corrupt tail, incomplete
  /// batch), for operator visibility. Empty for fresh sessions.
  std::vector<std::string> recovery_warnings;
  /// Snapshot of SessionOptions::metrics taken when the session ended.
  /// Empty when no registry was attached. Metrics whose name contains
  /// "host" are host wall-clock and vary run to run; everything else is
  /// deterministic and survives a resume bit-identically (DESIGN.md §9).
  MetricsSnapshot metrics;
};

/// Options controlling a session.
struct SessionOptions {
  TuningBudget budget;
  uint64_t seed = 1;
  double failure_penalty = 10.0;
  /// Custom objective (see core/objective.h); empty = penalized runtime.
  ObjectiveFunction objective;
  /// Measurement-robustness policy applied by the session's Evaluator
  /// (transient-failure retries, timeout watchdog, outlier re-measurement).
  RobustnessPolicy robustness;
  /// If true (default), one extra out-of-budget run measures the system
  /// defaults so speedups can be reported. Not counted against the budget.
  bool measure_default = true;
  /// Path of the write-ahead trial journal. Empty = no journal (sessions
  /// are then not resumable). When set, every committed trial is fsynced to
  /// this file (one fsync per evaluation round) before its measurement
  /// reaches the tuner, and
  /// ResumeTuningSession can reconstruct a crashed/interrupted session.
  std::string journal_path;
  /// How the session reacts to a journal I/O failure (kStrict: abort with a
  /// clean kIoError; kDegrade: continue un-journaled with a warning and a
  /// `.degraded` sidecar that blocks later resumes). See core/journal.h.
  JournalPolicy journal_policy = JournalPolicy::kStrict;
  /// Polled before every evaluation; returning true aborts the session with
  /// kAborted after checkpointing (the CLI wires SIGINT/SIGTERM here).
  std::function<bool()> interrupt_check;
  /// Deterministic kill switch for durability testing: abort the session as
  /// soon as the journal holds this many records (0 = off).
  uint64_t interrupt_after_records = 0;
  /// Span tracer for this session (not owned; null = tracing off). The
  /// session emits the span taxonomy of DESIGN.md §9 (session → round →
  /// batch → trial → {measure, retry, remeasure, commit}, plus gp_fit /
  /// acquisition / unit) and installs the tracer as the process-wide
  /// CurrentTracer() for its duration, so at most one traced session should
  /// run at a time (concurrent untraced sessions are unaffected).
  Tracer* tracer = nullptr;
  /// Metrics registry for this session (not owned; null = metrics off);
  /// snapshot returned in TuningOutcome::metrics. Installed as
  /// CurrentMetrics() for the session's duration, like `tracer`.
  MetricsRegistry* metrics = nullptr;
};

/// Runs one tuner against one system+workload with a budget and packages the
/// outcome. This is the main entry point of the library:
///
///   SimulatedDbms dbms(DbmsClusterConfig{}, /*seed=*/7);
///   ITunedTuner tuner;
///   auto outcome = RunTuningSession(&tuner, &dbms, workload, options);
Result<TuningOutcome> RunTuningSession(Tuner* tuner, TunableSystem* system,
                                       const Workload& workload,
                                       const SessionOptions& options);

/// Resumes a session from the write-ahead journal at options.journal_path
/// (which must be set). Recovery keeps the journal's longest valid record
/// prefix, then the tuner is re-run from scratch with the Evaluator serving
/// the journaled observations (deterministic replay) — the system is only
/// executed for trials past the journal's end, after fast-forwarding its
/// noise cursor — so the outcome is bit-identical to a never-interrupted
/// session. The caller must pass the same tuner/system/workload/options as
/// the original session (the journal header is checked; custom objectives
/// cannot be fingerprinted and are the caller's responsibility). A missing
/// or header-corrupt journal starts a fresh session (with a warning), so
/// "always resume" is a safe operating mode.
Result<TuningOutcome> ResumeTuningSession(Tuner* tuner, TunableSystem* system,
                                          const Workload& workload,
                                          const SessionOptions& options);

}  // namespace atune

#endif  // ATUNE_CORE_SESSION_H_
