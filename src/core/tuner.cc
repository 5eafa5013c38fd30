#include "core/tuner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/alloc_hook.h"
#include "common/io_env.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/string_util.h"

namespace atune {

namespace {

/// Deterministic annotations shared by live and replayed trial spans: every
/// value either comes from (live) the committed trial / upcoming journal seq
/// or (replay) the journal record — bit-identical by construction, so the
/// structural tree comparison can include them.
void AnnotateTrialSpan(ScopedSpan* span, bool has_seq, uint64_t seq,
                       const Trial& trial, uint64_t batch_size,
                       uint64_t lane) {
  if (!span->active()) return;
  if (has_seq) span->AddArg("seq", std::to_string(seq));
  span->AddArg("round", std::to_string(trial.round));
  if (batch_size > 1) {
    span->AddArg("batch_size", std::to_string(batch_size));
    span->AddArg("lane", std::to_string(lane));
  }
  span->AddArg("cost", TraceDouble(trial.cost));
  span->AddArg("objective", TraceDouble(trial.objective));
  span->AddArg("runtime", TraceDouble(trial.result.runtime_seconds));
  if (trial.scaled) span->AddArg("scaled", "1");
  if (trial.result.censored) {
    span->AddArg("censored", "1");
  } else if (trial.result.failed) {
    span->AddArg("failed", "1");
  }
}

}  // namespace

const char* TunerCategoryToString(TunerCategory category) {
  switch (category) {
    case TunerCategory::kRuleBased:
      return "rule-based";
    case TunerCategory::kCostModeling:
      return "cost-modeling";
    case TunerCategory::kSimulationBased:
      return "simulation-based";
    case TunerCategory::kExperimentDriven:
      return "experiment-driven";
    case TunerCategory::kMachineLearning:
      return "machine-learning";
    case TunerCategory::kAdaptive:
      return "adaptive";
  }
  return "?";
}

Evaluator::Evaluator(TunableSystem* system, Workload workload,
                     TuningBudget budget, double failure_penalty)
    : system_(system),
      workload_(std::move(workload)),
      budget_(budget),
      budget_max_(static_cast<double>(budget.max_evaluations)),
      failure_penalty_(failure_penalty) {
  // Reserve the history up front (bounded for absurd budgets) so steady-state
  // commits never reallocate the trial vector. Repairs can commit more
  // trials than the budget counts; the slack covers typical overage and a
  // rare regrowth is correct, just not free.
  history_.reserve(std::min<size_t>(budget.max_evaluations + 16, 4096));
}

void Evaluator::set_metrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  m_ = MetricSet{};
  if (metrics_ == nullptr) return;
  m_.trial_latency = metrics_->GetHistogram("trial.latency_seconds");
  m_.trial_cost = metrics_->GetHistogram("trial.cost_units");
  m_.queue_wait = metrics_->GetHistogram("pool.queue_wait_host_seconds");
  m_.trials = metrics_->GetCounter("trial.total");
  m_.failed = metrics_->GetCounter("trial.failed");
  m_.censored = metrics_->GetCounter("trial.censored");
  m_.retried = metrics_->GetCounter("trial.retried");
  m_.timed_out = metrics_->GetCounter("trial.timed_out");
  m_.remeasured = metrics_->GetCounter("trial.remeasured");
  m_.replayed = metrics_->GetCounter("trial.replayed");
  m_.budget_used = metrics_->GetGauge("budget.used_units");
  m_.budget_retry = metrics_->GetGauge("budget.retry_units");
  m_.budget_remeasure = metrics_->GetGauge("budget.remeasure_units");
  m_.io_appends = metrics_->GetCounter("io.append.total");
  m_.io_round_bytes = metrics_->GetHistogram("io.append.bytes");
  m_.io_fsync = metrics_->GetHistogram("io.fsync_host_seconds");
  m_.io_retries = metrics_->GetCounter("io.append.retries");
  m_.io_shorts = metrics_->GetCounter("io.append.short_writes");
  m_.io_errors = metrics_->GetCounter("io.error.total");
  m_.io_degraded = metrics_->GetGauge("io.journal.degraded");
}

void Evaluator::RecordTrialMetrics(const Trial& trial) {
  if (metrics_ == nullptr) return;
  m_.trials->Increment();
  if (trial.result.censored) {
    m_.censored->Increment();
  } else if (trial.result.failed) {
    m_.failed->Increment();
  }
  m_.trial_latency->Record(trial.result.runtime_seconds);
  m_.trial_cost->Record(trial.cost);
  m_.budget_used->Set(used_);
}

void Evaluator::SynthesizeRepairSpans(uint64_t trial_span, bool synth_measure,
                                      uint64_t retries, uint64_t remeasures) {
  if (tracer_ == nullptr) return;
  if (synth_measure) {
    tracer_->RecordSynthetic(trial_span, "measure", nullptr, {});
  }
  for (uint64_t i = 0; i < retries; ++i) {
    tracer_->RecordSynthetic(trial_span, "retry", nullptr, {});
  }
  for (uint64_t i = 0; i < remeasures; ++i) {
    tracer_->RecordSynthetic(trial_span, "remeasure", nullptr, {});
  }
}

double Evaluator::ObjectiveOf(const Configuration& config,
                              const ExecutionResult& result) const {
  if (objective_) return objective_(config, result);
  double obj = result.runtime_seconds;
  if (result.failed) obj *= failure_penalty_;
  return obj;
}

void Evaluator::CommitTrial(Configuration config, ExecutionResult result,
                            double cost, bool exclude_from_best) {
  commit_allocs_sample_ = SampleAllocCount();
  used_ += cost;
  Trial trial;
  trial.objective = ObjectiveOf(config, result);
  trial.config = std::move(config);
  trial.result = std::move(result);
  trial.cost = cost;
  trial.scaled = exclude_from_best;
  trial.round = round_;
  history_.push_back(std::move(trial));
  if (!exclude_from_best &&
      (!has_best_ ||
       history_.back().objective < history_[best_index_].objective)) {
    best_index_ = history_.size() - 1;
    has_best_ = true;
  }
  // The guard sees every committed observation (ReplayTrial mirrors this),
  // so breaker state is a pure function of the journaled sequence.
  if (guard_ != nullptr) guard_->Observe(history_.back());
}

ExecutionResult Evaluator::RetryTransient(const Configuration& config,
                                          const Workload& workload,
                                          ExecutionResult result,
                                          double base_cost, double reserved,
                                          double* cost,
                                          uint64_t parent_span) {
  size_t attempts = 0;
  while (result.failed && result.transient &&
         attempts < policy_.max_retries) {
    double retry_cost = policy_.retry_cost_fraction * base_cost;
    // `reserved` already includes this run's base cost; only the extras
    // accrued so far (*cost - base_cost) and the new retry come on top.
    if (used_ + reserved + (*cost - base_cost) + retry_cost >
        budget_max_ + kBudgetEpsilon) {
      break;  // no budget left to retry; degrade to the failed measurement
    }
    // Manual span rather than ScopedSpan: a retry that fails to execute is
    // never recorded, matching replay synthesis (which only sees the
    // counted retries).
    uint64_t span_id = 0;
    uint64_t begin_ns = 0;
    if (tracer_ != nullptr) {
      span_id = tracer_->BeginSpan();
      begin_ns = tracer_->NowNs();
    }
    auto again = CountedExecute(config, workload);
    if (!again.ok()) break;  // repair impossible; keep what we measured
    if (tracer_ != nullptr) {
      tracer_->EndSpan(span_id, parent_span, "retry", nullptr, begin_ns, {});
    }
    *cost += retry_cost;
    ++attempts;
    ++retried_runs_;
    if (m_.retried != nullptr) {
      m_.retried->Increment();
      m_.budget_retry->Add(retry_cost);
    }
    result = *std::move(again);
  }
  return result;
}

double Evaluator::OutlierScore(double runtime) const {
  std::vector<double> runtimes;
  runtimes.reserve(history_.size());
  for (const Trial& t : history_) {
    if (t.scaled || t.result.failed || t.result.censored) continue;
    runtimes.push_back(t.result.runtime_seconds);
  }
  if (runtimes.size() < policy_.outlier_min_history) return 0.0;
  MadResult stats = Mad(std::move(runtimes));
  // Floor the MAD so a near-degenerate history (repeated identical
  // measurements) doesn't make every new config look suspicious.
  double mad =
      std::max({stats.mad, 0.01 * std::abs(stats.median), 1e-12});
  return 0.6745 * std::abs(runtime - stats.median) / mad;
}

ExecutionResult Evaluator::ApplyRobustnessPolicy(const Configuration& config,
                                                 ExecutionResult result,
                                                 double reserved,
                                                 double* cost,
                                                 bool* exclude_from_best,
                                                 uint64_t parent_span) {
  *cost = 1.0;
  *exclude_from_best = false;
  result = RetryTransient(config, workload_, std::move(result), 1.0,
                          reserved, cost, parent_span);

  // Timeout watchdog: reclaim hung (or merely interminable) runs at the
  // threshold. Early-abort cost accounting: we only watched the run for
  // timeout_seconds of its wall-clock, so charge that fraction (with the
  // same 0.05 setup floor); the censored lower bound never becomes a best.
  if (policy_.timeout_seconds > 0.0 &&
      result.runtime_seconds > policy_.timeout_seconds) {
    double fraction = policy_.timeout_seconds / result.runtime_seconds;
    // Written as (cost - 1) + floor so the 0.05 floor is exact when no
    // retry surcharges preceded it (cost == 1.0).
    *cost = (*cost - 1.0) + std::max(0.05, std::min(1.0, fraction));
    result.runtime_seconds = policy_.timeout_seconds;
    result.censored = true;
    result.failure_reason = StrFormat(
        "killed by timeout watchdog after %.0f s", policy_.timeout_seconds);
    ++timed_out_runs_;
    if (m_.timed_out != nullptr) m_.timed_out->Increment();
    *exclude_from_best = true;
    return result;
  }

  // MAD outlier re-measurement: a completed run far outside the history's
  // runtime distribution is either a straggler, a corrupted measurement, or
  // a genuinely extreme configuration — re-running distinguishes them, and
  // committing the median measurement is right in every case.
  if (policy_.outlier_mad_threshold > 0.0 && !result.failed &&
      OutlierScore(result.runtime_seconds) > policy_.outlier_mad_threshold) {
    std::vector<ExecutionResult> measurements;
    measurements.push_back(result);
    for (size_t i = 0; i < policy_.remeasure_runs; ++i) {
      if (used_ + reserved + (*cost - 1.0) + 1.0 >
          budget_max_ + kBudgetEpsilon) {
        break;  // keep what we can afford
      }
      uint64_t span_id = 0;
      uint64_t begin_ns = 0;
      if (tracer_ != nullptr) {
        span_id = tracer_->BeginSpan();
        begin_ns = tracer_->NowNs();
      }
      auto again = CountedExecute(config, workload_);
      if (!again.ok()) break;
      if (tracer_ != nullptr) {
        tracer_->EndSpan(span_id, parent_span, "remeasure", nullptr, begin_ns,
                         {});
      }
      *cost += 1.0;
      ++remeasured_runs_;
      if (m_.remeasured != nullptr) {
        m_.remeasured->Increment();
        m_.budget_remeasure->Add(1.0);
      }
      measurements.push_back(RetryTransient(config, workload_,
                                            *std::move(again), 1.0, reserved,
                                            cost, parent_span));
    }
    if (measurements.size() > 1) {
      std::sort(measurements.begin(), measurements.end(),
                [](const ExecutionResult& a, const ExecutionResult& b) {
                  return a.runtime_seconds < b.runtime_seconds;
                });
      result = measurements[measurements.size() / 2];
    }
  }
  return result;
}

Status Evaluator::RefuseBudget() {
  budget_refused_ = true;
  return Status::ResourceExhausted(
      StrFormat("tuning budget exhausted (%.1f/%.1f runs)", used_,
                budget_max_));
}

Status Evaluator::Refuse(double needed) {
  if (lease_active_ && used_ + needed <= budget_max_ + kBudgetEpsilon) {
    // The lease is spent but the real budget would still fund this call:
    // refuse without the terminal latch so the session resumes normal
    // accounting once the lease clears. The lease-scoped latch makes
    // fractional leftovers safe for `while (!Exhausted())` tuners (see
    // Exhausted()); ClearLease() resets it.
    lease_refused_ = true;
    return Status::ResourceExhausted(
        StrFormat("evaluation lease exhausted (%.1f/%.1f leased units)",
                  used_, lease_limit_));
  }
  return RefuseBudget();
}

namespace {
Status InterruptedStatus() {
  return Status::Aborted(
      "tuning session interrupted; progress is checkpointed in the trial "
      "journal");
}
}  // namespace

bool Evaluator::InterruptRequested() {
  if (interrupted_) return true;
  bool fire = interrupt_check_ && interrupt_check_();
  if (record_limit_ > 0 && journal_ != nullptr &&
      journal_->next_seq() >= record_limit_) {
    fire = true;
  }
  if (fire) {
    interrupted_ = true;
    // Also refuse the budget so `while (!Exhausted())` tuners wind down
    // even if they swallow the kAborted status.
    budget_refused_ = true;
  }
  return fire;
}

Status Evaluator::EntryGate() {
  if (!journal_error_.ok()) return journal_error_;
  if (InterruptRequested()) return InterruptedStatus();
  return Status::OK();
}

Result<ExecutionResult> Evaluator::CountedExecute(const Configuration& config,
                                                  const Workload& workload) {
  ++system_runs_;
  return system_->Execute(config, workload);
}

Status Evaluator::JournalTrial(uint64_t batch_size, uint64_t lane,
                               uint64_t parent_span) {
  if (journal_ == nullptr) {
    last_commit_allocs_ = SampleAllocCount() - commit_allocs_sample_;
    return Status::OK();
  }
  const Trial& trial = history_.back();
  // Borrow the committed trial's config/result instead of copying them into
  // an owning record — with AppendRef's reused frame buffer, the journal
  // half of the commit path allocates nothing in steady state.
  JournalRecordRef rec;
  rec.kind = JournalRecordKind::kTrial;
  rec.seq = journal_->next_seq();
  rec.config = &trial.config;
  rec.result = &trial.result;
  rec.objective = trial.objective;
  rec.cost = trial.cost;
  rec.scaled = trial.scaled;
  rec.round = trial.round;
  rec.batch_size = batch_size;
  rec.lane = lane;
  rec.system_runs = system_runs_;
  rec.used = used_;
  rec.retried_runs = retried_runs_;
  rec.timed_out_runs = timed_out_runs_;
  rec.remeasured_runs = remeasured_runs_;
  uint64_t span_id = 0;
  uint64_t begin_ns = 0;
  if (tracer_ != nullptr) {
    span_id = tracer_->BeginSpan();
    begin_ns = tracer_->NowNs();
  }
  Status status = journal_->AppendRef(rec);
  // The round, not the record, is the unit of durability: recovery keeps
  // whole batches only, so fsyncing lanes before the last one would buy
  // nothing a resume could use.
  if (status.ok() && lane + 1 == batch_size) status = CommitRound();
  last_commit_allocs_ = SampleAllocCount() - commit_allocs_sample_;
  RecordIoTelemetry();
  if (!status.ok()) {
    ATUNE_RETURN_IF_ERROR(
        HandleJournalFailure(std::move(status), parent_span));
  } else {
    if (m_.io_appends != nullptr) m_.io_appends->Increment();
    // The span marks the commit boundary; structurally it is "commit", the
    // same structural name the replay path emits, so resumed and
    // uninterrupted traces agree.
    if (tracer_ != nullptr) {
      tracer_->EndSpan(span_id, parent_span, "journal_append", "commit",
                       begin_ns, {});
    }
  }
  // Firing the interrupt here (rather than at the next call's entry gate)
  // means a kill lands with the round durable but its measurements never
  // reaching the tuner — exactly the crash the journal defends against —
  // and stops a long batch mid-round, where recovery drops the uncommitted
  // lanes just as a crash there would.
  if (InterruptRequested()) return InterruptedStatus();
  return Status::OK();
}

Status Evaluator::CommitRound() {
  if (m_.io_fsync == nullptr) return journal_->Commit();
  const uint64_t bytes = journal_->pending_bytes();
  auto begin = std::chrono::steady_clock::now();
  Status status = journal_->Commit();
  if (status.ok()) {
    m_.io_fsync->Record(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - begin)
                            .count());
    m_.io_round_bytes->Record(static_cast<double>(bytes));
  }
  return status;
}

Status Evaluator::JournalUnit(const Configuration& config, size_t unit_index,
                              const ExecutionResult& result, double cost,
                              uint64_t parent_span) {
  uint64_t sample = SampleAllocCount();
  if (journal_ == nullptr) {
    last_commit_allocs_ = SampleAllocCount() - sample;
    return Status::OK();
  }
  JournalRecordRef rec;
  rec.kind = JournalRecordKind::kUnit;
  rec.seq = journal_->next_seq();
  rec.config = &config;
  rec.result = &result;
  rec.objective = ObjectiveOf(config, result);
  rec.cost = cost;
  rec.round = round_;
  rec.unit_index = unit_index;
  rec.system_runs = system_runs_;
  rec.used = used_;
  rec.retried_runs = retried_runs_;
  rec.timed_out_runs = timed_out_runs_;
  rec.remeasured_runs = remeasured_runs_;
  uint64_t span_id = 0;
  uint64_t begin_ns = 0;
  if (tracer_ != nullptr) {
    span_id = tracer_->BeginSpan();
    begin_ns = tracer_->NowNs();
  }
  Status status = journal_->AppendRef(rec);
  if (status.ok()) status = CommitRound();
  last_commit_allocs_ = SampleAllocCount() - sample;
  RecordIoTelemetry();
  if (!status.ok()) {
    ATUNE_RETURN_IF_ERROR(
        HandleJournalFailure(std::move(status), parent_span));
  } else {
    if (m_.io_appends != nullptr) m_.io_appends->Increment();
    if (tracer_ != nullptr) {
      tracer_->EndSpan(span_id, parent_span, "journal_append", "commit",
                       begin_ns, {});
    }
  }
  if (InterruptRequested()) return InterruptedStatus();
  return Status::OK();
}

Status Evaluator::HandleJournalFailure(Status status, uint64_t parent_span) {
  if (m_.io_errors != nullptr) m_.io_errors->Increment();
  if (journal_policy_ == JournalPolicy::kStrict) {
    journal_error_ = status;
    return status;
  }
  // Degrade: availability over resumability. Detach the journal so no
  // further appends are attempted, and leave a durable sidecar so a later
  // resume refuses the now-incomplete record instead of silently replaying
  // a truncated history.
  journal_degraded_ = true;
  const std::string sidecar = journal_->path() + kDegradedSidecarSuffix;
  journal_ = nullptr;
  IoEnv* env = IoEnv::Current();
  auto marker = env->OpenWritable(sidecar, IoEnv::OpenMode::kTruncate);
  if (marker.ok()) {
    std::string message = "journal degraded: " + status.message() + "\n";
    (void)WriteFully(env, marker->get(), message.data(), message.size());
    (void)(*marker)->Sync();
    (void)(*marker)->Close();
    (void)env->SyncDir(sidecar);
  }
  if (m_.io_degraded != nullptr) m_.io_degraded->Set(1.0);
  if (tracer_ != nullptr) {
    tracer_->RecordSynthetic(parent_span, "journal_degrade", nullptr, {});
  }
  ATUNE_LOG(Warning) << "journal degraded (" << status.ToString()
                     << "); tuning continues un-journaled and this session "
                        "can no longer be resumed";
  return Status::OK();
}

void Evaluator::RecordIoTelemetry() {
  if (journal_ == nullptr || metrics_ == nullptr) return;
  uint64_t retries = journal_->write_retries();
  uint64_t shorts = journal_->short_writes();
  if (retries > io_retries_seen_) {
    m_.io_retries->Increment(retries - io_retries_seen_);
    io_retries_seen_ = retries;
  }
  if (shorts > io_shorts_seen_) {
    m_.io_shorts->Increment(shorts - io_shorts_seen_);
    io_shorts_seen_ = shorts;
  }
}

Status Evaluator::ReplayTrial(const Configuration& config,
                              uint64_t batch_size, uint64_t lane,
                              uint64_t parent_span, bool synth_measure) {
  // Replay-consistency errors latch into journal_error_: they are
  // durability failures, and the latch keeps supervision layers from
  // mistaking them for a tuner's numerical failure and failing over past a
  // corrupted resume.
  if (replay_pos_ >= replay_.size()) {
    return StickyReplayError(Status::Internal(
        "journal replay ended mid-call; the journal does not match the "
        "tuner's request sequence"));
  }
  const JournalRecord& rec = replay_[replay_pos_];
  if (rec.kind != JournalRecordKind::kTrial || rec.batch_size != batch_size ||
      rec.lane != lane || !(rec.config == config)) {
    return StickyReplayError(Status::Internal(StrFormat(
        "journal replay diverged at record %llu: the tuner requested a "
        "different evaluation than the one journaled (check that the resumed "
        "session uses identical parameters, including any custom objective)",
        static_cast<unsigned long long>(rec.seq))));
  }
  ++replay_pos_;
  ATUNE_RETURN_IF_ERROR(StickyReplayError(FastForwardSystem(rec)));
  // Counter deltas relative to the previous record reconstruct the repair
  // activity this trial performed live (the journal stores the counters
  // cumulatively) — capture them before the counters are overwritten.
  uint64_t delta_retried = rec.retried_runs - retried_runs_;
  uint64_t delta_timed_out = rec.timed_out_runs - timed_out_runs_;
  uint64_t delta_remeasured = rec.remeasured_runs - remeasured_runs_;
  // Re-apply the committed trial exactly: same round, same cost, same
  // cumulative budget/counters/noise cursor as the uninterrupted session.
  round_ = rec.round;
  Trial trial;
  trial.config = rec.config;
  trial.result = rec.result;
  trial.objective = rec.objective;
  trial.cost = rec.cost;
  trial.scaled = rec.scaled;
  trial.round = rec.round;
  history_.push_back(std::move(trial));
  if (!rec.scaled &&
      (!has_best_ ||
       history_.back().objective < history_[best_index_].objective)) {
    best_index_ = history_.size() - 1;
    has_best_ = true;
  }
  used_ = rec.used;
  retried_runs_ = rec.retried_runs;
  timed_out_runs_ = rec.timed_out_runs;
  remeasured_runs_ = rec.remeasured_runs;
  // Mirror the live CommitTrial's guard feedback so replayed sessions
  // rebuild identical supervision state (crash regions, trial clock).
  if (guard_ != nullptr) guard_->Observe(history_.back());
  // Emit the same span structure the live trial emitted: the trial span
  // with synthesized measure/retry/remeasure children and a commit-boundary
  // span (structural name "commit", like the live journal_append).
  {
    ScopedSpan trial_span(tracer_, "trial", parent_span);
    AnnotateTrialSpan(&trial_span, /*has_seq=*/true, rec.seq, history_.back(),
                      batch_size, lane);
    SynthesizeRepairSpans(trial_span.id(), synth_measure, delta_retried,
                          delta_remeasured);
    if (tracer_ != nullptr) {
      tracer_->RecordSynthetic(trial_span.id(), "replay", "commit", {});
    }
  }
  if (metrics_ != nullptr) {
    // Deterministic metrics are re-recorded from the journal, mirroring the
    // live recording sequence so a resumed registry matches bit-for-bit
    // (budget.retry_units reconstructs each live Add(retry_cost); the
    // full-run retry cost is exact, scaled-trial retries are approximated
    // with base cost 1.0 — see DESIGN.md §9).
    for (uint64_t i = 0; i < delta_retried; ++i) {
      m_.retried->Increment();
      m_.budget_retry->Add(policy_.retry_cost_fraction);
    }
    m_.timed_out->Increment(delta_timed_out);
    for (uint64_t i = 0; i < delta_remeasured; ++i) {
      m_.remeasured->Increment();
      m_.budget_remeasure->Add(1.0);
    }
    m_.replayed->Increment();
    // The journaled record was one successful append in the live session;
    // re-count it so a resumed registry matches the uninterrupted one. Its
    // round was one commit: recovery keeps whole rounds, so the round's
    // frames are the batch_size records just served.
    m_.io_appends->Increment();
    if (lane + 1 == batch_size) {
      uint64_t bytes = 0;
      for (size_t i = replay_pos_ - batch_size; i < replay_pos_; ++i) {
        bytes += replay_[i].frame_bytes;
      }
      m_.io_round_bytes->Record(static_cast<double>(bytes));
    }
    RecordTrialMetrics(history_.back());
  }
  return Status::OK();
}

Status Evaluator::FastForwardSystem(const JournalRecord& rec) {
  // Skip exactly the runs this record consumed, leaving any runs the tuner
  // performed directly on the system (off-journal, e.g. OtterTune's offline
  // repository build) to re-execute live. Because measurement noise depends
  // only on (seed, run index), re-running those interleaved at the same
  // indices reproduces them bit-identically — no tuner-side state to save.
  if (rec.system_runs < system_runs_) {
    return Status::Internal(StrFormat(
        "journal replay diverged at record %llu: system-run cursor moved "
        "backwards (%llu -> %llu)",
        static_cast<unsigned long long>(rec.seq),
        static_cast<unsigned long long>(system_runs_),
        static_cast<unsigned long long>(rec.system_runs)));
  }
  if (rec.system_runs > system_runs_) {
    system_->SkipRuns(rec.system_runs - system_runs_);
    system_runs_ = rec.system_runs;
  }
  return Status::OK();
}

Result<ExecutionResult> Evaluator::ReplayUnit(const Configuration& config,
                                              size_t unit_index) {
  if (replay_pos_ >= replay_.size()) {
    return StickyReplayError(Status::Internal(
        "journal replay ended mid-call; the journal does not match the "
        "tuner's request sequence"));
  }
  const JournalRecord& rec = replay_[replay_pos_];
  if (rec.kind != JournalRecordKind::kUnit || rec.unit_index != unit_index ||
      !(rec.config == config)) {
    return StickyReplayError(Status::Internal(StrFormat(
        "journal replay diverged at record %llu: the tuner requested a "
        "different unit execution than the one journaled",
        static_cast<unsigned long long>(rec.seq))));
  }
  ++replay_pos_;
  ATUNE_RETURN_IF_ERROR(StickyReplayError(FastForwardSystem(rec)));
  round_ = rec.round;
  used_ = rec.used;
  retried_runs_ = rec.retried_runs;
  timed_out_runs_ = rec.timed_out_runs;
  remeasured_runs_ = rec.remeasured_runs;
  {
    ScopedSpan unit_span(tracer_, "unit");
    if (unit_span.active()) {
      unit_span.AddArg("seq", std::to_string(rec.seq));
      unit_span.AddArg("unit", std::to_string(unit_index));
      unit_span.AddArg("cost", TraceDouble(rec.cost));
      unit_span.AddArg("objective", TraceDouble(rec.objective));
      unit_span.AddArg("runtime", TraceDouble(rec.result.runtime_seconds));
    }
    if (tracer_ != nullptr) {
      tracer_->RecordSynthetic(unit_span.id(), "measure", nullptr, {});
      tracer_->RecordSynthetic(unit_span.id(), "replay", "commit", {});
    }
  }
  if (metrics_ != nullptr) {
    m_.budget_used->Set(used_);
    m_.replayed->Increment();
    m_.io_appends->Increment();
    m_.io_round_bytes->Record(static_cast<double>(rec.frame_bytes));
  }
  return rec.result;
}

Result<double> Evaluator::Evaluate(const Configuration& config) {
  ATUNE_RETURN_IF_ERROR(EntryGate());
  if (used_ + 1.0 > EffectiveMax() + kBudgetEpsilon) {
    return Refuse(1.0);
  }
  Configuration admitted = AdmitProposal(config);
  ATUNE_RETURN_IF_ERROR(space().ValidateConfiguration(admitted));
  ScopedSpan round_span(tracer_, "round");
  if (replay_active()) {
    ATUNE_RETURN_IF_ERROR(ReplayTrial(admitted, /*batch_size=*/1, /*lane=*/0,
                                      round_span.id(),
                                      /*synth_measure=*/true));
    return history_.back().objective;
  }
  ScopedSpan trial_span(tracer_, "trial", round_span.id());
  ExecutionResult result;
  {
    ScopedSpan measure_span(tracer_, "measure", trial_span.id());
    ATUNE_ASSIGN_OR_RETURN(result, CountedExecute(admitted, workload_));
  }
  ++round_;
  double cost = 1.0;
  bool exclude = false;
  result = ApplyRobustnessPolicy(admitted, std::move(result), /*reserved=*/1.0,
                                 &cost, &exclude, trial_span.id());
  CommitTrial(std::move(admitted), std::move(result), cost, exclude);
  RecordTrialMetrics(history_.back());
  AnnotateTrialSpan(&trial_span, /*has_seq=*/journal_ != nullptr,
                    journal_ != nullptr ? journal_->next_seq() : 0,
                    history_.back(), /*batch_size=*/1, /*lane=*/0);
  ATUNE_RETURN_IF_ERROR(
      JournalTrial(/*batch_size=*/1, /*lane=*/0, trial_span.id()));
  return history_.back().objective;
}

ThreadPool* Evaluator::thread_pool(size_t min_threads) {
  min_threads = std::max<size_t>(min_threads, 1);
  if (pool_ == nullptr || pool_->num_threads() < min_threads) {
    pool_ = std::make_unique<ThreadPool>(min_threads);
  }
  return pool_.get();
}

ThreadPool* Evaluator::think_pool() {
  // Capped small: the candidate waves are 16-24 fits or ~100 panel chunks,
  // and every worker, like the calling thread that joins each wave, holds
  // its own n x n probe while it runs. The caller is one of the think
  // threads, so it takes one of the cores: a 4-core host runs 3 workers.
  constexpr size_t kMaxThinkThreads = 4;
  size_t threads = std::min<size_t>(std::thread::hardware_concurrency(),
                                    kMaxThinkThreads);
  if (threads <= 1) return nullptr;
  threads -= 1;
  ThreadPool* pool = thread_pool(threads);
  if (!think_pool_counted_) {
    think_pool_counted_ = true;
    if (metrics_ != nullptr) {
      metrics_->GetCounter("pool.think_host_threads")->Increment(threads);
    }
  }
  return pool;
}

Result<std::vector<double>> Evaluator::EvaluateBatch(
    const std::vector<Configuration>& configs, size_t parallelism) {
  if (configs.empty()) return std::vector<double>();
  ATUNE_RETURN_IF_ERROR(EntryGate());
  // Admit the whole submission before validation/truncation so the guard's
  // call sequence is identical live and on replay (truncation depends on
  // budget state, admission must not).
  std::vector<Configuration> admitted;
  admitted.reserve(configs.size());
  for (const Configuration& config : configs) {
    admitted.push_back(AdmitProposal(config));
  }
  for (const Configuration& config : admitted) {
    ATUNE_RETURN_IF_ERROR(space().ValidateConfiguration(config));
  }
  // Deterministic mid-batch truncation: only whole runs that still fit.
  size_t affordable =
      static_cast<size_t>(std::max(0.0, Remaining() + kBudgetEpsilon));
  if (affordable == 0) {
    return Refuse(1.0);
  }
  size_t k = std::min(admitted.size(), affordable);
  ScopedSpan round_span(tracer_, "round");
  ScopedSpan batch_span(tracer_, "batch", round_span.id());
  if (batch_span.active()) batch_span.AddArg("size", std::to_string(k));
  if (replay_active()) {
    // Recovery only ever keeps whole batches, so replay serves the full
    // wave or none of it; running dry mid-wave means the journal belongs to
    // a different request sequence.
    std::vector<double> objectives;
    objectives.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      ATUNE_RETURN_IF_ERROR(ReplayTrial(admitted[i], k, i, batch_span.id(),
                                        /*synth_measure=*/true));
      objectives.push_back(history_.back().objective);
    }
    return objectives;
  }
  ++round_;  // the whole batch is one wall-clock round

  // Lane trial spans open before the fan-out so each worker's "measure"
  // span can parent to its lane; they close lane-by-lane at commit.
  std::vector<std::unique_ptr<ScopedSpan>> lane_spans;
  if (tracer_ != nullptr) {
    lane_spans.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      lane_spans.push_back(
          std::make_unique<ScopedSpan>(tracer_, "trial", batch_span.id()));
    }
  }
  auto lane_span_id = [&](size_t i) -> uint64_t {
    return tracer_ != nullptr ? lane_spans[i]->id() : 0;
  };

  std::vector<Result<ExecutionResult>> results;
  results.reserve(k);
  std::unique_ptr<TunableSystem> probe =
      parallelism > 1 ? system_->Clone(0) : nullptr;
  if (probe == nullptr) {
    // Serial fallback (parallelism 1 or non-clonable system): identical
    // semantics, executed in submission order on the parent.
    for (size_t i = 0; i < k; ++i) {
      ScopedSpan measure_span(tracer_, "measure", lane_span_id(i));
      results.push_back(CountedExecute(admitted[i], workload_));
    }
  } else {
    // Fan out over clones. Clone i replays exactly the noise the parent
    // would draw on its i-th execution from now, so the committed history
    // is bit-identical to the serial loop above.
    std::vector<std::unique_ptr<TunableSystem>> clones;
    clones.reserve(k);
    clones.push_back(std::move(probe));  // probe == Clone(0); reuse it
    for (size_t i = 1; i < k; ++i) clones.push_back(system_->Clone(i));
    ThreadPool* pool = thread_pool(parallelism);
    std::vector<std::future<Result<ExecutionResult>>> futures;
    futures.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      TunableSystem* clone = clones[i].get();
      const Configuration* config = &admitted[i];
      uint64_t lane_span = lane_span_id(i);
      Histogram* queue_wait = m_.queue_wait;  // host-clock; see naming note
      auto submitted = std::chrono::steady_clock::now();
      futures.push_back(
          pool->Submit([clone, config, this, lane_span, queue_wait,
                        submitted]() {
            if (queue_wait != nullptr) {
              queue_wait->Record(std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() -
                                     submitted)
                                     .count());
            }
            ScopedSpan measure_span(tracer_, "measure", lane_span);
            return clone->Execute(*config, workload_);
          }));
    }
    for (size_t i = 0; i < k; ++i) results.push_back(futures[i].get());
    system_->SkipRuns(k);
    system_runs_ += k;  // the cursor tracks SkipRuns as well as executions
  }

  // Commit in submission order; an execution error (impossible for
  // validated configs on the built-in simulators, but systems may fail)
  // aborts the batch after committing the preceding trials. Robustness
  // repairs (transient retries, outlier re-measurement) re-execute on the
  // parent — realigned by SkipRuns above — so a faulty wave behaves like a
  // parallel wave followed by a serial repair phase; with nothing to repair
  // this is bit-identical to committing the wave directly.
  std::vector<double> objectives;
  objectives.reserve(k);
  double reserved = static_cast<double>(k);  // base cost of uncommitted lanes
  for (size_t i = 0; i < k; ++i) {
    if (!results[i].ok()) return results[i].status();
    double cost = 1.0;
    bool exclude = false;
    ExecutionResult repaired = ApplyRobustnessPolicy(
        admitted[i], *std::move(results[i]), reserved, &cost, &exclude,
        lane_span_id(i));
    CommitTrial(std::move(admitted[i]), std::move(repaired), cost, exclude);
    RecordTrialMetrics(history_.back());
    reserved -= 1.0;
    if (tracer_ != nullptr) {
      AnnotateTrialSpan(lane_spans[i].get(), /*has_seq=*/journal_ != nullptr,
                        journal_ != nullptr ? journal_->next_seq() : 0,
                        history_.back(), /*batch_size=*/k, /*lane=*/i);
    }
    Status append_status = JournalTrial(/*batch_size=*/k, /*lane=*/i,
                                        lane_span_id(i));
    if (tracer_ != nullptr) lane_spans[i].reset();  // lane committed
    ATUNE_RETURN_IF_ERROR(append_status);
    objectives.push_back(history_.back().objective);
  }
  return objectives;
}

Result<double> Evaluator::EvaluateWithEarlyAbort(const Configuration& config,
                                                 double abort_at_seconds,
                                                 bool* aborted) {
  if (aborted != nullptr) *aborted = false;
  if (abort_at_seconds <= 0.0) {
    return Status::InvalidArgument(
        "EvaluateWithEarlyAbort: abort threshold must be positive");
  }
  ATUNE_RETURN_IF_ERROR(EntryGate());
  // Conservative gate: a run that completes under the threshold costs a
  // full unit, so require one up front (never overspends).
  if (used_ + 1.0 > EffectiveMax() + kBudgetEpsilon) {
    return Refuse(1.0);
  }
  const Configuration admitted = AdmitProposal(config);
  ATUNE_RETURN_IF_ERROR(space().ValidateConfiguration(admitted));
  ScopedSpan round_span(tracer_, "round");
  if (replay_active()) {
    ATUNE_RETURN_IF_ERROR(ReplayTrial(admitted, /*batch_size=*/1, /*lane=*/0,
                                      round_span.id(),
                                      /*synth_measure=*/true));
    if (aborted != nullptr) *aborted = history_.back().result.censored;
    return history_.back().objective;
  }
  ScopedSpan trial_span(tracer_, "trial", round_span.id());
  ExecutionResult result;
  {
    ScopedSpan measure_span(tracer_, "measure", trial_span.id());
    ATUNE_ASSIGN_OR_RETURN(result, CountedExecute(admitted, workload_));
  }
  ++round_;
  double cost = 1.0;
  result = RetryTransient(admitted, workload_, std::move(result), 1.0,
                          /*reserved=*/1.0, &cost, trial_span.id());
  // The watchdog, when armed and tighter than the caller's threshold, kills
  // the run first — a hung run never gets to burn abort_at_seconds.
  double censor_at = abort_at_seconds;
  bool watchdog = false;
  if (policy_.timeout_seconds > 0.0 &&
      policy_.timeout_seconds < abort_at_seconds) {
    censor_at = policy_.timeout_seconds;
    watchdog = true;
  }
  if (result.runtime_seconds > censor_at && !result.failed) {
    // Censor: we only watched the run for censor_at of wall clock.
    double fraction = std::min(1.0, censor_at / result.runtime_seconds);
    cost = (cost - 1.0) + std::max(0.05, fraction);  // setup isn't free
    if (aborted != nullptr) *aborted = true;
    if (watchdog) {
      ++timed_out_runs_;
      if (m_.timed_out != nullptr) m_.timed_out->Increment();
    }
    result.censored = true;
    result.failure_reason = watchdog
                                ? StrFormat("killed by timeout watchdog "
                                            "after %.0f s", censor_at)
                                : "aborted by early-abort threshold";
    result.runtime_seconds = censor_at;
    // The objective is a *lower bound*; keep it clearly worse than any
    // incumbent below the threshold and exclude it from best-tracking
    // (its objective is not a completed measurement).
    CommitTrial(std::move(admitted), std::move(result), cost,
                /*exclude_from_best=*/true);
    RecordTrialMetrics(history_.back());
    AnnotateTrialSpan(&trial_span, /*has_seq=*/journal_ != nullptr,
                      journal_ != nullptr ? journal_->next_seq() : 0,
                      history_.back(), /*batch_size=*/1, /*lane=*/0);
    ATUNE_RETURN_IF_ERROR(
        JournalTrial(/*batch_size=*/1, /*lane=*/0, trial_span.id()));
    return history_.back().objective;
  }
  CommitTrial(std::move(admitted), std::move(result), cost);
  RecordTrialMetrics(history_.back());
  AnnotateTrialSpan(&trial_span, /*has_seq=*/journal_ != nullptr,
                    journal_ != nullptr ? journal_->next_seq() : 0,
                    history_.back(), /*batch_size=*/1, /*lane=*/0);
  ATUNE_RETURN_IF_ERROR(
      JournalTrial(/*batch_size=*/1, /*lane=*/0, trial_span.id()));
  return history_.back().objective;
}

Result<double> Evaluator::EvaluateScaled(const Configuration& config,
                                         double fraction) {
  if (fraction <= 0.0 || fraction > 1.0) {
    return Status::InvalidArgument("EvaluateScaled: fraction must be in (0,1]");
  }
  ATUNE_RETURN_IF_ERROR(EntryGate());
  if (used_ + fraction > EffectiveMax() + kBudgetEpsilon) {
    return Refuse(fraction);
  }
  // Sanitize-only: Ernest-style tuners legitimately re-propose the same
  // config at several scales, so the duplicate/veto pipeline stays out.
  Configuration admitted = SanitizeProposal(config);
  ATUNE_RETURN_IF_ERROR(space().ValidateConfiguration(admitted));
  ScopedSpan round_span(tracer_, "round");
  if (replay_active()) {
    ATUNE_RETURN_IF_ERROR(ReplayTrial(admitted, /*batch_size=*/1, /*lane=*/0,
                                      round_span.id(),
                                      /*synth_measure=*/true));
    return history_.back().objective;
  }
  Workload sample = workload_;
  sample.scale *= fraction;
  ScopedSpan trial_span(tracer_, "trial", round_span.id());
  ExecutionResult result;
  {
    ScopedSpan measure_span(tracer_, "measure", trial_span.id());
    ATUNE_ASSIGN_OR_RETURN(result, CountedExecute(admitted, sample));
  }
  ++round_;
  // Transient faults hit cheap sample runs too; a retry costs the same
  // fraction of the (scaled-down) run it re-executes.
  double cost = fraction;
  result = RetryTransient(admitted, sample, std::move(result), fraction,
                          /*reserved=*/fraction, &cost, trial_span.id());
  CommitTrial(std::move(admitted), std::move(result), cost,
              /*exclude_from_best=*/true);
  RecordTrialMetrics(history_.back());
  AnnotateTrialSpan(&trial_span, /*has_seq=*/journal_ != nullptr,
                    journal_ != nullptr ? journal_->next_seq() : 0,
                    history_.back(), /*batch_size=*/1, /*lane=*/0);
  ATUNE_RETURN_IF_ERROR(
      JournalTrial(/*batch_size=*/1, /*lane=*/0, trial_span.id()));
  return history_.back().objective;
}

Result<ExecutionResult> Evaluator::EvaluateUnit(const Configuration& config,
                                                size_t unit_index) {
  ATUNE_RETURN_IF_ERROR(EntryGate());
  IterativeSystem* iterative = system_->AsIterative();
  if (iterative == nullptr) {
    return Status::FailedPrecondition(
        StrFormat("system '%s' does not support unit-level execution",
                  system_->name().c_str()));
  }
  size_t units = std::max<size_t>(iterative->NumUnits(workload_), 1);
  double cost = 1.0 / static_cast<double>(units);
  if (used_ + cost > EffectiveMax() + kBudgetEpsilon) {
    return Refuse(cost);
  }
  // Sanitize-only: unit sequences legitimately repeat a config per unit,
  // so the duplicate/veto pipeline would corrupt composite runs.
  const Configuration admitted = SanitizeProposal(config);
  ATUNE_RETURN_IF_ERROR(space().ValidateConfiguration(admitted));
  if (replay_active()) {
    return ReplayUnit(admitted, unit_index);
  }
  ScopedSpan unit_span(tracer_, "unit");
  ++system_runs_;  // ExecuteUnit advances the system's run index like Execute
  ExecutionResult result;
  {
    ScopedSpan measure_span(tracer_, "measure", unit_span.id());
    ATUNE_ASSIGN_OR_RETURN(
        result, iterative->ExecuteUnit(admitted, workload_, unit_index));
  }
  used_ += cost;
  if (m_.budget_used != nullptr) m_.budget_used->Set(used_);
  if (unit_span.active()) {
    if (journal_ != nullptr) {
      unit_span.AddArg("seq", std::to_string(journal_->next_seq()));
    }
    unit_span.AddArg("unit", std::to_string(unit_index));
    unit_span.AddArg("cost", TraceDouble(cost));
    unit_span.AddArg("objective", TraceDouble(ObjectiveOf(admitted, result)));
    unit_span.AddArg("runtime", TraceDouble(result.runtime_seconds));
  }
  ATUNE_RETURN_IF_ERROR(
      JournalUnit(admitted, unit_index, result, cost, unit_span.id()));
  return result;
}

void Evaluator::RecordCompositeTrial(const Configuration& config,
                                     const ExecutionResult& aggregate,
                                     double cost) {
  // Sanitize so composite history entries match the configs the unit-level
  // path actually executed (EvaluateUnit sanitizes the same way).
  Configuration admitted = SanitizeProposal(config);
  ScopedSpan round_span(tracer_, "round");
  if (replay_active()) {
    // The composite trial was journaled like a serial trial; any divergence
    // surfaces through the sticky journal_error_ (this API is void). No
    // measure span is synthesized — the live path performs no base run.
    Status status = ReplayTrial(admitted, /*batch_size=*/1, /*lane=*/0,
                                round_span.id(), /*synth_measure=*/false);
    if (!status.ok() && journal_error_.ok()) journal_error_ = status;
    return;
  }
  ++round_;
  ScopedSpan trial_span(tracer_, "trial", round_span.id());
  // The budget was already charged by the unit-level evaluations; commit
  // with zero cost, then stamp the trial's nominal cost for reporting.
  CommitTrial(std::move(admitted), aggregate, 0.0);
  history_.back().cost = cost;
  RecordTrialMetrics(history_.back());
  AnnotateTrialSpan(&trial_span, /*has_seq=*/journal_ != nullptr,
                    journal_ != nullptr ? journal_->next_seq() : 0,
                    history_.back(), /*batch_size=*/1, /*lane=*/0);
  // Journal after the cost stamp so the record carries the display cost.
  JournalTrial(/*batch_size=*/1, /*lane=*/0, trial_span.id());
}

const Trial* Evaluator::best() const {
  if (!has_best_) return nullptr;
  return &history_[best_index_];
}

}  // namespace atune
