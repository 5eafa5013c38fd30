// Resume-equivalence tests for the write-ahead trial journal (DESIGN.md §8):
// a session interrupted after k journaled records and resumed must reach an
// outcome bit-identical to the uninterrupted session — same history, same
// best, same budget, same robustness counters — for every registered tuner,
// with measurement noise on and transient faults injected.

#include <cstdio>
#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/journal.h"
#include "core/registry.h"
#include "core/session.h"
#include "systems/fault_injector.h"
#include "tests/testing_util.h"
#include "tuners/builtin.h"

namespace atune {
namespace {

constexpr size_t kBudget = 8;
constexpr uint64_t kSeed = 11;
constexpr double kFaultRate = 0.15;

std::string JournalPath(const std::string& name) {
  return testing_util::TestTempPath("resume_" + name + ".wal");
}

struct SessionRun {
  Status status = Status::OK();
  TuningOutcome outcome;
  bool ok() const { return status.ok(); }
};

// One full session against a freshly built noisy DBMS behind a transient
// fault injector, so the journal has to carry live robustness state.
SessionRun RunOnce(const std::string& tuner_name, const std::string& journal,
                   uint64_t kill_after, bool resume) {
  SessionRun run;
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  auto tuner = registry.Create(tuner_name);
  if (!tuner.ok()) {
    run.status = tuner.status();
    return run;
  }
  auto dbms = testing_util::MakeTestDbms(kSeed, /*noise=*/true);
  FaultProfile profile;
  profile.transient_failure_rate = kFaultRate;
  FaultInjectingSystem faulty(dbms.get(), profile);

  SessionOptions options;
  options.budget = TuningBudget{kBudget};
  options.seed = kSeed;
  options.measure_default = false;
  options.journal_path = journal;
  options.interrupt_after_records = kill_after;
  const Workload workload = MakeDbmsOlapWorkload(1.0);
  auto outcome =
      resume ? ResumeTuningSession(tuner->get(), &faulty, workload, options)
             : RunTuningSession(tuner->get(), &faulty, workload, options);
  if (!outcome.ok()) {
    run.status = outcome.status();
    return run;
  }
  run.outcome = std::move(*outcome);
  return run;
}

// Exact (bitwise, not approximate) outcome equality. replayed_records and
// recovery_warnings are deliberately not compared: they describe HOW the
// session got here, not WHERE it ended up.
void ExpectOutcomeEq(const TuningOutcome& want, const TuningOutcome& got,
                     const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(want.history.size(), got.history.size());
  for (size_t i = 0; i < want.history.size(); ++i) {
    SCOPED_TRACE("trial " + std::to_string(i));
    const Trial& a = want.history[i];
    const Trial& b = got.history[i];
    EXPECT_TRUE(a.config == b.config);
    EXPECT_EQ(a.objective, b.objective);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.round, b.round);
    EXPECT_EQ(a.scaled, b.scaled);
    EXPECT_EQ(a.result.runtime_seconds, b.result.runtime_seconds);
    EXPECT_EQ(a.result.failed, b.result.failed);
    EXPECT_EQ(a.result.censored, b.result.censored);
    EXPECT_EQ(a.result.failure_reason, b.result.failure_reason);
    EXPECT_EQ(a.result.metrics, b.result.metrics);
  }
  EXPECT_TRUE(want.best_config == got.best_config);
  EXPECT_EQ(want.best_objective, got.best_objective);
  EXPECT_EQ(want.evaluations_used, got.evaluations_used);
  EXPECT_EQ(want.failed_runs, got.failed_runs);
  EXPECT_EQ(want.censored_runs, got.censored_runs);
  EXPECT_EQ(want.retried_runs, got.retried_runs);
  EXPECT_EQ(want.timed_out_runs, got.timed_out_runs);
  EXPECT_EQ(want.remeasured_runs, got.remeasured_runs);
}

uint64_t RecordCount(const std::string& path) {
  auto recovered = TrialJournal::OpenForResume(path);
  return recovered.ok() ? recovered->records.size() : 0;
}

// The headline guarantee, for every tuner the registry can aim at the DBMS:
// kill after 1, n/2, and n-1 journaled records, resume, compare everything.
TEST(ResumeTest, EveryRegistryTunerResumesBitIdentical) {
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  size_t applicable = 0;
  for (const std::string& name : registry.Names()) {
    const std::string path = JournalPath(name);
    std::remove(path.c_str());
    SessionRun baseline = RunOnce(name, path, /*kill_after=*/0,
                                  /*resume=*/false);
    if (!baseline.ok()) continue;  // tuner does not target this platform
    ++applicable;
    const uint64_t records = RecordCount(path);
    std::remove(path.c_str());
    if (records < 2) continue;  // one-shot: no mid-run to interrupt

    std::set<uint64_t> kill_points = {1, records / 2, records - 1};
    for (uint64_t kill : kill_points) {
      if (kill == 0 || kill >= records) continue;
      SCOPED_TRACE(name + " killed after " + std::to_string(kill) + "/" +
                   std::to_string(records) + " records");
      std::remove(path.c_str());
      SessionRun interrupted = RunOnce(name, path, kill, /*resume=*/false);
      // The interrupt must surface as kAborted, never success or a crash.
      ASSERT_FALSE(interrupted.ok());
      EXPECT_EQ(interrupted.status.code(), StatusCode::kAborted);
      // Recovery may drop a trailing incomplete batch, so the durable
      // prefix can be shorter than the kill point — never longer.
      const uint64_t durable = RecordCount(path);
      EXPECT_LE(durable, kill);

      SessionRun resumed = RunOnce(name, path, /*kill_after=*/0,
                                   /*resume=*/true);
      ASSERT_TRUE(resumed.ok()) << resumed.status.message();
      EXPECT_EQ(resumed.outcome.replayed_records, durable);
      ExpectOutcomeEq(baseline.outcome, resumed.outcome, name);
      std::remove(path.c_str());
    }
  }
  // The registry ships experiment-driven, model-based, and rule-based
  // tuners for this system; a refactor that silently un-registers them
  // would otherwise make this test pass vacuously.
  EXPECT_GE(applicable, 10u);
}

TEST(ResumeTest, ResumingACompletedSessionReplaysEverything) {
  const std::string path = JournalPath("completed");
  std::remove(path.c_str());
  SessionRun baseline =
      RunOnce("random-search", path, /*kill_after=*/0, /*resume=*/false);
  ASSERT_TRUE(baseline.ok());
  const uint64_t records = RecordCount(path);
  ASSERT_GT(records, 0u);

  SessionRun resumed =
      RunOnce("random-search", path, /*kill_after=*/0, /*resume=*/true);
  ASSERT_TRUE(resumed.ok()) << resumed.status.message();
  EXPECT_EQ(resumed.outcome.replayed_records, records);
  ExpectOutcomeEq(baseline.outcome, resumed.outcome, "completed");
  std::remove(path.c_str());
}

TEST(ResumeTest, ResumeWithoutJournalFileStartsFresh) {
  const std::string path = JournalPath("fresh_base");
  std::remove(path.c_str());
  SessionRun baseline =
      RunOnce("random-search", path, /*kill_after=*/0, /*resume=*/false);
  ASSERT_TRUE(baseline.ok());
  std::remove(path.c_str());

  // "Always resume" must be a safe operating mode: with no journal on disk
  // it degrades to a fresh (and identical) session.
  const std::string missing = JournalPath("fresh_missing");
  std::remove(missing.c_str());
  SessionRun resumed =
      RunOnce("random-search", missing, /*kill_after=*/0, /*resume=*/true);
  ASSERT_TRUE(resumed.ok()) << resumed.status.message();
  EXPECT_EQ(resumed.outcome.replayed_records, 0u);
  ExpectOutcomeEq(baseline.outcome, resumed.outcome, "fresh");
  std::remove(missing.c_str());
}

TEST(ResumeTest, MismatchedSessionParametersRefuseToResume) {
  const std::string path = JournalPath("mismatch");
  std::remove(path.c_str());
  SessionRun interrupted =
      RunOnce("random-search", path, /*kill_after=*/2, /*resume=*/false);
  ASSERT_FALSE(interrupted.ok());

  // Same journal, different seed: replay would silently diverge, so the
  // header check must reject it up front.
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  auto tuner = registry.Create("random-search");
  ASSERT_TRUE(tuner.ok());
  auto dbms = testing_util::MakeTestDbms(kSeed, /*noise=*/true);
  SessionOptions options;
  options.budget = TuningBudget{kBudget};
  options.seed = kSeed + 1;
  options.measure_default = false;
  options.journal_path = path;
  auto outcome = ResumeTuningSession(tuner->get(), dbms.get(),
                                     MakeDbmsOlapWorkload(1.0), options);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ResumeTest, InterruptCheckCallbackAbortsBetweenTrials) {
  const std::string path = JournalPath("signal");
  std::remove(path.c_str());
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  auto tuner = registry.Create("random-search");
  ASSERT_TRUE(tuner.ok());
  auto dbms = testing_util::MakeTestDbms(kSeed, /*noise=*/true);
  SessionOptions options;
  options.budget = TuningBudget{kBudget};
  options.seed = kSeed;
  options.measure_default = false;
  options.journal_path = path;
  // Models a SIGINT flag that goes up while trial 3 is in flight.
  size_t polls = 0;
  options.interrupt_check = [&polls]() { return ++polls > 3; };
  auto outcome = RunTuningSession(tuner->get(), dbms.get(),
                                  MakeDbmsOlapWorkload(1.0), options);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kAborted);
  // Whatever was committed before the signal is durable and resumable.
  EXPECT_GT(RecordCount(path), 0u);
  EXPECT_LT(RecordCount(path), kBudget);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace atune
