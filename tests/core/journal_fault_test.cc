// Journal behavior on a hostile filesystem: every fault FaultInjectingIoEnv
// can produce — short writes mid-record, ENOSPC mid-header, fsync failure on
// the final record (fsyncgate: the cached bytes are GONE), mmap/stat races —
// must surface as a clean Status and leave the on-disk journal the longest
// valid record prefix. Session level: --journal-policy strict aborts with
// kIoError, degrade finishes un-journaled and refuses later resumes.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/io_env.h"
#include "core/journal.h"
#include "core/registry.h"
#include "core/session.h"
#include "tests/testing_util.h"
#include "tuners/builtin.h"

namespace atune {
namespace {

JournalHeader TestHeader() {
  JournalHeader h;
  h.tuner_name = "test-tuner";
  h.system_name = "test-system";
  h.workload_name = "wl";
  h.workload_kind = "mock";
  h.seed = 42;
  h.max_evaluations = 20;
  h.failure_penalty = 10.0;
  return h;
}

JournalRecord TestRecord(uint64_t seq) {
  JournalRecord r;
  r.seq = seq;
  r.config.SetDouble("x", 0.25 * static_cast<double>(seq));
  r.config.SetInt("workers", static_cast<int64_t>(seq) + 1);
  r.result.runtime_seconds = 10.0 + static_cast<double>(seq);
  r.result.metrics = {{"throughput", 100.0 - seq}};
  r.objective = r.result.runtime_seconds;
  r.cost = 1.0;
  r.round = seq;
  r.system_runs = seq + 1;
  r.used = static_cast<double>(seq + 1);
  return r;
}

std::string TempPath(const std::string& name) {
  return testing_util::TestTempPath(name);
}

uint64_t RecoveredCount(const std::string& path) {
  auto recovered = TrialJournal::OpenForResume(path);
  EXPECT_TRUE(recovered.ok()) << recovered.status().message();
  return recovered.ok() ? recovered->records.size() : 0;
}

// RAII restore for the process-wide replay-mode override.
class ScopedReplayMode {
 public:
  explicit ScopedReplayMode(JournalReplayMode mode)
      : previous_(JournalReplayModeForTesting()) {
    SetJournalReplayModeForTesting(mode);
  }
  ~ScopedReplayMode() { SetJournalReplayModeForTesting(previous_); }

 private:
  JournalReplayMode previous_;
};

// Op-index map for a journal lifetime under FaultInjectingIoEnv (per-kind
// indices): Create = write#0 (preamble) + sync#0; the i-th Append (0-based)
// = write#(i+1), and the i-th Commit = sync#(i+1) when each record is its
// own round. Targeted rules below are derived from this.

TEST(JournalFaultTest, ShortWriteMidRecordIsReassembled) {
  std::string path = TempPath("journal_fault_short.wal");
  std::remove(path.c_str());
  IoFaultSchedule schedule;
  schedule.rules.push_back(
      {IoOpKind::kWrite, 3, IoFaultKind::kShortWrite, 1});  // 3rd append
  FaultInjectingIoEnv env(IoEnv::Default(), schedule);
  {
    ScopedIoEnv install(&env);
    auto journal = TrialJournal::Create(path, TestHeader());
    ASSERT_TRUE(journal.ok()) << journal.status().message();
    for (uint64_t i = 0; i < 5; ++i) {
      Status s = (*journal)->Append(TestRecord(i));
      EXPECT_TRUE(s.ok()) << "append " << i << ": " << s.message();
    }
    EXPECT_EQ(env.injected(IoFaultKind::kShortWrite), 1u);
    EXPECT_EQ((*journal)->short_writes(), 1u);
    EXPECT_EQ((*journal)->write_retries(), 0u);  // short != retry
  }
  // The stitched-together frame is indistinguishable from a clean one.
  EXPECT_EQ(RecoveredCount(path), 5u);
}

TEST(JournalFaultTest, EnospcMidHeaderFailsCreateCleanly) {
  std::string path = TempPath("journal_fault_enospc.wal");
  std::remove(path.c_str());
  IoFaultSchedule schedule;
  schedule.rules.push_back(
      {IoOpKind::kWrite, 0, IoFaultKind::kEnospc, 1});  // preamble write
  FaultInjectingIoEnv env(IoEnv::Default(), schedule);
  ScopedIoEnv install(&env);
  auto journal = TrialJournal::Create(path, TestHeader());
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), StatusCode::kIoError);
}

TEST(JournalFaultTest, TransientEioDuringAppendIsRetried) {
  std::string path = TempPath("journal_fault_transient.wal");
  std::remove(path.c_str());
  IoFaultSchedule schedule;
  schedule.rules.push_back(
      {IoOpKind::kWrite, 2, IoFaultKind::kTransientEio, 2});  // 2nd append
  FaultInjectingIoEnv env(IoEnv::Default(), schedule);
  {
    ScopedIoEnv install(&env);
    auto journal = TrialJournal::Create(path, TestHeader());
    ASSERT_TRUE(journal.ok());
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE((*journal)->Append(TestRecord(i)).ok());
    }
    EXPECT_EQ((*journal)->write_retries(), 2u);
  }
  EXPECT_EQ(RecoveredCount(path), 3u);
}

// fsyncgate: the fsync of the final record fails and the page cache drops
// the unsynced frame. The commit must report kIoError, the journal must
// re-verify its durable tail, and a later append must land cleanly after it.
TEST(JournalFaultTest, SyncFailureOnFinalRecordKeepsDurablePrefix) {
  std::string path = TempPath("journal_fault_syncgate.wal");
  std::remove(path.c_str());
  IoFaultSchedule schedule;
  schedule.rules.push_back(
      {IoOpKind::kSync, 5, IoFaultKind::kSyncFail, 1});  // 5th commit's fsync
  FaultInjectingIoEnv env(IoEnv::Default(), schedule);
  {
    ScopedIoEnv install(&env);
    auto journal = TrialJournal::Create(path, TestHeader());
    ASSERT_TRUE(journal.ok());
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE((*journal)->Append(TestRecord(i)).ok());
      ASSERT_TRUE((*journal)->Commit().ok());
    }
    ASSERT_TRUE((*journal)->Append(TestRecord(4)).ok());
    Status failed = (*journal)->Commit();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    EXPECT_EQ(env.injected(IoFaultKind::kSyncFail), 1u);
    // next_seq must not stay past a record that never became durable.
    EXPECT_EQ((*journal)->next_seq(), 4u);
    // ReverifyTail re-opened the journal on the durable prefix: the retried
    // append goes through and stays sequence-dense.
    ASSERT_TRUE((*journal)->Append(TestRecord(4)).ok());
    ASSERT_TRUE((*journal)->Commit().ok());
    EXPECT_EQ((*journal)->next_seq(), 5u);
  }
  EXPECT_EQ(RecoveredCount(path), 5u);
}

// The round is the unit of durability: a failed commit drops every frame
// written since the previous commit, not just the last one, and rewinds
// next_seq to the first record of the failed round.
TEST(JournalFaultTest, SyncFailureDropsTheWholeUncommittedRound) {
  std::string path = TempPath("journal_fault_round.wal");
  std::remove(path.c_str());
  FaultInjectingIoEnv env(
      IoEnv::Default(),
      IoFaultSchedule::Single(IoOpKind::kSync, 2, IoFaultKind::kSyncFail));
  uint64_t durable_size = 0;
  {
    ScopedIoEnv install(&env);
    auto journal = TrialJournal::Create(path, TestHeader());
    ASSERT_TRUE(journal.ok());
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE((*journal)->Append(TestRecord(i)).ok());
    }
    EXPECT_GT((*journal)->pending_bytes(), 0u);
    ASSERT_TRUE((*journal)->Commit().ok());  // sync#1: round {0, 1, 2}
    EXPECT_EQ((*journal)->pending_bytes(), 0u);
    EXPECT_TRUE((*journal)->Commit().ok());  // nothing pending: no fsync
    EXPECT_EQ(env.ops(IoOpKind::kSync), 2u);
    durable_size = *IoEnv::Default()->FileSize(path);
    for (uint64_t i = 3; i < 6; ++i) {
      ASSERT_TRUE((*journal)->Append(TestRecord(i)).ok());
    }
    Status failed = (*journal)->Commit();  // sync#2 fails
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    EXPECT_EQ((*journal)->next_seq(), 3u);
    EXPECT_EQ((*journal)->pending_bytes(), 0u);
    EXPECT_EQ(*IoEnv::Default()->FileSize(path), durable_size);
  }
  EXPECT_EQ(RecoveredCount(path), 3u);
}

TEST(JournalFaultTest, PersistentEioMidRecordKeepsJournalAppendable) {
  std::string path = TempPath("journal_fault_eio.wal");
  std::remove(path.c_str());
  IoFaultSchedule schedule;
  schedule.rules.push_back(
      {IoOpKind::kWrite, 2, IoFaultKind::kPersistentEio, 1});  // 2nd append
  FaultInjectingIoEnv env(IoEnv::Default(), schedule);
  {
    ScopedIoEnv install(&env);
    auto journal = TrialJournal::Create(path, TestHeader());
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(TestRecord(0)).ok());
    ASSERT_TRUE((*journal)->Commit().ok());
    Status failed = (*journal)->Append(TestRecord(1));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    ASSERT_TRUE((*journal)->Append(TestRecord(1)).ok());
    ASSERT_TRUE((*journal)->Commit().ok());
  }
  EXPECT_EQ(RecoveredCount(path), 2u);
}

TEST(JournalFaultTest, MapFailureFallsBackToStreamingRecovery) {
  std::string path = TempPath("journal_fault_mapfail.wal");
  std::remove(path.c_str());
  {
    auto journal = TrialJournal::Create(path, TestHeader());
    ASSERT_TRUE(journal.ok());
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE((*journal)->Append(TestRecord(i)).ok());
    }
  }
  IoFaultSchedule schedule;
  schedule.rules.push_back({IoOpKind::kRead, 0, IoFaultKind::kMapFail, 1});
  FaultInjectingIoEnv env(IoEnv::Default(), schedule);
  ScopedIoEnv install(&env);
  auto recovered = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_FALSE(recovered->used_mmap);
  EXPECT_EQ(recovered->records.size(), 4u);
  EXPECT_EQ(env.injected(IoFaultKind::kMapFail), 1u);
}

// A concurrent truncation between mmap() and the post-map size check must
// divert recovery to the streaming reader instead of risking a SIGBUS on
// the mapped pages.
TEST(JournalFaultTest, StatSizeMismatchTripsTruncationGuard) {
  std::string path = TempPath("journal_fault_statrace.wal");
  std::remove(path.c_str());
  {
    auto journal = TrialJournal::Create(path, TestHeader());
    ASSERT_TRUE(journal.ok());
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE((*journal)->Append(TestRecord(i)).ok());
    }
  }
  {
    IoFaultSchedule schedule;
    schedule.rules.push_back(
        {IoOpKind::kStat, 0, IoFaultKind::kStatShrink, 1});
    FaultInjectingIoEnv env(IoEnv::Default(), schedule);
    ScopedIoEnv install(&env);
    auto recovered = TrialJournal::OpenForResume(path);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    EXPECT_FALSE(recovered->used_mmap);
    EXPECT_EQ(recovered->records.size(), 3u);
  }
  {
    // Under kMmap the guard cannot fall back, so it must surface the race.
    ScopedReplayMode force_mmap(JournalReplayMode::kMmap);
    IoFaultSchedule schedule;
    schedule.rules.push_back(
        {IoOpKind::kStat, 0, IoFaultKind::kStatShrink, 1});
    FaultInjectingIoEnv env(IoEnv::Default(), schedule);
    ScopedIoEnv install(&env);
    auto recovered = TrialJournal::OpenForResume(path);
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.status().code(), StatusCode::kIoError);
  }
  // Untouched file, honest stat: the mmap path works and agrees.
  auto recovered = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records.size(), 3u);
}

TEST(JournalFaultTest, CreateRemovesStaleDegradedSidecar) {
  std::string path = TempPath("journal_fault_sidecar.wal");
  std::string sidecar = path + kDegradedSidecarSuffix;
  std::remove(path.c_str());
  {
    std::ofstream out(sidecar);
    out << "journal degraded: stale marker from a previous session\n";
  }
  auto journal = TrialJournal::Create(path, TestHeader());
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(IoEnv::Default()->FileSize(sidecar).status().code(),
            StatusCode::kNotFound);
}

// ----- Session-level policy tests -------------------------------------------

struct SessionRun {
  Status status = Status::OK();
  TuningOutcome outcome;
  bool ok() const { return status.ok(); }
};

SessionRun RunFaultedSession(const std::string& journal,
                             JournalPolicy policy) {
  SessionRun run;
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  auto tuner = registry.Create("random-search");
  if (!tuner.ok()) {
    run.status = tuner.status();
    return run;
  }
  auto dbms = testing_util::MakeTestDbms(/*seed=*/11, /*noise=*/true);
  SessionOptions options;
  options.budget = TuningBudget{6};
  options.seed = 11;
  options.measure_default = false;
  options.journal_path = journal;
  options.journal_policy = policy;
  const Workload workload = MakeDbmsOlapWorkload(1.0);
  auto outcome =
      RunTuningSession(tuner->get(), dbms.get(), workload, options);
  if (!outcome.ok()) {
    run.status = outcome.status();
    return run;
  }
  run.outcome = std::move(*outcome);
  return run;
}

// The schedule that breaks journaling mid-session: the 3rd trial's append
// (write#3; write#0 is the preamble) hits a persistent EIO.
IoFaultSchedule MidSessionEio() {
  IoFaultSchedule schedule;
  schedule.rules.push_back(
      {IoOpKind::kWrite, 3, IoFaultKind::kPersistentEio, 1});
  return schedule;
}

TEST(JournalFaultTest, StrictPolicySessionAbortsWithIoError) {
  std::string path = TempPath("journal_fault_strict.wal");
  std::remove(path.c_str());
  FaultInjectingIoEnv env(IoEnv::Default(), MidSessionEio());
  SessionRun run;
  {
    ScopedIoEnv install(&env);
    run = RunFaultedSession(path, JournalPolicy::kStrict);
  }
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status.code(), StatusCode::kIoError);
  // Committed trials before the failure are durable and recoverable.
  EXPECT_EQ(RecoveredCount(path), 2u);
}

TEST(JournalFaultTest, DegradePolicySessionFinishesAndBlocksResume) {
  std::string path = TempPath("journal_fault_degrade.wal");
  std::string sidecar = path + kDegradedSidecarSuffix;
  std::remove(path.c_str());
  std::remove(sidecar.c_str());

  // Baseline: the same session with no journal at all.
  SessionRun baseline = RunFaultedSession("", JournalPolicy::kStrict);
  ASSERT_TRUE(baseline.ok()) << baseline.status.message();

  FaultInjectingIoEnv env(IoEnv::Default(), MidSessionEio());
  SessionRun degraded;
  {
    ScopedIoEnv install(&env);
    degraded = RunFaultedSession(path, JournalPolicy::kDegrade);
  }
  ASSERT_TRUE(degraded.ok()) << degraded.status.message();
  EXPECT_TRUE(degraded.outcome.journal_degraded);
  EXPECT_TRUE(IoEnv::Default()->FileSize(sidecar).ok());

  // Degrading must not change what the tuner computed: the outcome matches
  // the un-journaled session bit for bit.
  ASSERT_EQ(degraded.outcome.history.size(), baseline.outcome.history.size());
  for (size_t i = 0; i < baseline.outcome.history.size(); ++i) {
    EXPECT_TRUE(degraded.outcome.history[i].config ==
                baseline.outcome.history[i].config);
    EXPECT_EQ(degraded.outcome.history[i].objective,
              baseline.outcome.history[i].objective);
  }
  EXPECT_TRUE(degraded.outcome.best_config == baseline.outcome.best_config);
  EXPECT_EQ(degraded.outcome.best_objective, baseline.outcome.best_objective);
  EXPECT_EQ(degraded.outcome.evaluations_used,
            baseline.outcome.evaluations_used);

  // The sidecar blocks resume: the journal is an incomplete record.
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  auto tuner = registry.Create("random-search");
  ASSERT_TRUE(tuner.ok());
  auto dbms = testing_util::MakeTestDbms(/*seed=*/11, /*noise=*/true);
  SessionOptions options;
  options.budget = TuningBudget{6};
  options.seed = 11;
  options.measure_default = false;
  options.journal_path = path;
  auto resumed = ResumeTuningSession(tuner->get(), dbms.get(),
                                     MakeDbmsOlapWorkload(1.0), options);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace atune
