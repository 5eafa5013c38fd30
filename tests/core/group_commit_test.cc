// Group commit (DESIGN.md §8): the evaluation round, not the journal record,
// is the unit of durability. A k-lane EvaluateBatch wave is written lane by
// lane and made durable by one fsync after its last lane; serial trials are
// rounds of one. A failed or interrupted round leaves nothing a resume could
// replay — recovery already drops an incomplete batch — so every session
// outcome stays bit-identical to the uninterrupted (or un-journaled) run.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/io_env.h"
#include "core/journal.h"
#include "core/knowledge_repo.h"
#include "core/outcome_checksum.h"
#include "core/registry.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "tests/testing_util.h"
#include "tuners/builtin.h"

namespace atune {
namespace {

// A batched random-search session measures the defaults (a serial round of
// one), then runs kWaves EvaluateBatch waves of kLanes lanes each.
constexpr size_t kLanes = 4;
constexpr size_t kWaves = 3;
constexpr size_t kBudget = 1 + kWaves * kLanes;

std::string TempPath(const std::string& name) {
  return testing_util::TestTempPath(name);
}

struct SessionRun {
  Status status = Status::OK();
  TuningOutcome outcome;
  bool ok() const { return status.ok(); }
};

// The batched random-search session above, on a noisy DBMS.
SessionRun RunBatched(const std::string& journal, JournalPolicy policy,
                      uint64_t kill_after, bool resume,
                      MetricsRegistry* metrics = nullptr) {
  SessionRun run;
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  auto tuner = registry.Create("random-search");
  if (!tuner.ok()) {
    run.status = tuner.status();
    return run;
  }
  (*tuner)->set_parallelism(kLanes);
  auto dbms = testing_util::MakeTestDbms(/*seed=*/17, /*noise=*/true);
  SessionOptions options;
  options.budget = TuningBudget{kBudget};
  options.seed = 17;
  options.measure_default = false;
  options.journal_path = journal;
  options.journal_policy = policy;
  options.interrupt_after_records = kill_after;
  options.metrics = metrics;
  const Workload workload = MakeDbmsOlapWorkload(1.0);
  auto outcome =
      resume ? ResumeTuningSession(tuner->get(), dbms.get(), workload, options)
             : RunTuningSession(tuner->get(), dbms.get(), workload, options);
  if (!outcome.ok()) {
    run.status = outcome.status();
    return run;
  }
  run.outcome = std::move(*outcome);
  return run;
}

std::string Slurp(const std::string& path) {
  std::string contents;
  if (!IoEnv::Default()->ReadFileToString(path, &contents).ok()) {
    contents.clear();
  }
  return contents;
}

TEST(GroupCommitTest, BatchRoundIsOneFsyncSerialTrialIsOne) {
  const std::string path = TempPath("group_commit_count.wal");
  std::remove(path.c_str());
  FaultInjectingIoEnv env(IoEnv::Default(), IoFaultSchedule{});
  ScopedIoEnv install(&env);
  auto dbms = testing_util::MakeTestDbms(/*seed=*/5);
  Evaluator evaluator(dbms.get(), testing_util::SmallOlap(),
                      TuningBudget{20});
  JournalHeader header;
  header.tuner_name = "group-commit";
  header.max_evaluations = 20;
  auto journal = TrialJournal::Create(path, header);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  evaluator.set_journal(journal->get());
  const uint64_t after_create = env.ops(IoOpKind::kSync);

  Rng rng(3);
  auto draw = [&](size_t n) {
    std::vector<Configuration> configs;
    for (size_t i = 0; i < n; ++i) {
      configs.push_back(dbms->space().RandomConfiguration(&rng));
    }
    return configs;
  };
  for (const Configuration& config : draw(3)) {
    ASSERT_TRUE(evaluator.Evaluate(config).ok());
  }
  EXPECT_EQ(env.ops(IoOpKind::kSync) - after_create, 3u);  // one per trial

  // One fsync per wave, on the clone fan-out and on the serial fallback.
  for (size_t parallelism : {kLanes, size_t{1}}) {
    const uint64_t syncs = env.ops(IoOpKind::kSync);
    const uint64_t writes = env.ops(IoOpKind::kWrite);
    auto objs = evaluator.EvaluateBatch(draw(kLanes), parallelism);
    ASSERT_TRUE(objs.ok()) << objs.status().ToString();
    EXPECT_EQ(env.ops(IoOpKind::kSync) - syncs, 1u)
        << "parallelism " << parallelism;
    EXPECT_EQ(env.ops(IoOpKind::kWrite) - writes, kLanes);
    EXPECT_EQ((*journal)->pending_bytes(), 0u);
  }
  EXPECT_EQ((*journal)->next_seq(), 3 + 2 * kLanes);
  evaluator.set_journal(nullptr);
  journal->reset();
  auto recovered = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records.size(), 3 + 2 * kLanes);
  EXPECT_TRUE(recovered->warnings.empty());
}

// fsync#0 is the journal header's (Create), fsync#1 commits the defaults,
// fsync#(1 + w) commits wave w.
IoFaultSchedule SecondWaveCommitFails() {
  return IoFaultSchedule::Single(IoOpKind::kSync, 3, IoFaultKind::kSyncFail);
}

TEST(GroupCommitTest, StrictCommitFailureEndsTheFileAtThePreviousRound) {
  const std::string path = TempPath("group_commit_strict.wal");
  std::remove(path.c_str());
  SessionRun baseline = RunBatched("", JournalPolicy::kStrict, 0, false);
  ASSERT_TRUE(baseline.ok()) << baseline.status.message();

  FaultInjectingIoEnv env(IoEnv::Default(), SecondWaveCommitFails());
  SessionRun failed;
  {
    ScopedIoEnv install(&env);
    failed = RunBatched(path, JournalPolicy::kStrict, 0, false);
  }
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status.code(), StatusCode::kIoError)
      << failed.status.ToString();
  EXPECT_EQ(env.injected(IoFaultKind::kSyncFail), 1u);

  // The file ends exactly where the first wave's commit left it: recovery
  // finds whole rounds only and nothing to discard.
  {
    auto recovered = TrialJournal::OpenForResume(path);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered->records.size(), 1 + kLanes);
    EXPECT_TRUE(recovered->warnings.empty());
    ASSERT_FALSE(recovered->records.empty());
    EXPECT_EQ(recovered->records.back().lane + 1, kLanes);
  }

  // Resume replays none of the failed wave, then finishes bit-identically.
  SessionRun resumed = RunBatched(path, JournalPolicy::kStrict, 0, true);
  ASSERT_TRUE(resumed.ok()) << resumed.status.message();
  EXPECT_EQ(resumed.outcome.replayed_records, 1 + kLanes);
  EXPECT_EQ(OutcomeChecksum(resumed.outcome),
            OutcomeChecksum(baseline.outcome));
  std::remove(path.c_str());
}

TEST(GroupCommitTest, DegradeCommitFailureMatchesUnjournaledRun) {
  const std::string path = TempPath("group_commit_degrade.wal");
  const std::string sidecar = path + kDegradedSidecarSuffix;
  std::remove(path.c_str());
  std::remove(sidecar.c_str());
  SessionRun baseline = RunBatched("", JournalPolicy::kStrict, 0, false);
  ASSERT_TRUE(baseline.ok()) << baseline.status.message();

  FaultInjectingIoEnv env(IoEnv::Default(), SecondWaveCommitFails());
  SessionRun degraded;
  {
    ScopedIoEnv install(&env);
    degraded = RunBatched(path, JournalPolicy::kDegrade, 0, false);
  }
  ASSERT_TRUE(degraded.ok()) << degraded.status.message();
  EXPECT_TRUE(degraded.outcome.journal_degraded);
  EXPECT_TRUE(IoEnv::Default()->FileSize(sidecar).ok());
  ASSERT_EQ(degraded.outcome.history.size(), kBudget);
  EXPECT_EQ(OutcomeChecksum(degraded.outcome),
            OutcomeChecksum(baseline.outcome));
  std::remove(path.c_str());
  std::remove(sidecar.c_str());
}

TEST(GroupCommitTest, InterruptMidRoundResumesBitIdentical) {
  const std::string path = TempPath("group_commit_interrupt.wal");
  std::remove(path.c_str());
  SessionRun baseline = RunBatched(path, JournalPolicy::kStrict, 0, false);
  ASSERT_TRUE(baseline.ok()) << baseline.status.message();
  const std::string baseline_journal = Slurp(path);
  std::remove(path.c_str());

  // Killed after lane 1 of the second wave: those two lanes are written but
  // their round never committed, so only the header, the defaults and the
  // first wave were fsynced.
  FaultInjectingIoEnv env(IoEnv::Default(), IoFaultSchedule{});
  SessionRun killed;
  {
    ScopedIoEnv install(&env);
    killed = RunBatched(path, JournalPolicy::kStrict,
                        /*kill_after=*/1 + kLanes + 2, false);
  }
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status.code(), StatusCode::kAborted);
  EXPECT_EQ(env.ops(IoOpKind::kSync), 3u);
  EXPECT_EQ(env.ops(IoOpKind::kWrite), 1 + 1 + kLanes + 2);

  SessionRun resumed = RunBatched(path, JournalPolicy::kStrict, 0, true);
  ASSERT_TRUE(resumed.ok()) << resumed.status.message();
  EXPECT_EQ(resumed.outcome.replayed_records, 1 + kLanes);
  EXPECT_EQ(OutcomeChecksum(resumed.outcome),
            OutcomeChecksum(baseline.outcome));
  EXPECT_EQ(Slurp(path), baseline_journal);
  std::remove(path.c_str());
}

TEST(GroupCommitTest, DurabilityHistogramsCountRoundsAndPublishes) {
  const std::string path = TempPath("group_commit_metrics.wal");
  std::remove(path.c_str());
  MetricsRegistry metrics;
  SessionRun run = RunBatched(path, JournalPolicy::kStrict, 0, false,
                              &metrics);
  ASSERT_TRUE(run.ok()) << run.status.message();
  const uint64_t rounds = 1 + kWaves;
  Histogram::Snapshot bytes = metrics.GetHistogram("io.append.bytes")->Snap();
  Histogram::Snapshot fsync =
      metrics.GetHistogram("io.fsync_host_seconds")->Snap();
  EXPECT_EQ(bytes.count, rounds);
  EXPECT_EQ(fsync.count, rounds);
  EXPECT_EQ(metrics.GetCounter("io.append.total")->Value(), kBudget);

  // Every record byte went out in exactly one committed round.
  auto recovered = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(recovered.ok());
  uint64_t frames = 0;
  for (const JournalRecord& record : recovered->records) {
    frames += record.frame_bytes;
  }
  EXPECT_GT(frames, 0u);
  EXPECT_EQ(bytes.sum, static_cast<double>(frames));
  recovered->journal.reset();
  std::remove(path.c_str());

  // A knowledge-repo publish times its shard fsync into the same histogram.
  const std::string dir = TempPath("group_commit_repo");
  auto dbms = testing_util::MakeTestDbms();
  KnowledgeRecord record =
      MakeKnowledgeRecord("s1", "tenant", dbms->name(), dbms->space(),
                          dbms->MetricNames(), testing_util::SmallOlap(), 17,
                          kBudget, run.outcome);
  {
    ScopedMetricsInstall install(&metrics);
    ASSERT_TRUE(KnowledgeRepository(dir).Ingest(record).ok());
  }
  EXPECT_EQ(metrics.GetHistogram("io.fsync_host_seconds")->Snap().count,
            rounds + 1);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace atune
