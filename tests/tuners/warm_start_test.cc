// WarmStartTuner / workload-mapping metamorphic contracts (DESIGN.md §14):
//
//   * the workload fingerprint is *bitwise* invariant under any permutation
//     of the trial history (sorted-addends mean)
//   * k-NN mapping is invariant under record duplication: deciles and
//     pruning are computed over distinct fingerprints, so re-ingesting a
//     session N times cannot drag the neighborhood toward it
//   * an empty snapshot makes the decorator a bitwise pass-through
//   * a populated snapshot measurably changes the search (seeded-vs-
//     unseeded divergence) while warm evaluations stay within the
//     half-the-budget cap
//   * a warm-started journaled session killed mid-run resumes bit-identical
//     — the warm schedule is a pure function of (snapshot, probe), so
//     replay re-derives it exactly

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/journal.h"
#include "core/knowledge_repo.h"
#include "core/registry.h"
#include "core/session.h"
#include "tests/testing_util.h"
#include "tuners/builtin.h"
#include "tuners/warm_start.h"

namespace atune {
namespace {

constexpr uint64_t kSeed = 17;
constexpr size_t kBudget = 10;

std::string JournalPath(const std::string& name) {
  return testing_util::TestTempPath("warm_" + name + ".wal");
}

// One completed historic session to harvest knowledge records from.
TuningOutcome RunHistoric(const std::string& tuner_name, uint64_t seed,
                          const Workload& workload, SimulatedDbms* dbms) {
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  auto tuner = registry.Create(tuner_name);
  EXPECT_TRUE(tuner.ok());
  SessionOptions options;
  options.budget = TuningBudget{6};
  options.seed = seed;
  options.measure_default = false;
  auto outcome = RunTuningSession(tuner->get(), dbms, workload, options);
  EXPECT_TRUE(outcome.ok()) << outcome.status().message();
  return outcome.ok() ? std::move(*outcome) : TuningOutcome{};
}

std::vector<KnowledgeRecord> BuildSnapshot(SimulatedDbms* dbms) {
  std::vector<KnowledgeRecord> snapshot;
  const Workload workloads[] = {MakeDbmsOlapWorkload(1.0),
                                MakeDbmsOltpWorkload(1.0),
                                MakeDbmsOlapWorkload(2.0)};
  uint64_t seed = 100;
  for (const Workload& wl : workloads) {
    TuningOutcome outcome = RunHistoric("random-search", seed, wl, dbms);
    snapshot.push_back(MakeKnowledgeRecord(
        "hist-" + std::to_string(seed), "tenant", dbms->name(), dbms->space(),
        dbms->MetricNames(), wl, seed, 6, outcome));
    ++seed;
  }
  return snapshot;
}

struct WarmRun {
  Status status = Status::OK();
  TuningOutcome outcome;
  size_t warm_evaluations = 0;
  std::vector<std::string> mapped_sessions;
  bool ok() const { return status.ok(); }
};

WarmRun RunWarm(const std::vector<KnowledgeRecord>& snapshot,
                const std::string& journal, uint64_t kill_after, bool resume) {
  WarmRun run;
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  auto inner = registry.Create("random-search");
  EXPECT_TRUE(inner.ok());
  auto warm = std::make_unique<WarmStartTuner>(std::move(*inner), snapshot);
  WarmStartTuner* warm_ptr = warm.get();

  auto dbms = testing_util::MakeTestDbms(kSeed, /*noise=*/true);
  SessionOptions options;
  options.budget = TuningBudget{kBudget};
  options.seed = kSeed;
  options.measure_default = false;
  options.journal_path = journal;
  options.interrupt_after_records = kill_after;
  const Workload workload = MakeDbmsOlapWorkload(1.0);
  auto outcome =
      resume ? ResumeTuningSession(warm.get(), dbms.get(), workload, options)
             : RunTuningSession(warm.get(), dbms.get(), workload, options);
  run.warm_evaluations = warm_ptr->warm_evaluations();
  run.mapped_sessions = warm_ptr->mapped_sessions();
  if (!outcome.ok()) {
    run.status = outcome.status();
    return run;
  }
  run.outcome = std::move(*outcome);
  return run;
}

void ExpectOutcomeEq(const TuningOutcome& want, const TuningOutcome& got,
                     const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(want.history.size(), got.history.size());
  for (size_t i = 0; i < want.history.size(); ++i) {
    SCOPED_TRACE("trial " + std::to_string(i));
    EXPECT_TRUE(want.history[i].config == got.history[i].config);
    EXPECT_EQ(want.history[i].objective, got.history[i].objective);
    EXPECT_EQ(want.history[i].round, got.history[i].round);
    EXPECT_EQ(want.history[i].result.metrics, got.history[i].result.metrics);
  }
  EXPECT_TRUE(want.best_config == got.best_config);
  EXPECT_EQ(want.best_objective, got.best_objective);
  EXPECT_EQ(want.evaluations_used, got.evaluations_used);
}

TEST(WarmStartTest, FingerprintIsBitwisePermutationInvariant) {
  auto dbms = testing_util::MakeTestDbms(3, /*noise=*/true);
  const Workload wl = MakeDbmsOlapWorkload(1.0);
  TuningOutcome outcome = RunHistoric("random-search", 31, wl, dbms.get());
  ASSERT_GE(outcome.history.size(), 3u);

  KnowledgeRecord base =
      MakeKnowledgeRecord("perm", "t", dbms->name(), dbms->space(),
                          dbms->MetricNames(), wl, 31, 6, outcome);

  // Reversal and every rotation of the history: identical fingerprints,
  // bit for bit — summation order is canonicalized by sorting the addends.
  TuningOutcome reversed = outcome;
  std::reverse(reversed.history.begin(), reversed.history.end());
  KnowledgeRecord rev =
      MakeKnowledgeRecord("perm", "t", dbms->name(), dbms->space(),
                          dbms->MetricNames(), wl, 31, 6, reversed);
  EXPECT_EQ(base.fingerprint, rev.fingerprint);

  for (size_t shift = 1; shift < outcome.history.size(); ++shift) {
    TuningOutcome rotated = outcome;
    std::rotate(rotated.history.begin(), rotated.history.begin() + shift,
                rotated.history.end());
    KnowledgeRecord rot =
        MakeKnowledgeRecord("perm", "t", dbms->name(), dbms->space(),
                            dbms->MetricNames(), wl, 31, 6, rotated);
    EXPECT_EQ(base.fingerprint, rot.fingerprint) << "rotation " << shift;
  }
}

TEST(WarmStartTest, MappingIsInvariantUnderRecordDuplication) {
  auto dbms = testing_util::MakeTestDbms(kSeed, /*noise=*/false);
  std::vector<KnowledgeRecord> snapshot = BuildSnapshot(dbms.get());
  ASSERT_EQ(snapshot.size(), 3u);
  const Vec target = snapshot[0].fingerprint;

  WorkloadMapping base = MapWorkloadKnn(snapshot, target, 2);
  ASSERT_FALSE(base.neighbors.empty());
  std::vector<std::string> base_ids;
  for (size_t idx : base.neighbors) base_ids.push_back(snapshot[idx].session_id);

  // Duplicate the *last* record five times: the statistics (pruning,
  // deciles) come from distinct fingerprints, so neither the selected
  // metrics nor the neighbor ids nor the distances may move.
  std::vector<KnowledgeRecord> stuffed = snapshot;
  for (int i = 0; i < 5; ++i) stuffed.push_back(snapshot.back());
  WorkloadMapping dup = MapWorkloadKnn(stuffed, target, 2);
  std::vector<std::string> dup_ids;
  for (size_t idx : dup.neighbors) dup_ids.push_back(stuffed[idx].session_id);

  EXPECT_EQ(dup.metric_idx, base.metric_idx);
  EXPECT_EQ(dup_ids, base_ids);
  EXPECT_EQ(dup.distances, base.distances);  // bitwise
}

TEST(WarmStartTest, EmptySnapshotIsBitwisePassThrough) {
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  auto plain = registry.Create("random-search");
  ASSERT_TRUE(plain.ok());
  auto dbms = testing_util::MakeTestDbms(kSeed, /*noise=*/true);
  SessionOptions options;
  options.budget = TuningBudget{kBudget};
  options.seed = kSeed;
  options.measure_default = false;
  auto cold = RunTuningSession(plain->get(), dbms.get(),
                               MakeDbmsOlapWorkload(1.0), options);
  ASSERT_TRUE(cold.ok());

  WarmRun warm = RunWarm({}, /*journal=*/"", /*kill_after=*/0,
                         /*resume=*/false);
  ASSERT_TRUE(warm.ok()) << warm.status.message();
  EXPECT_EQ(warm.warm_evaluations, 0u);
  EXPECT_TRUE(warm.mapped_sessions.empty());
  ExpectOutcomeEq(*cold, warm.outcome, "pass-through");
}

TEST(WarmStartTest, PopulatedSnapshotSeedsAndDiverges) {
  auto historic_dbms = testing_util::MakeTestDbms(kSeed, /*noise=*/false);
  std::vector<KnowledgeRecord> snapshot = BuildSnapshot(historic_dbms.get());

  WarmRun cold = RunWarm({}, "", 0, false);
  ASSERT_TRUE(cold.ok());
  WarmRun warm = RunWarm(snapshot, "", 0, false);
  ASSERT_TRUE(warm.ok()) << warm.status.message();

  // The warm phase actually ran: mapped sessions, seeded evaluations, and
  // the inner tuner kept at least half the budget.
  EXPECT_FALSE(warm.mapped_sessions.empty());
  EXPECT_GT(warm.warm_evaluations, 0u);
  EXPECT_LE(warm.warm_evaluations, kBudget / 2);
  EXPECT_EQ(warm.outcome.evaluations_used, cold.outcome.evaluations_used);

  // Seeded-vs-unseeded divergence: same seed, same budget, different
  // history — the snapshot is the only difference.
  bool diverged = warm.outcome.history.size() != cold.outcome.history.size();
  for (size_t i = 0;
       !diverged && i < warm.outcome.history.size(); ++i) {
    diverged = !(warm.outcome.history[i].config == cold.outcome.history[i].config);
  }
  EXPECT_TRUE(diverged);
}

// The replay guarantee the daemon's --warm-start path rests on: kill a
// journaled warm session after 1, n/2, n-1 records; a resume with the same
// pinned snapshot must re-derive the identical warm schedule and land on a
// bit-identical outcome.
TEST(WarmStartTest, WarmSessionResumesBitIdentical) {
  auto historic_dbms = testing_util::MakeTestDbms(kSeed, /*noise=*/false);
  std::vector<KnowledgeRecord> snapshot = BuildSnapshot(historic_dbms.get());

  const std::string path = JournalPath("resume");
  std::remove(path.c_str());
  WarmRun baseline = RunWarm(snapshot, path, /*kill_after=*/0,
                             /*resume=*/false);
  ASSERT_TRUE(baseline.ok()) << baseline.status.message();
  ASSERT_GT(baseline.warm_evaluations, 0u);

  auto recovered = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(recovered.ok());
  const uint64_t records = recovered->records.size();
  ASSERT_GE(records, 2u);
  std::remove(path.c_str());

  std::set<uint64_t> kill_points = {1, records / 2, records - 1};
  for (uint64_t kill : kill_points) {
    if (kill == 0 || kill >= records) continue;
    SCOPED_TRACE("killed after " + std::to_string(kill) + "/" +
                 std::to_string(records));
    std::remove(path.c_str());
    WarmRun interrupted = RunWarm(snapshot, path, kill, /*resume=*/false);
    ASSERT_FALSE(interrupted.ok());
    EXPECT_EQ(interrupted.status.code(), StatusCode::kAborted);

    WarmRun resumed = RunWarm(snapshot, path, /*kill_after=*/0,
                              /*resume=*/true);
    ASSERT_TRUE(resumed.ok()) << resumed.status.message();
    ExpectOutcomeEq(baseline.outcome, resumed.outcome, "resume");
    // The re-derived warm schedule matches, not just the trial history.
    EXPECT_EQ(resumed.mapped_sessions, baseline.mapped_sessions);
    std::remove(path.c_str());
  }
}

TEST(WarmStartTest, RegistryFactoryWrapsAndNames) {
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  auto warm = MakeWarmStartTuner(registry, "random-search", {});
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ((*warm)->name(), "warm-start:random-search");
  auto missing = MakeWarmStartTuner(registry, "no-such-tuner", {});
  EXPECT_FALSE(missing.ok());
}

}  // namespace
}  // namespace atune
