// Replay-mode parity tests for the zero-copy (mmap) journal recovery path
// of DESIGN.md §11: every mode must recover identical records, warnings, and
// on-disk truncation from intact and damaged journals, and AppendRef must
// produce byte-identical files to Append.

#include "core/journal.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/file_util.h"
#include "tests/testing_util.h"

namespace atune {
namespace {

JournalHeader TestHeader() {
  JournalHeader h;
  h.tuner_name = "mmap-tuner";
  h.system_name = "sys";
  h.workload_name = "wl";
  h.workload_kind = "mock";
  h.seed = 7;
  h.max_evaluations = 12;
  return h;
}

JournalRecord TestRecord(uint64_t seq) {
  JournalRecord r;
  r.seq = seq;
  r.config.SetDouble("x", 0.25 * static_cast<double>(seq));
  r.config.SetInt("workers", static_cast<int64_t>(seq) + 2);
  r.config.SetString("mode", seq % 2 == 0 ? "fast" : "safe");
  r.result.runtime_seconds = 5.0 + static_cast<double>(seq);
  r.result.metrics = {{"throughput", 200.0 - seq}};
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

void WriteJournal(const std::string& path, size_t records) {
  auto journal = TrialJournal::Create(path, TestHeader());
  ASSERT_TRUE(journal.ok());
  for (size_t i = 0; i < records; ++i) {
    ASSERT_TRUE((*journal)->Append(TestRecord(i)).ok());
  }
}

void ExpectSameRecovery(const TrialJournal::Recovered& a,
                        const TrialJournal::Recovered& b) {
  EXPECT_EQ(a.header_valid, b.header_valid);
  EXPECT_EQ(a.header, b.header);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].seq, b.records[i].seq);
    EXPECT_EQ(a.records[i].config.ToString(), b.records[i].config.ToString());
    EXPECT_EQ(a.records[i].result.runtime_seconds,
              b.records[i].result.runtime_seconds);
    EXPECT_EQ(a.records[i].objective, b.records[i].objective);
    EXPECT_EQ(a.records[i].used, b.records[i].used);
  }
  EXPECT_EQ(a.warnings, b.warnings);
}

class ReplayModeGuard {
 public:
  ~ReplayModeGuard() {
    SetJournalReplayModeForTesting(JournalReplayMode::kAuto);
  }
};

TEST(JournalMmap, IntactJournalRecoversIdenticallyInEveryMode) {
  ReplayModeGuard guard;
  std::string path = TempPath("mmap_intact.waljournal");
  WriteJournal(path, 9);
  std::string original;
  ASSERT_TRUE(ReadFileToString(path, &original).ok());

  SetJournalReplayModeForTesting(JournalReplayMode::kMmap);
  auto via_mmap = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(via_mmap.ok());
  // Recovery must not rewrite an intact file.
  std::string after;
  ASSERT_TRUE(ReadFileToString(path, &after).ok());
  EXPECT_EQ(after, original);

  SetJournalReplayModeForTesting(JournalReplayMode::kStreaming);
  auto via_stream = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(via_stream.ok());
  ExpectSameRecovery(*via_mmap, *via_stream);
  EXPECT_EQ(via_mmap->records.size(), 9u);
}

TEST(JournalMmap, TornTailTruncatesIdenticallyInEveryMode) {
  ReplayModeGuard guard;
  for (JournalReplayMode mode :
       {JournalReplayMode::kMmap, JournalReplayMode::kStreaming}) {
    std::string path = TempPath("mmap_torn.waljournal");
    WriteJournal(path, 6);
    // Tear the last frame: chop off its final 5 bytes.
    std::string file;
    ASSERT_TRUE(ReadFileToString(path, &file).ok());
    ASSERT_TRUE(AtomicWriteFile(path, file.substr(0, file.size() - 5)).ok());

    SetJournalReplayModeForTesting(mode);
    auto recovered = TrialJournal::OpenForResume(path);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered->records.size(), 5u);
    ASSERT_EQ(recovered->warnings.size(), 1u);
    EXPECT_NE(recovered->warnings[0].find("corrupt or torn frame"),
              std::string::npos);
    // The mmap path must release its mapping before truncating, and the
    // truncated file must then recover cleanly (appendable, no warnings).
    recovered->journal.reset();
    auto again = TrialJournal::OpenForResume(path);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->records.size(), 5u);
    EXPECT_TRUE(again->warnings.empty());
  }
}

TEST(JournalMmap, MissingFileIsNotFoundInEveryMode) {
  ReplayModeGuard guard;
  std::string path = TempPath("mmap_missing.waljournal");
  for (JournalReplayMode mode :
       {JournalReplayMode::kAuto, JournalReplayMode::kMmap,
        JournalReplayMode::kStreaming}) {
    SetJournalReplayModeForTesting(mode);
    auto recovered = TrialJournal::OpenForResume(path);
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
  }
}

TEST(JournalMmap, GarbageFileDiscardsInEveryMode) {
  ReplayModeGuard guard;
  for (JournalReplayMode mode :
       {JournalReplayMode::kMmap, JournalReplayMode::kStreaming}) {
    std::string path = TempPath("mmap_garbage.waljournal");
    ASSERT_TRUE(AtomicWriteFile(path, "not a journal at all").ok());
    SetJournalReplayModeForTesting(mode);
    auto recovered = TrialJournal::OpenForResume(path);
    ASSERT_TRUE(recovered.ok());
    EXPECT_FALSE(recovered->header_valid);
    EXPECT_EQ(recovered->journal, nullptr);
    ASSERT_EQ(recovered->warnings.size(), 1u);
    EXPECT_NE(recovered->warnings[0].find("unreadable magic/header"),
              std::string::npos);
  }
}

TEST(JournalMmap, AppendRefFileByteIdenticalToAppend) {
  std::string via_append_path = TempPath("mmap_append.waljournal");
  std::string via_ref_path = TempPath("mmap_appendref.waljournal");
  {
    auto journal = TrialJournal::Create(via_append_path, TestHeader());
    ASSERT_TRUE(journal.ok());
    for (uint64_t i = 0; i < 7; ++i) {
      ASSERT_TRUE((*journal)->Append(TestRecord(i)).ok());
    }
  }
  {
    auto journal = TrialJournal::Create(via_ref_path, TestHeader());
    ASSERT_TRUE(journal.ok());
    for (uint64_t i = 0; i < 7; ++i) {
      JournalRecord rec = TestRecord(i);
      JournalRecordRef ref;
      ref.kind = rec.kind;
      ref.seq = rec.seq;
      ref.config = &rec.config;
      ref.result = &rec.result;
      ref.objective = rec.objective;
      ref.cost = rec.cost;
      ref.scaled = rec.scaled;
      ref.round = rec.round;
      ref.batch_size = rec.batch_size;
      ref.lane = rec.lane;
      ref.unit_index = rec.unit_index;
      ref.system_runs = rec.system_runs;
      ref.used = rec.used;
      ref.retried_runs = rec.retried_runs;
      ref.timed_out_runs = rec.timed_out_runs;
      ref.remeasured_runs = rec.remeasured_runs;
      ASSERT_TRUE((*journal)->AppendRef(ref).ok());
    }
  }
  std::string a, b;
  ASSERT_TRUE(ReadFileToString(via_append_path, &a).ok());
  ASSERT_TRUE(ReadFileToString(via_ref_path, &b).ok());
  EXPECT_EQ(a, b);
}

TEST(JournalMmap, AppendAfterMmapRecoveryWorks) {
  ReplayModeGuard guard;
  std::string path = TempPath("mmap_append_after.waljournal");
  WriteJournal(path, 3);
  SetJournalReplayModeForTesting(JournalReplayMode::kMmap);
  auto recovered = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(recovered.ok());
  ASSERT_NE(recovered->journal, nullptr);
  EXPECT_EQ(recovered->journal->next_seq(), 3u);
  ASSERT_TRUE(recovered->journal->Append(TestRecord(3)).ok());
  recovered->journal.reset();
  auto again = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->records.size(), 4u);
}

}  // namespace
}  // namespace atune
