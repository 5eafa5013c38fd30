#ifndef ATUNE_CORE_JOURNAL_H_
#define ATUNE_CORE_JOURNAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/io_env.h"
#include "common/status.h"
#include "core/configuration.h"
#include "core/system.h"

namespace atune {

/// Fingerprint of the session a journal belongs to. Written once at journal
/// creation; checked on resume so a journal is never replayed into a session
/// with different parameters (which would silently diverge). Custom
/// objective functions cannot be fingerprinted — callers must pass the same
/// objective on resume (see DESIGN.md §8).
struct JournalHeader {
  std::string tuner_name;
  std::string system_name;
  std::string workload_name;
  std::string workload_kind;
  double workload_scale = 1.0;
  std::map<std::string, double> workload_properties;
  uint64_t seed = 0;
  uint64_t max_evaluations = 0;
  double failure_penalty = 0.0;
  /// RobustnessPolicy fields, spelled out so core/journal.h does not depend
  /// on core/tuner.h (which depends on this header).
  uint64_t max_retries = 0;
  double retry_cost_fraction = 0.0;
  double timeout_seconds = 0.0;
  double outlier_mad_threshold = 0.0;
  uint64_t outlier_min_history = 0;
  uint64_t remeasure_runs = 0;

  bool operator==(const JournalHeader& other) const;
  bool operator!=(const JournalHeader& other) const {
    return !(*this == other);
  }

  /// Human-readable list of fields that differ (for mismatch diagnostics).
  std::string DiffString(const JournalHeader& other) const;
};

/// One committed observation. kTrial mirrors a Trial the Evaluator appended
/// to its history (serial evaluation, one lane of a batch, a scaled or
/// censored run, or an adaptive tuner's composite trial); kUnit mirrors a
/// unit-level execution (Evaluator::EvaluateUnit), which charges budget and
/// feeds the tuner a measurement but creates no history entry.
enum class JournalRecordKind : uint8_t { kTrial = 1, kUnit = 2 };

struct JournalRecord {
  JournalRecordKind kind = JournalRecordKind::kTrial;
  /// Dense 0-based record index. Recovery stops at the first gap or
  /// duplicate, so a damaged tail can never smuggle records out of order.
  uint64_t seq = 0;
  Configuration config;
  ExecutionResult result;
  double objective = 0.0;
  /// Trial::cost for kTrial (the trial's reported cost); the budget charge
  /// for kUnit.
  double cost = 0.0;
  bool scaled = false;  ///< Trial::scaled (excluded from best-tracking)
  uint64_t round = 0;
  /// Lanes in the EvaluateBatch call this trial belongs to (1 for serial
  /// evaluations) and this trial's lane index. Recovery drops a trailing
  /// *incomplete* batch — its lanes re-execute on resume — so replay always
  /// hands a batch-aware tuner either the whole wave or none of it.
  uint64_t batch_size = 1;
  uint64_t lane = 0;
  uint64_t unit_index = 0;  ///< kUnit only
  /// Cumulative Evaluator state after this record committed. `system_runs`
  /// is the measurement-noise cursor: the number of parent-system executions
  /// the Evaluator has charged so far. During replay the Evaluator advances
  /// a fresh system by each record's delta with SkipRuns, so both replayed
  /// trials and any off-journal runs the tuner performs directly on the
  /// system land on the same run indices — and therefore draw exactly the
  /// noise — as in the uninterrupted session.
  uint64_t system_runs = 0;
  double used = 0.0;
  uint64_t retried_runs = 0;
  uint64_t timed_out_runs = 0;
  uint64_t remeasured_runs = 0;
  /// Size of the record's frame on disk. Filled by recovery, never
  /// serialized: replay re-records the live session's per-round
  /// io.append.bytes from it.
  uint64_t frame_bytes = 0;
};

/// View-based twin of JournalRecord for the Evaluator's zero-allocation
/// commit path: the config/result a trial just committed already live in the
/// Evaluator's history, so the journal borrows them by pointer instead of
/// copying them into a JournalRecord. The pointed-to objects must outlive
/// the AppendRef call (they are read during serialization only).
struct JournalRecordRef {
  JournalRecordKind kind = JournalRecordKind::kTrial;
  uint64_t seq = 0;
  const Configuration* config = nullptr;
  const ExecutionResult* result = nullptr;
  double objective = 0.0;
  double cost = 0.0;
  bool scaled = false;
  uint64_t round = 0;
  uint64_t batch_size = 1;
  uint64_t lane = 0;
  uint64_t unit_index = 0;
  uint64_t system_runs = 0;
  double used = 0.0;
  uint64_t retried_runs = 0;
  uint64_t timed_out_runs = 0;
  uint64_t remeasured_runs = 0;
};

/// How a session reacts to a journal I/O failure (the CLI's
/// --journal-policy flag). Strict is the default: measurements must never
/// outrun the checkpoint, so the session aborts with a clean kIoError.
/// Degrade trades resumability for availability: the Evaluator detaches the
/// journal, marks it with a `<path>.degraded` sidecar (so a later resume
/// refuses the incomplete record), and the session continues un-journaled
/// with counters and a warning.
enum class JournalPolicy : uint8_t { kStrict, kDegrade };

/// Sidecar marker a degraded session leaves next to its journal;
/// ResumeTuningSession refuses to resume while it exists, and
/// TrialJournal::Create removes a stale one when starting fresh.
inline constexpr char kDegradedSidecarSuffix[] = ".degraded";

/// How OpenForResume reads the file. kAuto (the default) memory-maps when
/// the platform supports it and falls back to the streaming read on any
/// mapping failure other than the file not existing; kStreaming forces the
/// read-into-memory path; kMmap requires the mapping (errors surface). The
/// env var ATUNE_JOURNAL_NO_MMAP=1 disables mapping under kAuto. Recovery
/// semantics are identical in every mode — the bench_hotpath replay section
/// and journal_mmap_test assert record-for-record equality.
enum class JournalReplayMode { kAuto, kStreaming, kMmap };

/// Process-wide replay-mode override (testing/benchmarking).
void SetJournalReplayModeForTesting(JournalReplayMode mode);
JournalReplayMode JournalReplayModeForTesting();

/// Write-ahead trial journal: an append-only file of checksummed records,
/// one per committed observation, written by the Evaluator before the
/// measurement reaches the tuner. Because every tuner is deterministic
/// given (seed, evaluator responses), the journal is a complete checkpoint:
/// ResumeTuningSession re-runs the tuner from scratch while the Evaluator
/// serves journaled observations instead of executing the system, then goes
/// live — no tuner needs bespoke serialization (DESIGN.md §8).
///
/// The unit of durability is the round, not the record: Append/AppendRef
/// only write a frame, and Commit() fsyncs every frame written since the
/// previous commit. The Evaluator commits once per evaluation round (after
/// the last lane of an EvaluateBatch wave, after every serial trial and
/// every unit record). Recovery already treats a batch as atomic, so the
/// lanes of an uncommitted round are exactly what a crash would discard.
///
/// On-disk format (little-endian):
///   magic "ATUNEWAL" | version u32 | frame(header) | frame(record)*
///   frame := payload_len u32 | crc32(payload) u32 | payload
/// Recovery keeps the longest valid prefix: parsing stops at the first
/// truncated, torn, CRC-mismatched, or out-of-sequence frame, trailing
/// incomplete batches are dropped, and the file is physically truncated to
/// what survived. Anything discarded is simply re-executed on resume —
/// corruption costs wall-clock, never correctness.
class TrialJournal {
 public:
  ~TrialJournal();
  TrialJournal(const TrialJournal&) = delete;
  TrialJournal& operator=(const TrialJournal&) = delete;

  /// Creates (or truncates) `path`, writes the header, and opens the
  /// journal for appending.
  static Result<std::unique_ptr<TrialJournal>> Create(
      const std::string& path, const JournalHeader& header);

  struct Recovered {
    /// Open for appending after the recovered prefix. nullptr when the
    /// file's magic/header was unreadable (header_valid == false) — the
    /// caller should Create() a fresh journal instead.
    std::unique_ptr<TrialJournal> journal;
    bool header_valid = false;
    JournalHeader header;
    std::vector<JournalRecord> records;
    /// What recovery had to discard, for operator visibility.
    std::vector<std::string> warnings;
    /// Whether recovery parsed the file through the zero-copy mmap path
    /// (false: streaming fallback — platform without mmap, a mapping
    /// failure, or the truncation-race guard tripping).
    bool used_mmap = false;
  };

  /// Loads `path`, recovering the longest valid record prefix and
  /// truncating the file to it. NotFound if the file does not exist; any
  /// *corrupt* file recovers (possibly to zero records) rather than erroring.
  static Result<Recovered> OpenForResume(const std::string& path);

  /// Writes one record: frames it with a CRC32 and writes it after the
  /// previous frame. The record is durable only once a later Commit()
  /// succeeds. A failed write drops every uncommitted frame (see
  /// ReverifyTail). `record.seq` is written verbatim — callers stamp it with
  /// next_seq().
  Status Append(const JournalRecord& record);

  /// Allocation-free Append: serializes into a reused member buffer and
  /// borrows config/result through the ref. Byte-identical on disk to
  /// Append with the equivalent JournalRecord. Not thread-safe (the
  /// Evaluator serializes commits under its own lock).
  Status AppendRef(const JournalRecordRef& record);

  /// Makes every frame appended since the previous commit durable with one
  /// fsync. A no-op when nothing is pending. On failure the journal drops
  /// the whole uncommitted round (ReverifyTail), so the file again ends at
  /// the previous commit and next_seq() rolls back with it.
  Status Commit();

  /// Sequence number the next appended record should carry.
  uint64_t next_seq() const { return next_seq_; }
  const std::string& path() const { return path_; }

  /// Bytes appended since the last successful commit.
  uint64_t pending_bytes() const { return end_offset_ - durable_offset_; }

  /// Cumulative transient-error retries / short-write continuations the
  /// append path has performed (WriteFully telemetry, surfaced by the
  /// Evaluator as io.append.retries / io.append.short_writes).
  uint64_t write_retries() const { return write_retries_; }
  uint64_t short_writes() const { return short_writes_; }

 private:
  TrialJournal(std::string path, IoEnv* env, std::unique_ptr<IoFile> file,
               uint64_t next_seq, uint64_t end_offset,
               uint64_t last_frame_start)
      : path_(std::move(path)),
        env_(env),
        file_(std::move(file)),
        next_seq_(next_seq),
        durable_seq_(next_seq),
        end_offset_(end_offset),
        durable_offset_(end_offset),
        last_frame_start_(last_frame_start),
        durable_last_frame_start_(last_frame_start) {}

  /// fsyncgate recovery: after a failed write or fsync the page-cache state
  /// is unknown, so the journal closes its handle, physically truncates the
  /// file back to the last offset known durable (`durable_offset_`, the end
  /// of the last commit — every uncommitted frame goes with it), reads the
  /// kept tail frame back and re-verifies its CRC, then re-opens for
  /// appending. On success the on-disk journal is once again exactly the
  /// committed prefix; on failure the journal stays closed and every later
  /// Append returns FailedPrecondition.
  Status ReverifyTail();
  /// ReverifyTail after a failed write or fsync; returns `status`, or the
  /// combined error when the re-verification fails too.
  Status FailUncommitted(Status status);

  std::string path_;
  IoEnv* env_ = nullptr;       ///< captured at open; borrowed
  std::unique_ptr<IoFile> file_;
  /// Sequence number of the next append, and of the first record after the
  /// last commit.
  uint64_t next_seq_ = 0;
  uint64_t durable_seq_ = 0;
  /// End offset of every written frame, and of the committed (written and
  /// fsynced) prefix: preamble + every frame of every committed round.
  /// Bytes past durable_offset_ are unverified.
  uint64_t end_offset_ = 0;
  uint64_t durable_offset_ = 0;
  /// Start offset of the final written frame, and of the final committed
  /// frame (the header frame when no record is committed) — the frame
  /// ReverifyTail re-checks.
  uint64_t last_frame_start_ = 0;
  uint64_t durable_last_frame_start_ = 0;
  uint64_t write_retries_ = 0;
  uint64_t short_writes_ = 0;
  /// Reused frame buffer for AppendRef: after the first append it has the
  /// high-water capacity and appends allocate nothing.
  std::string frame_buf_;
};

}  // namespace atune

#endif  // ATUNE_CORE_JOURNAL_H_
