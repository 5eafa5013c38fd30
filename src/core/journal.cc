#include "core/journal.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/file_util.h"
#include "common/io_env.h"
#include "common/string_util.h"

namespace atune {
namespace {

constexpr char kMagic[8] = {'A', 'T', 'U', 'N', 'E', 'W', 'A', 'L'};
constexpr uint32_t kVersion = 1;
/// Sanity cap on one frame; a corrupt length field must not trigger a
/// gigantic allocation during recovery.
constexpr uint32_t kMaxFrameBytes = 64u << 20;

// ---- byte-buffer primitives (little-endian) -------------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}
void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}
void PutDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}
void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked reader over a payload; any overrun marks it bad and all
/// later Gets fail, so parse code can check ok() once at the end.
class Reader {
 public:
  Reader(const char* data, size_t n) : p_(data), end_(data + n) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return p_ == end_; }

  uint8_t GetU8() {
    if (!Require(1)) return 0;
    return static_cast<uint8_t>(*p_++);
  }
  uint32_t GetU32() {
    if (!Require(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(*p_++)) << (8 * i);
    }
    return v;
  }
  uint64_t GetU64() {
    if (!Require(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(*p_++)) << (8 * i);
    }
    return v;
  }
  double GetDouble() {
    uint64_t bits = GetU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string GetString() {
    uint32_t n = GetU32();
    if (!Require(n)) return std::string();
    std::string s(p_, n);
    p_ += n;
    return s;
  }

 private:
  bool Require(size_t n) {
    if (!ok_ || static_cast<size_t>(end_ - p_) < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const char* p_;
  const char* end_;
  bool ok_ = true;
};

// ---- domain-type serialization --------------------------------------------

void PutConfiguration(std::string* out, const Configuration& config) {
  PutU32(out, static_cast<uint32_t>(config.values().size()));
  for (const auto& [name, value] : config.values()) {  // sorted: std::map
    PutString(out, name);
    PutU8(out, static_cast<uint8_t>(value.index()));
    if (const auto* i = std::get_if<int64_t>(&value)) {
      PutU64(out, static_cast<uint64_t>(*i));
    } else if (const auto* d = std::get_if<double>(&value)) {
      PutDouble(out, *d);
    } else if (const auto* b = std::get_if<bool>(&value)) {
      PutU8(out, *b ? 1 : 0);
    } else {
      PutString(out, std::get<std::string>(value));
    }
  }
}

bool GetConfiguration(Reader* in, Configuration* config) {
  uint32_t n = in->GetU32();
  for (uint32_t i = 0; i < n && in->ok(); ++i) {
    std::string name = in->GetString();
    uint8_t tag = in->GetU8();
    switch (tag) {
      case 0:
        config->SetInt(name, static_cast<int64_t>(in->GetU64()));
        break;
      case 1:
        config->SetDouble(name, in->GetDouble());
        break;
      case 2:
        config->SetBool(name, in->GetU8() != 0);
        break;
      case 3:
        config->SetString(name, in->GetString());
        break;
      default:
        return false;
    }
  }
  return in->ok();
}

void PutExecutionResult(std::string* out, const ExecutionResult& result) {
  PutDouble(out, result.runtime_seconds);
  PutU8(out, result.failed ? 1 : 0);
  PutU8(out, result.transient ? 1 : 0);
  PutU8(out, result.censored ? 1 : 0);
  PutString(out, result.failure_reason);
  PutU32(out, static_cast<uint32_t>(result.metrics.size()));
  for (const auto& [key, value] : result.metrics) {
    PutString(out, key);
    PutDouble(out, value);
  }
}

bool GetExecutionResult(Reader* in, ExecutionResult* result) {
  result->runtime_seconds = in->GetDouble();
  result->failed = in->GetU8() != 0;
  result->transient = in->GetU8() != 0;
  result->censored = in->GetU8() != 0;
  result->failure_reason = in->GetString();
  uint32_t n = in->GetU32();
  for (uint32_t i = 0; i < n && in->ok(); ++i) {
    std::string key = in->GetString();
    result->metrics[key] = in->GetDouble();
  }
  return in->ok();
}

std::string SerializeHeader(const JournalHeader& header) {
  std::string out;
  PutString(&out, header.tuner_name);
  PutString(&out, header.system_name);
  PutString(&out, header.workload_name);
  PutString(&out, header.workload_kind);
  PutDouble(&out, header.workload_scale);
  PutU32(&out, static_cast<uint32_t>(header.workload_properties.size()));
  for (const auto& [key, value] : header.workload_properties) {
    PutString(&out, key);
    PutDouble(&out, value);
  }
  PutU64(&out, header.seed);
  PutU64(&out, header.max_evaluations);
  PutDouble(&out, header.failure_penalty);
  PutU64(&out, header.max_retries);
  PutDouble(&out, header.retry_cost_fraction);
  PutDouble(&out, header.timeout_seconds);
  PutDouble(&out, header.outlier_mad_threshold);
  PutU64(&out, header.outlier_min_history);
  PutU64(&out, header.remeasure_runs);
  return out;
}

bool ParseHeader(const char* payload, size_t len, JournalHeader* header) {
  Reader in(payload, len);
  header->tuner_name = in.GetString();
  header->system_name = in.GetString();
  header->workload_name = in.GetString();
  header->workload_kind = in.GetString();
  header->workload_scale = in.GetDouble();
  uint32_t n = in.GetU32();
  for (uint32_t i = 0; i < n && in.ok(); ++i) {
    std::string key = in.GetString();
    header->workload_properties[key] = in.GetDouble();
  }
  header->seed = in.GetU64();
  header->max_evaluations = in.GetU64();
  header->failure_penalty = in.GetDouble();
  header->max_retries = in.GetU64();
  header->retry_cost_fraction = in.GetDouble();
  header->timeout_seconds = in.GetDouble();
  header->outlier_mad_threshold = in.GetDouble();
  header->outlier_min_history = in.GetU64();
  header->remeasure_runs = in.GetU64();
  return in.ok() && in.AtEnd();
}

void SerializeRecordInto(std::string* out, const JournalRecordRef& record) {
  PutU8(out, static_cast<uint8_t>(record.kind));
  PutU64(out, record.seq);
  PutConfiguration(out, *record.config);
  PutExecutionResult(out, *record.result);
  PutDouble(out, record.objective);
  PutDouble(out, record.cost);
  PutU8(out, record.scaled ? 1 : 0);
  PutU64(out, record.round);
  PutU64(out, record.batch_size);
  PutU64(out, record.lane);
  PutU64(out, record.unit_index);
  PutU64(out, record.system_runs);
  PutDouble(out, record.used);
  PutU64(out, record.retried_runs);
  PutU64(out, record.timed_out_runs);
  PutU64(out, record.remeasured_runs);
}

/// Borrowing view of an owning record, for the Append -> AppendRef funnel.
JournalRecordRef RefOf(const JournalRecord& record) {
  JournalRecordRef ref;
  ref.kind = record.kind;
  ref.seq = record.seq;
  ref.config = &record.config;
  ref.result = &record.result;
  ref.objective = record.objective;
  ref.cost = record.cost;
  ref.scaled = record.scaled;
  ref.round = record.round;
  ref.batch_size = record.batch_size;
  ref.lane = record.lane;
  ref.unit_index = record.unit_index;
  ref.system_runs = record.system_runs;
  ref.used = record.used;
  ref.retried_runs = record.retried_runs;
  ref.timed_out_runs = record.timed_out_runs;
  ref.remeasured_runs = record.remeasured_runs;
  return ref;
}

bool ParseRecord(const char* payload, size_t len, JournalRecord* record) {
  Reader in(payload, len);
  uint8_t kind = in.GetU8();
  if (kind != static_cast<uint8_t>(JournalRecordKind::kTrial) &&
      kind != static_cast<uint8_t>(JournalRecordKind::kUnit)) {
    return false;
  }
  record->kind = static_cast<JournalRecordKind>(kind);
  record->seq = in.GetU64();
  if (!GetConfiguration(&in, &record->config)) return false;
  if (!GetExecutionResult(&in, &record->result)) return false;
  record->objective = in.GetDouble();
  record->cost = in.GetDouble();
  record->scaled = in.GetU8() != 0;
  record->round = in.GetU64();
  record->batch_size = in.GetU64();
  record->lane = in.GetU64();
  record->unit_index = in.GetU64();
  record->system_runs = in.GetU64();
  record->used = in.GetDouble();
  record->retried_runs = in.GetU64();
  record->timed_out_runs = in.GetU64();
  record->remeasured_runs = in.GetU64();
  return in.ok() && in.AtEnd();
}

std::string Frame(const std::string& payload) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU32(&out, Crc32(0, payload.data(), payload.size()));
  out.append(payload);
  return out;
}

/// Reads one frame at `*offset` of the (data, size) span, advancing past it
/// on success. The payload is returned as a view into the span — no copy —
/// so recovery parses a memory-mapped journal in place. Returns false on a
/// truncated, torn, oversized, or CRC-mismatched frame (*offset is left at
/// the frame start: the recovery truncation point).
bool ReadFrame(const char* data, size_t size, size_t* offset,
               const char** payload, size_t* payload_len) {
  size_t pos = *offset;
  if (size - pos < 8) return false;
  Reader head(data + pos, 8);
  uint32_t len = head.GetU32();
  uint32_t crc = head.GetU32();
  if (len > kMaxFrameBytes || size - pos - 8 < len) return false;
  if (Crc32(0, data + pos + 8, len) != crc) return false;
  *payload = data + pos + 8;
  *payload_len = len;
  *offset = pos + 8 + len;
  return true;
}

std::atomic<JournalReplayMode> g_replay_mode{JournalReplayMode::kAuto};

}  // namespace

void SetJournalReplayModeForTesting(JournalReplayMode mode) {
  g_replay_mode.store(mode, std::memory_order_relaxed);
}

JournalReplayMode JournalReplayModeForTesting() {
  return g_replay_mode.load(std::memory_order_relaxed);
}

bool JournalHeader::operator==(const JournalHeader& other) const {
  return SerializeHeader(*this) == SerializeHeader(other);
}

std::string JournalHeader::DiffString(const JournalHeader& other) const {
  std::vector<std::string> diffs;
  auto check = [&diffs](const char* field, const std::string& a,
                        const std::string& b) {
    if (a != b) {
      diffs.push_back(StrFormat("%s ('%s' vs '%s')", field, a.c_str(),
                                b.c_str()));
    }
  };
  check("tuner", tuner_name, other.tuner_name);
  check("system", system_name, other.system_name);
  check("workload", workload_name, other.workload_name);
  check("workload kind", workload_kind, other.workload_kind);
  if (workload_scale != other.workload_scale) diffs.push_back("scale");
  if (workload_properties != other.workload_properties) {
    diffs.push_back("workload properties");
  }
  if (seed != other.seed) {
    diffs.push_back(StrFormat("seed (%llu vs %llu)",
                              static_cast<unsigned long long>(seed),
                              static_cast<unsigned long long>(other.seed)));
  }
  if (max_evaluations != other.max_evaluations) diffs.push_back("budget");
  if (failure_penalty != other.failure_penalty) {
    diffs.push_back("failure penalty");
  }
  if (max_retries != other.max_retries ||
      retry_cost_fraction != other.retry_cost_fraction ||
      timeout_seconds != other.timeout_seconds ||
      outlier_mad_threshold != other.outlier_mad_threshold ||
      outlier_min_history != other.outlier_min_history ||
      remeasure_runs != other.remeasure_runs) {
    diffs.push_back("robustness policy");
  }
  return diffs.empty() ? "identical" : Join(diffs, ", ");
}

TrialJournal::~TrialJournal() = default;

Result<std::unique_ptr<TrialJournal>> TrialJournal::Create(
    const std::string& path, const JournalHeader& header) {
  IoEnv* env = IoEnv::Current();
  auto file = env->OpenWritable(path, IoEnv::OpenMode::kTruncate);
  if (!file.ok()) return file.status();
  std::string preamble(kMagic, sizeof(kMagic));
  PutU32(&preamble, kVersion);
  preamble += Frame(SerializeHeader(header));
  Status status = WriteFully(env, file->get(), preamble.data(),
                             preamble.size());
  if (status.ok()) status = (*file)->Sync();
  // A stale degraded-marker from an earlier session must not outlive the
  // fresh journal it no longer describes.
  if (status.ok()) (void)env->Unlink(path + kDegradedSidecarSuffix);
  // A freshly created journal also needs its directory entry durable, or a
  // crash right after Create can leave no journal at all.
  if (status.ok()) status = env->SyncDir(path);
  if (!status.ok()) {
    (void)(*file)->Close();
    return status;
  }
  size_t header_frame_start = sizeof(kMagic) + 4;
  return std::unique_ptr<TrialJournal>(
      new TrialJournal(path, env, std::move(*file), 0, preamble.size(),
                       header_frame_start));
}

Result<TrialJournal::Recovered> TrialJournal::OpenForResume(
    const std::string& path) {
  // Zero-copy fast path: mmap the file and parse frames in place. Streaming
  // (read-into-memory) remains the fallback for platforms without mmap, any
  // mapping failure under kAuto, or an explicit override. A missing file is
  // NotFound in every mode, matching the pre-mmap behavior.
  IoEnv* env = IoEnv::Current();
  JournalReplayMode mode = JournalReplayModeForTesting();
  const char* no_mmap_env = std::getenv("ATUNE_JOURNAL_NO_MMAP");
  bool env_disables =
      no_mmap_env != nullptr && *no_mmap_env != '\0' &&
      std::strcmp(no_mmap_env, "0") != 0;
  MappedFile mapped;
  std::string streamed;
  const char* data = nullptr;
  size_t size = 0;
  bool use_mmap = false;
  if (mode == JournalReplayMode::kMmap ||
      (mode == JournalReplayMode::kAuto && MappedFile::Supported() &&
       !env_disables)) {
    Result<MappedFile> map = env->Map(path);
    if (map.ok()) {
      // Truncation-race guard: the size was captured once at map time, and
      // every frame below is bounds-checked against it. If the file shrank
      // between open and map (a concurrent truncation), pages past the new
      // EOF would SIGBUS on touch — so re-stat and, on any mismatch, fall
      // back to the streaming reader, which snapshots the bytes.
      Result<uint64_t> current_size = env->FileSize(path);
      if (current_size.ok() && *current_size == map->size()) {
        mapped = std::move(*map);
        data = mapped.data();
        size = mapped.size();
        use_mmap = true;
      } else if (mode == JournalReplayMode::kMmap) {
        return Status::IoError(StrFormat(
            "journal '%s': size changed under the mapping (%zu mapped)",
            path.c_str(), map->size()));
      }
    } else if (mode == JournalReplayMode::kMmap ||
               map.status().code() == StatusCode::kNotFound) {
      return map.status();
    }
    // kAuto with a non-NotFound mapping failure (or a size mismatch): fall
    // back to streaming.
  }
  if (!use_mmap) {
    ATUNE_RETURN_IF_ERROR(env->ReadFileToString(path, &streamed));
    data = streamed.data();
    size = streamed.size();
  }

  Recovered recovered;
  recovered.used_mmap = use_mmap;
  size_t offset = 0;
  // Magic + version + header frame. Damage here leaves nothing to trust
  // (we cannot even verify the session fingerprint), so the whole file is
  // discarded and the caller starts a fresh journal.
  bool preamble_ok = size >= sizeof(kMagic) + 4 &&
                     std::memcmp(data, kMagic, sizeof(kMagic)) == 0;
  if (preamble_ok) {
    Reader version_reader(data + sizeof(kMagic), 4);
    preamble_ok = version_reader.GetU32() == kVersion;
  }
  const char* payload = nullptr;
  size_t payload_len = 0;
  if (preamble_ok) {
    offset = sizeof(kMagic) + 4;
    preamble_ok = ReadFrame(data, size, &offset, &payload, &payload_len) &&
                  ParseHeader(payload, payload_len, &recovered.header);
  }
  if (!preamble_ok) {
    recovered.header_valid = false;
    recovered.warnings.push_back(StrFormat(
        "journal '%s': unreadable magic/header (%zu bytes); discarding file "
        "and starting fresh",
        path.c_str(), size));
    return recovered;
  }
  recovered.header_valid = true;

  // Longest valid prefix: stop at the first bad frame or sequence break.
  std::vector<size_t> record_ends;  // byte offset after record i
  while (offset < size) {
    size_t frame_start = offset;
    JournalRecord record;
    if (!ReadFrame(data, size, &offset, &payload, &payload_len) ||
        !ParseRecord(payload, payload_len, &record)) {
      recovered.warnings.push_back(StrFormat(
          "journal '%s': corrupt or torn frame at byte %zu; keeping the %zu "
          "valid records before it",
          path.c_str(), frame_start, recovered.records.size()));
      offset = frame_start;
      break;
    }
    if (record.seq != recovered.records.size()) {
      recovered.warnings.push_back(StrFormat(
          "journal '%s': record at byte %zu has sequence %llu, expected %zu "
          "(duplicate or out-of-order); truncating there",
          path.c_str(), frame_start,
          static_cast<unsigned long long>(record.seq),
          recovered.records.size()));
      offset = frame_start;
      break;
    }
    record.frame_bytes = offset - frame_start;
    recovered.records.push_back(std::move(record));
    record_ends.push_back(offset);
  }

  // Drop a trailing incomplete batch: a crash mid-round can leave a prefix
  // of the wave's frames (written, never committed). Replay hands a
  // batch-aware tuner whole waves only; the dropped lanes re-execute.
  size_t dropped_lanes = 0;
  while (!recovered.records.empty()) {
    const JournalRecord& last = recovered.records.back();
    if (last.kind != JournalRecordKind::kTrial || last.batch_size <= 1 ||
        last.lane + 1 == last.batch_size) {
      break;
    }
    recovered.records.pop_back();
    record_ends.pop_back();
    ++dropped_lanes;
  }
  if (dropped_lanes > 0) {
    recovered.warnings.push_back(StrFormat(
        "journal '%s': dropped %zu trailing lane(s) of an incomplete batch",
        path.c_str(), dropped_lanes));
  }

  size_t valid_end;
  size_t last_frame_start;
  size_t header_end = sizeof(kMagic) + 4;
  ReadFrame(data, size, &header_end, &payload, &payload_len);
  if (!record_ends.empty()) {
    valid_end = record_ends.back();
    last_frame_start = record_ends.size() >= 2
                           ? record_ends[record_ends.size() - 2]
                           : header_end;
  } else {
    // No surviving records: keep just the preamble + header frame.
    valid_end = header_end;
    last_frame_start = sizeof(kMagic) + 4;
  }
  size_t file_size = size;
  // Release the mapping before truncating: shrinking a file under a live
  // mapping leaves pages whose reads are undefined.
  mapped = MappedFile();
  data = nullptr;
  if (valid_end < file_size) {
    ATUNE_RETURN_IF_ERROR(TruncateFile(path, valid_end));
  }

  auto file = env->OpenWritable(path, IoEnv::OpenMode::kAppend);
  if (!file.ok()) return file.status();
  recovered.journal = std::unique_ptr<TrialJournal>(
      new TrialJournal(path, env, std::move(*file), recovered.records.size(),
                       valid_end, last_frame_start));
  return recovered;
}

Status TrialJournal::Append(const JournalRecord& record) {
  return AppendRef(RefOf(record));
}

Status TrialJournal::AppendRef(const JournalRecordRef& record) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal is not open for appending");
  }
  // Serialize after an 8-byte placeholder, then patch the frame header in
  // place — the same bytes Frame(SerializeRecord(...)) produced, without the
  // two temporary strings.
  frame_buf_.clear();
  frame_buf_.append(8, '\0');
  SerializeRecordInto(&frame_buf_, record);
  uint32_t len = static_cast<uint32_t>(frame_buf_.size() - 8);
  uint32_t crc = Crc32(0, frame_buf_.data() + 8, len);
  for (int i = 0; i < 4; ++i) {
    frame_buf_[i] = static_cast<char>((len >> (8 * i)) & 0xFF);
    frame_buf_[4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  uint64_t retries = 0;
  uint64_t shorts = 0;
  Status status = WriteFully(env_, file_.get(), frame_buf_.data(),
                             frame_buf_.size(), &retries, &shorts);
  write_retries_ += retries;
  short_writes_ += shorts;
  if (!status.ok()) return FailUncommitted(std::move(status));
  last_frame_start_ = end_offset_;
  end_offset_ += frame_buf_.size();
  next_seq_ = record.seq + 1;
  return Status::OK();
}

Status TrialJournal::Commit() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal is not open for appending");
  }
  if (end_offset_ == durable_offset_) return Status::OK();
  Status status = file_->Sync();
  if (!status.ok()) return FailUncommitted(std::move(status));
  durable_offset_ = end_offset_;
  durable_last_frame_start_ = last_frame_start_;
  durable_seq_ = next_seq_;
  return Status::OK();
}

Status TrialJournal::FailUncommitted(Status status) {
  // The write failed partway, or the fsync failed — either way the bytes
  // past durable_offset_ are in an unknown state (fsyncgate: a failed fsync
  // may have dropped the dirty pages, and retrying it would just report
  // success on whatever survived). Restore the invariant that the on-disk
  // journal is exactly the committed prefix; the whole uncommitted round
  // goes, as it would in a crash.
  Status reverify = ReverifyTail();
  if (!reverify.ok()) {
    return Status::IoError(StrFormat("%s; tail re-verify also failed: %s",
                                     status.message().c_str(),
                                     reverify.message().c_str()));
  }
  return status;
}

Status TrialJournal::ReverifyTail() {
  if (file_ != nullptr) {
    (void)file_->Close();
    file_.reset();
  }
  // Physically discard the unverified bytes, then prove the kept tail is
  // intact by reading its final frame back and re-checking the CRC. Only
  // after both succeed is the journal re-opened for appending.
  end_offset_ = durable_offset_;
  last_frame_start_ = durable_last_frame_start_;
  next_seq_ = durable_seq_;
  ATUNE_RETURN_IF_ERROR(env_->Truncate(path_, durable_offset_));
  {
    auto sync_handle = env_->OpenWritable(path_, IoEnv::OpenMode::kAppend);
    if (!sync_handle.ok()) return sync_handle.status();
    Status status = (*sync_handle)->Sync();
    Status close_status = (*sync_handle)->Close();
    ATUNE_RETURN_IF_ERROR(status.ok() ? close_status : status);
  }
  std::string contents;
  ATUNE_RETURN_IF_ERROR(env_->ReadFileToString(path_, &contents));
  if (contents.size() != durable_offset_) {
    return Status::IoError(StrFormat(
        "journal '%s': %zu bytes on disk after truncation to %llu",
        path_.c_str(), contents.size(),
        static_cast<unsigned long long>(durable_offset_)));
  }
  size_t offset = durable_last_frame_start_;
  const char* payload = nullptr;
  size_t payload_len = 0;
  if (!ReadFrame(contents.data(), contents.size(), &offset, &payload,
                 &payload_len) ||
      offset != durable_offset_) {
    return Status::IoError(StrFormat(
        "journal '%s': tail frame failed CRC re-verification after an I/O "
        "failure — durable prefix is damaged",
        path_.c_str()));
  }
  auto reopened = env_->OpenWritable(path_, IoEnv::OpenMode::kAppend);
  if (!reopened.ok()) return reopened.status();
  file_ = std::move(*reopened);
  return Status::OK();
}

}  // namespace atune
