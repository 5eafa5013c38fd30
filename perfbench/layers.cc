#include "layers.h"

#include <utility>

#include "common/file_util.h"

namespace perfbench {

using atune::IoEnv;
using atune::IoFile;
using atune::Result;
using atune::Status;

// ---- BusyClock ---------------------------------------------------------------

void BusyClock::Enter(uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (depth_++ == 0) since_ns_ = now_ns;
}

void BusyClock::Exit(uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (depth_ == 0) return;
  if (--depth_ == 0 && now_ns > since_ns_) busy_ns_ += now_ns - since_ns_;
}

uint64_t BusyClock::busy_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return busy_ns_;
}

void BusyClock::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  depth_ = 0;
  since_ns_ = 0;
  busy_ns_ = 0;
}

// ---- IoCounts ------------------------------------------------------------------

IoClass ClassifyPath(const std::string& path) {
  if (path.find(".wal") != std::string::npos) return IoClass::kJournal;
  if (path.find("/knowledge/") != std::string::npos) return IoClass::kKnowledge;
  return IoClass::kOther;
}

uint64_t IoCounts::TotalWrites() const {
  uint64_t total = 0;
  for (uint64_t v : writes) total += v;
  return total;
}

uint64_t IoCounts::TotalBytes() const {
  uint64_t total = 0;
  for (uint64_t v : bytes) total += v;
  return total;
}

uint64_t IoCounts::TotalFlushes() const {
  uint64_t total = 0;
  for (size_t c = 0; c < kNumIoClasses; ++c) total += syncs[c] + syncdirs[c];
  return total;
}

IoCounts IoCounts::Minus(const IoCounts& base) const {
  IoCounts d = *this;
  for (size_t c = 0; c < kNumIoClasses; ++c) {
    d.writes[c] -= base.writes[c];
    d.bytes[c] -= base.bytes[c];
    d.syncs[c] -= base.syncs[c];
    d.syncdirs[c] -= base.syncdirs[c];
  }
  d.opens -= base.opens;
  d.renames -= base.renames;
  d.truncates -= base.truncates;
  d.unlinks -= base.unlinks;
  d.reads -= base.reads;
  d.bytes_read -= base.bytes_read;
  d.busy_ns -= base.busy_ns;
  d.knowledge_busy_ns -= base.knowledge_busy_ns;
  return d;
}

// ---- CountingIoEnv ---------------------------------------------------------------

namespace {

/// Times one op when the env is timed: busy-union enter/exit plus the
/// summed knowledge-op time. A no-op (no clock read) otherwise.
class OpTimer {
 public:
  OpTimer(bool timed, BusyClock* busy, std::atomic<uint64_t>* knowledge_ns,
          IoClass cls)
      : busy_(timed ? busy : nullptr),
        knowledge_ns_(cls == IoClass::kKnowledge ? knowledge_ns : nullptr) {
    if (busy_ != nullptr) {
      begin_ns_ = NowNs();
      busy_->Enter(begin_ns_);
    }
  }
  ~OpTimer() { (void)Finish(); }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

  /// Ends the op (idempotent); returns its duration (0 when untimed).
  uint64_t Finish() {
    if (busy_ == nullptr) return 0;
    uint64_t end = NowNs();
    busy_->Exit(end);
    busy_ = nullptr;
    uint64_t elapsed = end - begin_ns_;
    if (knowledge_ns_ != nullptr) {
      knowledge_ns_->fetch_add(elapsed, std::memory_order_relaxed);
    }
    return elapsed;
  }

 private:
  BusyClock* busy_;
  std::atomic<uint64_t>* knowledge_ns_;
  uint64_t begin_ns_ = 0;
};

}  // namespace

class CountingFile : public IoFile {
 public:
  CountingFile(CountingIoEnv* env, std::unique_ptr<IoFile> base, IoClass cls,
               uint64_t offset, bool watched)
      : env_(env),
        base_(std::move(base)),
        cls_(cls),
        offset_(offset),
        watched_(watched) {}

  Status Write(const void* data, size_t n, size_t* written,
               bool* transient) override {
    OpTimer timer(env_->timed(), &env_->busy_, &env_->knowledge_busy_ns_,
                  cls_);
    Status status = base_->Write(data, n, written, transient);
    if (status.ok()) {
      env_->CountWrite(cls_, *written);
      offset_ += *written;
    }
    return status;
  }

  Status Sync() override {
    bool timed = env_->timed();
    OpTimer timer(timed, &env_->busy_, &env_->knowledge_busy_ns_, cls_);
    Status status = env_->absorb_flushes() ? Status::OK() : base_->Sync();
    uint64_t elapsed = timer.Finish();
    if (status.ok()) {
      env_->CountSync(cls_, elapsed, timed);
      if (watched_) {
        env_->watched_synced_.store(offset_, std::memory_order_release);
      }
    }
    return status;
  }

  Status Close() override { return base_->Close(); }

 private:
  CountingIoEnv* env_;
  std::unique_ptr<IoFile> base_;
  IoClass cls_;
  uint64_t offset_;
  bool watched_;
};

CountingIoEnv::CountingIoEnv(bool absorb_flushes)
    : base_(IoEnv::Default()), absorb_flushes_(absorb_flushes) {}

void CountingIoEnv::CountWrite(IoClass cls, uint64_t bytes) {
  size_t c = static_cast<size_t>(cls);
  writes_[c].fetch_add(1, std::memory_order_relaxed);
  bytes_[c].fetch_add(bytes, std::memory_order_relaxed);
}

void CountingIoEnv::CountSync(IoClass cls, uint64_t elapsed_ns, bool timed) {
  syncs_[static_cast<size_t>(cls)].fetch_add(1, std::memory_order_relaxed);
  if (timed) {
    std::lock_guard<std::mutex> lock(sync_mu_);
    sync_latency_us_.push_back(static_cast<double>(elapsed_ns) / 1e3);
  }
}

Result<std::unique_ptr<IoFile>> CountingIoEnv::OpenWritable(
    const std::string& path, OpenMode mode) {
  IoClass cls = ClassifyPath(path);
  OpTimer timer(timed(), &busy_, &knowledge_busy_ns_, cls);
  opens_.fetch_add(1, std::memory_order_relaxed);
  bool watched = false;
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    watched = !watch_path_.empty() && path == watch_path_;
  }
  uint64_t offset = 0;
  if (watched && mode == OpenMode::kAppend) {
    auto size = base_->FileSize(path);
    if (size.ok()) offset = *size;
  }
  auto file = base_->OpenWritable(path, mode);
  if (!file.ok()) return file.status();
  return std::unique_ptr<IoFile>(std::make_unique<CountingFile>(
      this, std::move(*file), cls, offset, watched));
}

Status CountingIoEnv::Rename(const std::string& from, const std::string& to) {
  OpTimer timer(timed(), &busy_, &knowledge_busy_ns_, ClassifyPath(to));
  renames_.fetch_add(1, std::memory_order_relaxed);
  return base_->Rename(from, to);
}

Status CountingIoEnv::Truncate(const std::string& path, uint64_t length) {
  OpTimer timer(timed(), &busy_, &knowledge_busy_ns_, ClassifyPath(path));
  truncates_.fetch_add(1, std::memory_order_relaxed);
  return base_->Truncate(path, length);
}

Status CountingIoEnv::SyncDir(const std::string& path) {
  IoClass cls = ClassifyPath(path);
  OpTimer timer(timed(), &busy_, &knowledge_busy_ns_, cls);
  Status status = absorb_flushes_ ? Status::OK() : base_->SyncDir(path);
  if (status.ok()) {
    syncdirs_[static_cast<size_t>(cls)].fetch_add(1,
                                                  std::memory_order_relaxed);
  }
  return status;
}

Status CountingIoEnv::Unlink(const std::string& path) {
  OpTimer timer(timed(), &busy_, &knowledge_busy_ns_, ClassifyPath(path));
  unlinks_.fetch_add(1, std::memory_order_relaxed);
  return base_->Unlink(path);
}

Status CountingIoEnv::ReadFileToString(const std::string& path,
                                       std::string* out) {
  OpTimer timer(timed(), &busy_, &knowledge_busy_ns_, ClassifyPath(path));
  Status status = base_->ReadFileToString(path, out);
  if (status.ok()) {
    reads_.fetch_add(1, std::memory_order_relaxed);
    bytes_read_.fetch_add(out->size(), std::memory_order_relaxed);
  }
  return status;
}

Result<uint64_t> CountingIoEnv::FileSize(const std::string& path) {
  OpTimer timer(timed(), &busy_, &knowledge_busy_ns_, ClassifyPath(path));
  return base_->FileSize(path);
}

Result<atune::MappedFile> CountingIoEnv::Map(const std::string& path) {
  OpTimer timer(timed(), &busy_, &knowledge_busy_ns_, ClassifyPath(path));
  auto mapped = base_->Map(path);
  if (mapped.ok()) {
    reads_.fetch_add(1, std::memory_order_relaxed);
    bytes_read_.fetch_add(mapped->size(), std::memory_order_relaxed);
  }
  return mapped;
}

IoCounts CountingIoEnv::Snapshot() const {
  IoCounts s;
  for (size_t c = 0; c < kNumIoClasses; ++c) {
    s.writes[c] = writes_[c].load(std::memory_order_relaxed);
    s.bytes[c] = bytes_[c].load(std::memory_order_relaxed);
    s.syncs[c] = syncs_[c].load(std::memory_order_relaxed);
    s.syncdirs[c] = syncdirs_[c].load(std::memory_order_relaxed);
  }
  s.opens = opens_.load(std::memory_order_relaxed);
  s.renames = renames_.load(std::memory_order_relaxed);
  s.truncates = truncates_.load(std::memory_order_relaxed);
  s.unlinks = unlinks_.load(std::memory_order_relaxed);
  s.reads = reads_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  s.busy_ns = busy_.busy_ns();
  s.knowledge_busy_ns = knowledge_busy_ns_.load(std::memory_order_relaxed);
  return s;
}

std::vector<double> CountingIoEnv::TakeSyncLatenciesUs() {
  std::lock_guard<std::mutex> lock(sync_mu_);
  return std::exchange(sync_latency_us_, {});
}

void CountingIoEnv::Watch(const std::string& path) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  watch_path_ = path;
  watched_synced_.store(0, std::memory_order_release);
}

// ---- MeasuredSystem ------------------------------------------------------------

void SystemCounters::Reset() {
  execute_calls.store(0, std::memory_order_relaxed);
  execute_ns.store(0, std::memory_order_relaxed);
  busy.Reset();
}

MeasuredSystem::MeasuredSystem(std::unique_ptr<atune::TunableSystem> base,
                               SystemCounters* counters)
    : base_(std::move(base)), counters_(counters) {}

Result<atune::ExecutionResult> MeasuredSystem::Execute(
    const atune::Configuration& config, const atune::Workload& workload) {
  counters_->execute_calls.fetch_add(1, std::memory_order_relaxed);
  if (!counters_->timed.load(std::memory_order_relaxed)) {
    return base_->Execute(config, workload);
  }
  uint64_t begin = NowNs();
  counters_->busy.Enter(begin);
  auto result = base_->Execute(config, workload);
  uint64_t end = NowNs();
  counters_->busy.Exit(end);
  counters_->execute_ns.fetch_add(end - begin, std::memory_order_relaxed);
  return result;
}

std::unique_ptr<atune::TunableSystem> MeasuredSystem::Clone(
    uint64_t runs_ahead) const {
  auto clone = base_->Clone(runs_ahead);
  if (clone == nullptr) return nullptr;
  return std::make_unique<MeasuredSystem>(std::move(clone), counters_);
}

}  // namespace perfbench
