#ifndef ATUNE_PERFBENCH_LAYERS_H_
#define ATUNE_PERFBENCH_LAYERS_H_

// Bench-side decorators that measure the library's layers from outside, by
// counting (and, in traced runs, timing) the calls into them:
//   * CountingIoEnv  — every durable write of the process (journal, knowledge
//     shards, the daemon's .meta/.result files) goes through IoEnv::Current();
//   * MeasuredSystem — every simulator execution of an in-process session.
// Untraced runs keep only relaxed atomic counters: no clock is read.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/io_env.h"
#include "core/system.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Wall time during which at least one caller was inside a layer: the union
/// of possibly overlapping [Enter, Exit) intervals from any number of
/// threads (parallel batch lanes, daemon workers).
class BusyClock {
 public:
  void Enter(uint64_t now_ns);
  void Exit(uint64_t now_ns);
  uint64_t busy_ns() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  uint64_t depth_ = 0;     // guarded by mu_
  uint64_t since_ns_ = 0;  // guarded by mu_
  uint64_t busy_ns_ = 0;   // guarded by mu_
};

/// Which library module a path belongs to (by the benchmark's own naming of
/// its state directory).
enum class IoClass : uint8_t { kJournal = 0, kKnowledge, kOther };
inline constexpr size_t kNumIoClasses = 3;
IoClass ClassifyPath(const std::string& path);

/// Plain snapshot of CountingIoEnv's counters.
struct IoCounts {
  uint64_t writes[kNumIoClasses] = {};
  uint64_t bytes[kNumIoClasses] = {};
  uint64_t syncs[kNumIoClasses] = {};
  uint64_t syncdirs[kNumIoClasses] = {};
  uint64_t opens = 0;
  uint64_t renames = 0;
  uint64_t truncates = 0;
  uint64_t unlinks = 0;
  uint64_t reads = 0;
  uint64_t bytes_read = 0;
  uint64_t busy_ns = 0;  ///< traced only: union of time inside any op
  uint64_t knowledge_busy_ns = 0;  ///< traced only: summed knowledge-op time

  uint64_t TotalWrites() const;
  uint64_t TotalBytes() const;
  /// fsyncs plus directory syncs, of every class.
  uint64_t TotalFlushes() const;
  IoCounts Minus(const IoCounts& base) const;
};

/// IoEnv decorator over IoEnv::Default(), installed once for the whole
/// process. Thread-safe: counters are relaxed atomics, because daemon workers
/// and parallel sessions call it concurrently.
///
/// Device flushes: the journal's strict policy still calls Sync() once per
/// record, and every call is counted. When the state directory is not on
/// tmpfs the decorator does not forward Sync()/SyncDir() to the device —
/// a disk flush on a shared disk cannot be timed steadily (about
/// 92 µs, and unsteady), while on tmpfs it is a no-op anyway. Flushes
/// therefore enter the benchmark as exact counts, never as time.
class CountingIoEnv : public atune::IoEnv {
 public:
  explicit CountingIoEnv(bool absorb_flushes);

  atune::Result<std::unique_ptr<atune::IoFile>> OpenWritable(
      const std::string& path, OpenMode mode) override;
  atune::Status Rename(const std::string& from, const std::string& to) override;
  atune::Status Truncate(const std::string& path, uint64_t length) override;
  atune::Status SyncDir(const std::string& path) override;
  atune::Status Unlink(const std::string& path) override;
  atune::Status ReadFileToString(const std::string& path,
                                 std::string* out) override;
  atune::Result<uint64_t> FileSize(const std::string& path) override;
  atune::Result<atune::MappedFile> Map(const std::string& path) override;
  void Backoff(size_t attempt) override { base_->Backoff(attempt); }

  bool absorb_flushes() const { return absorb_flushes_; }

  /// Traced runs: read the clock around every op (busy time, fsync latency).
  void set_timed(bool timed) { timed_.store(timed, std::memory_order_relaxed); }
  bool timed() const { return timed_.load(std::memory_order_relaxed); }

  IoCounts Snapshot() const;
  /// Sync() latencies (µs) recorded while timed, then cleared.
  std::vector<double> TakeSyncLatenciesUs();

  /// Tracks the bytes of `path` known durable: after each successful Sync of
  /// a handle on `path`, the handle's end offset. One path at a time (the
  /// kill/resume check runs one session at a time). Empty = none.
  void Watch(const std::string& path);
  uint64_t watched_synced_bytes() const {
    return watched_synced_.load(std::memory_order_acquire);
  }

 private:
  friend class CountingFile;

  void CountWrite(IoClass cls, uint64_t bytes);
  void CountSync(IoClass cls, uint64_t elapsed_ns, bool timed);

  atune::IoEnv* base_;
  const bool absorb_flushes_;
  std::atomic<bool> timed_{false};

  std::atomic<uint64_t> writes_[kNumIoClasses] = {};
  std::atomic<uint64_t> bytes_[kNumIoClasses] = {};
  std::atomic<uint64_t> syncs_[kNumIoClasses] = {};
  std::atomic<uint64_t> syncdirs_[kNumIoClasses] = {};
  std::atomic<uint64_t> opens_{0};
  std::atomic<uint64_t> renames_{0};
  std::atomic<uint64_t> truncates_{0};
  std::atomic<uint64_t> unlinks_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> knowledge_busy_ns_{0};
  BusyClock busy_;

  std::mutex sync_mu_;
  std::vector<double> sync_latency_us_;  // guarded by sync_mu_

  std::mutex watch_mu_;
  std::string watch_path_;  // guarded by watch_mu_
  std::atomic<uint64_t> watched_synced_{0};
};

/// Counters of MeasuredSystem, shared by a system and all its clones.
struct SystemCounters {
  std::atomic<uint64_t> execute_calls{0};
  std::atomic<uint64_t> execute_ns{0};  ///< traced only: summed call time
  std::atomic<bool> timed{false};
  BusyClock busy;  ///< traced only: union of time inside Execute

  void Reset();
};

/// TunableSystem decorator that counts (and, when timed, times) Execute().
/// Fully transparent: it forwards name, space, SkipRuns, Descriptors and
/// MetricNames, and Clone(runs_ahead) returns a wrapped clone, so journal
/// fingerprints and batched lanes are those of the bare system. It is not an
/// IterativeSystem (AsIterative() is null), so it is only for the
/// non-adaptive tuners the benchmark runs.
class MeasuredSystem : public atune::TunableSystem {
 public:
  MeasuredSystem(std::unique_ptr<atune::TunableSystem> base,
                 SystemCounters* counters);

  std::string name() const override { return base_->name(); }
  const atune::ParameterSpace& space() const override {
    return base_->space();
  }
  atune::Result<atune::ExecutionResult> Execute(
      const atune::Configuration& config,
      const atune::Workload& workload) override;
  std::unique_ptr<atune::TunableSystem> Clone(
      uint64_t runs_ahead) const override;
  void SkipRuns(uint64_t n) override { base_->SkipRuns(n); }
  std::map<std::string, double> Descriptors() const override {
    return base_->Descriptors();
  }
  std::vector<std::string> MetricNames() const override {
    return base_->MetricNames();
  }

 private:
  std::unique_ptr<atune::TunableSystem> base_;
  SystemCounters* counters_;
};

}  // namespace perfbench

#endif  // ATUNE_PERFBENCH_LAYERS_H_
