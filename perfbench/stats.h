#ifndef ATUNE_PERFBENCH_STATS_H_
#define ATUNE_PERFBENCH_STATS_H_

// Percentile accounting and the open-loop load generator, kept apart from
// the workloads so the self-tests exercise exactly the code the runs use.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile (p in [0, 100]) of `values`, which need
/// not be sorted. 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);
/// exp(mean(log v)) over the positive entries; 0 when there are none.
double Geomean(std::vector<double> values);

/// The percentiles a timing is summarised at.
inline constexpr double kReportedPercentiles[] = {50.0, 90.0, 95.0, 99.0,
                                                  99.9};

/// Highest of kReportedPercentiles that has at least `min_beyond` samples
/// strictly above its rank in a sample of `n` (0 when even the median does
/// not). A tail percentile resting on fewer samples is effectively the
/// maximum and is not reported as a tail.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

/// One line describing a timing: sample count, median, the highest supported
/// percentile and the samples beyond it.
std::string DescribeTiming(const std::string& name, const std::string& unit,
                           const std::vector<double>& values);

/// Seeded Poisson arrival times (seconds from the start of the run) at
/// `rate_per_s`, covering [0, duration_s).
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s);

/// Result of one open-loop run. Latency is timed from when each request was
/// DUE, not from when it was sent: a stall of the sender or of the system
/// charges its wait to every request scheduled behind it.
struct OpenLoopResult {
  /// Per request index: due -> done in ms, or -1 when it failed.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;  ///< send time - due time, every request
  size_t failed = 0;            ///< submit or await reported failure
  double first_due_s = 0.0;     ///< steady-clock seconds
  double last_done_s = 0.0;

  /// Latencies of the completed requests among [begin, end).
  std::vector<double> Completed(size_t begin, size_t end) const;
};

/// Open-loop load generator: the calling thread submits request i at due_s[i]
/// (sleeping until then, never waiting for completions); `watchers` threads
/// share one FIFO of submitted requests, each awaiting the oldest one not yet
/// taken, so a slow request holds up only the watcher awaiting it. `submit(i)`
/// and `await(i, w)` return false on failure; `w` is the watcher's index.
OpenLoopResult RunOpenLoop(const std::vector<double>& due_s, size_t watchers,
                           const std::function<bool(size_t)>& submit,
                           const std::function<bool(size_t, size_t)>& await);

double NowSeconds();

/// Checks Percentile/HighestSupportedPercentile/Geomean on known samples and
/// RunOpenLoop's from-due accounting against a scripted stall. Appends a
/// message per failure to `failures`.
void SelfTestStats(std::vector<std::string>* failures);

}  // namespace perfbench

#endif  // ATUNE_PERFBENCH_STATS_H_
