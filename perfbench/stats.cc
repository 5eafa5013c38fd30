#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <random>
#include <thread>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Geomean(std::vector<double> values) {
  // Sorted, so the result does not depend on the order values arrive in.
  std::sort(values.begin(), values.end());
  double log_sum = 0.0;
  size_t n = 0;
  for (double v : values) {
    if (v > 0.0 && std::isfinite(v)) {
      log_sum += std::log(v);
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  double best = 0.0;
  for (double p : kReportedPercentiles) {
    // Samples strictly above the interpolation rank p/100 * (n-1).
    double rank = p / 100.0 * static_cast<double>(n == 0 ? 0 : n - 1);
    size_t beyond = n - std::min(n, static_cast<size_t>(std::floor(rank)) + 1);
    if (n > 0 && beyond >= min_beyond) best = p;
  }
  return best;
}

std::string DescribeTiming(const std::string& name, const std::string& unit,
                           const std::vector<double>& values) {
  double top = HighestSupportedPercentile(values.size());
  char line[256];
  if (top <= 50.0) {
    std::snprintf(line, sizeof(line),
                  "timing %s: n=%zu p50=%.4f %s (no tail percentile has 10 "
                  "samples beyond it)",
                  name.c_str(), values.size(), Percentile(values, 50.0),
                  unit.c_str());
  } else {
    double rank = top / 100.0 * static_cast<double>(values.size() - 1);
    size_t beyond =
        values.size() - (static_cast<size_t>(std::floor(rank)) + 1);
    std::snprintf(line, sizeof(line),
                  "timing %s: n=%zu p50=%.4f %s p%g=%.4f %s (%zu samples "
                  "beyond) max=%.4f %s",
                  name.c_str(), values.size(), Percentile(values, 50.0),
                  unit.c_str(), top, Percentile(values, top), unit.c_str(),
                  beyond, Percentile(values, 100.0), unit.c_str());
  }
  return line;
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s) {
  std::mt19937_64 engine(seed);
  std::exponential_distribution<double> gap(rate_per_s);
  std::vector<double> due;
  for (double t = gap(engine); t < duration_s; t += gap(engine)) {
    due.push_back(t);
  }
  return due;
}

namespace {

/// FIFO of request indices handed from the sender to the watchers.
class IndexQueue {
 public:
  void Push(size_t i) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(i);
    }
    cv_.notify_one();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  /// Blocks for the next index; false once closed and drained.
  bool Pop(size_t* i) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return next_ < items_.size() || closed_; });
    if (next_ >= items_.size()) return false;
    *i = items_[next_++];
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<size_t> items_;  // guarded by mu_
  size_t next_ = 0;            // guarded by mu_
  bool closed_ = false;        // guarded by mu_
};

void SleepUntil(double t_s) {
  double now = NowSeconds();
  if (t_s > now) {
    std::this_thread::sleep_for(std::chrono::duration<double>(t_s - now));
  }
}

}  // namespace

OpenLoopResult RunOpenLoop(const std::vector<double>& due_s, size_t watchers,
                           const std::function<bool(size_t)>& submit,
                           const std::function<bool(size_t, size_t)>& await) {
  OpenLoopResult result;
  watchers = std::max<size_t>(1, watchers);
  IndexQueue queue;
  result.latency_ms.assign(due_s.size(), -1.0);
  std::vector<double> done_at(watchers, 0.0);
  std::vector<size_t> failed(watchers, 0);
  const double t0 = NowSeconds() + 0.005;  // let the watchers park first

  std::vector<std::thread> threads;
  threads.reserve(watchers);
  for (size_t w = 0; w < watchers; ++w) {
    threads.emplace_back([&, w] {
      size_t i = 0;
      while (queue.Pop(&i)) {
        if (!await(i, w)) {
          ++failed[w];
          continue;
        }
        double now = NowSeconds();
        result.latency_ms[i] = (now - (t0 + due_s[i])) * 1e3;
        done_at[w] = std::max(done_at[w], now);
      }
    });
  }

  result.late_ms.reserve(due_s.size());
  for (size_t i = 0; i < due_s.size(); ++i) {
    double due = t0 + due_s[i];
    SleepUntil(due);
    result.late_ms.push_back((NowSeconds() - due) * 1e3);
    if (submit(i)) {
      queue.Push(i);
    } else {
      ++result.failed;
    }
  }
  queue.Close();
  for (std::thread& t : threads) t.join();

  result.first_due_s = t0 + (due_s.empty() ? 0.0 : due_s.front());
  result.last_done_s = result.first_due_s;
  for (size_t w = 0; w < watchers; ++w) {
    result.failed += failed[w];
    result.last_done_s = std::max(result.last_done_s, done_at[w]);
  }
  return result;
}

std::vector<double> OpenLoopResult::Completed(size_t begin,
                                              size_t end) const {
  std::vector<double> done;
  for (size_t i = begin; i < end && i < latency_ms.size(); ++i) {
    if (latency_ms[i] >= 0.0) done.push_back(latency_ms[i]);
  }
  return done;
}

void SelfTestStats(std::vector<std::string>* failures) {
  auto expect = [failures](bool ok, const std::string& what) {
    if (!ok) failures->push_back("selftest stats: " + what);
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };

  std::vector<double> ramp;
  for (int i = 1; i <= 101; ++i) ramp.push_back(i);
  expect(near(Percentile(ramp, 50.0), 51.0), "median of 1..101");
  expect(near(Percentile(ramp, 95.0), 96.0), "p95 of 1..101");
  expect(near(Percentile({4.0, 1.0}, 50.0), 2.5), "interpolated median");
  expect(near(Geomean({2.0, 8.0}), 4.0), "geomean of 2, 8");

  // n=20: 10 samples above the median rank, fewer beyond p90.
  expect(HighestSupportedPercentile(20) == 50.0, "n=20 supports only p50");
  expect(HighestSupportedPercentile(19) == 0.0, "n=19 supports nothing");
  // n=250: 13 samples above the p95 rank 236.55, 3 above p99's.
  expect(HighestSupportedPercentile(250) == 95.0, "n=250 supports p95");
  expect(HighestSupportedPercentile(150) == 90.0, "n=150 stops at p90");
  expect(HighestSupportedPercentile(20000) == 99.9, "n=20000 supports p99.9");

  std::vector<double> due = PoissonSchedule(7, 1000.0, 1.0);
  expect(due == PoissonSchedule(7, 1000.0, 1.0), "schedule is seeded");
  expect(due.size() > 900 && due.size() < 1100, "schedule rate");

  // Open-loop accounting: requests every 10 ms, the 3rd submit stalls
  // 60 ms. Requests due during the stall must be charged the remaining
  // stall (timed from due), and the sender must report itself late.
  std::vector<double> grid;
  for (int i = 0; i < 10; ++i) grid.push_back(0.010 * i);
  const double stall_s = 0.060;
  OpenLoopResult r = RunOpenLoop(
      grid, 2,
      [&](size_t i) {
        if (i == 3) {
          std::this_thread::sleep_for(std::chrono::duration<double>(stall_s));
        }
        return true;
      },
      [](size_t, size_t) { return true; });
  std::vector<double> done = r.Completed(0, grid.size());
  expect(done.size() == grid.size() && r.failed == 0,
         "open loop completes every request");
  expect(r.late_ms.size() == grid.size() && r.late_ms[4] >= 45.0,
         "sender lateness recorded after a stall");
  expect(done.size() == grid.size() && r.latency_ms[4] >= 45.0,
         "stall charged to the request due behind it");
  // Generous: only the stall itself must not be charged to earlier ones.
  expect(done.size() == grid.size() && r.latency_ms[1] < 1e3 * stall_s / 2,
         "requests due before the stall are not charged the stall");
}

}  // namespace perfbench
