#ifndef ATUNE_PERFBENCH_WORKLOADS_H_
#define ATUNE_PERFBENCH_WORKLOADS_H_

// The three workloads (see perfbench/README.md for why each exists and which
// layer metric should move which end-to-end metric):
//   bo-serial     — iTuned/OtterTune sessions in memory, closed loop: think
//   durable-cheap — cheap tuners journaled (strict), batched, killed and
//                   resumed, warm-started, ingested, closed loop: exec+durable
//   service-open  — cheap tuners through an in-process atuned on a unix
//                   socket, Poisson open loop: service

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "layers.h"

namespace perfbench {

/// Offered arrival rate of service-open (sessions/s): under a quarter of the
/// in-process daemon's measured capacity (1280-1350 sessions/s) on the
/// reference box (4 cores, 4 workers; see README.md). At half capacity
/// (650/s) queueing amplified the box's CPU-steal bursts into a 30-60%
/// run-to-run spread of p50/p95. Fixed here, never recomputed per run.
inline constexpr double kServiceRatePerS = 300.0;

struct BenchContext {
  std::string state_dir;  ///< fresh per run, removed at exit
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t nproc = 1;
  CountingIoEnv* io = nullptr;  ///< installed process-wide
  atune::TunerRegistry registry;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct WorkloadReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< failed, shed beyond retries, or failed a check
  std::vector<std::string> failures;  ///< correctness-check messages
  std::vector<Metric> metrics;
  std::vector<std::string> info;  ///< sample counts and other notes
  std::vector<std::pair<std::string, std::string>> env;
};

/// Runs `name` ("bo-serial", "durable-cheap", "service-open"): setup
/// (timed as setup_s), the measured pass(es), and the correctness pass.
/// False for an unknown workload name.
bool RunWorkload(const std::string& name, BenchContext* ctx,
                 WorkloadReport* report);

/// Decorator transparency: the first specs of workload `name` run once with
/// a bare system and IoEnv::Default(), before any decorator is installed.
/// Returns their checksums; call again after installing the decorators and
/// compare.
std::vector<uint64_t> DecoratorProbeChecksums(const std::string& name,
                                              BenchContext* ctx,
                                              bool decorated,
                                              std::vector<std::string>* failures);

bool KnownWorkload(const std::string& name);

}  // namespace perfbench

#endif  // ATUNE_PERFBENCH_WORKLOADS_H_
