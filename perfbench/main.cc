// Session-level benchmark of atune: whole tuning sessions on three
// workloads, end-to-end metrics (untraced runs) or per-layer metrics
// (--trace 1). See perfbench/README.md. Usually started through run.py:
//
//   python3 perfbench/run.py --workload durable-cheap --seed 1
//       --seconds 20 --trace 0
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}

#include <sched.h>
#include <sys/mount.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/io_env.h"
#include "common/logging.h"
#include "stats.h"
#include "tuners/builtin.h"
#include "workloads.h"

namespace {

using perfbench::BenchContext;
using perfbench::WorkloadReport;

constexpr long kTmpfsMagic = 0x01021994;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--commit") {
      args->commit = value;
    } else if (key == "--source-digest") {
      args->source_digest = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "flags come in --name value pairs\n");
    return false;
  }
  return perfbench::KnownWorkload(args->workload) && args->seconds > 0.0;
}

std::string FsTypeName(long magic) {
  switch (magic) {
    case kTmpfsMagic:
      return "tmpfs";
    case 0xEF53:
      return "ext2/3/4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x794c7630:
      return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx", magic);
      return hex;
    }
  }
}

/// Escapes a string for a JSON value (the env strings are plain ASCII).
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Mounts a private tmpfs over `dir` inside a new mount namespace: the
/// benchmark's durable state (journals, knowledge shards, the daemon's state
/// and socket) then lives in memory, under the checkout, and disappears with
/// the process. File creation and fsync on a shared disk are too slow and
/// unsteady to time (see README.md). False when mounting is not permitted;
/// the run then uses the plain directory and records that.
bool MountPrivateTmpfs(const std::string& dir) {
  if (::unshare(CLONE_NEWNS) != 0) return false;
  if (::mount("none", "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return false;
  }
  return ::mount("perfbench-state", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
                 "size=1g,mode=0700") == 0;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload bo-serial|durable-cheap|"
                 "service-open --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  atune::SetLogLevel(atune::LogLevel::kError);

  BenchContext ctx;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.trace = args.trace;
  ctx.nproc = std::max<size_t>(1, std::thread::hardware_concurrency());
  atune::RegisterBuiltinTuners(&ctx.registry);

  // Fresh state directory inside the checkout, removed at exit: no journal
  // or knowledge shard carries over between runs.
  const std::string root = ".perfbench_state";
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  const bool mounted = !ec && MountPrivateTmpfs(root);
  ctx.state_dir = root + "/run-" + std::to_string(::getpid());
  std::filesystem::remove_all(ctx.state_dir, ec);
  std::filesystem::create_directories(ctx.state_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", ctx.state_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  struct statfs fs;
  long fs_magic = ::statfs(ctx.state_dir.c_str(), &fs) == 0
                      ? static_cast<long>(fs.f_type)
                      : 0;
  const bool on_tmpfs = fs_magic == kTmpfsMagic;

  std::vector<std::string> failures;
  perfbench::SelfTestStats(&failures);

  // Decorator transparency: the workload's probe specs with a bare system
  // and the default IoEnv, then with both decorators installed.
  std::vector<uint64_t> bare = perfbench::DecoratorProbeChecksums(
      args.workload, &ctx, /*decorated=*/false, &failures);
  perfbench::CountingIoEnv io(/*absorb_flushes=*/!on_tmpfs);
  atune::ScopedIoEnv install(&io);
  ctx.io = &io;
  std::vector<uint64_t> decorated = perfbench::DecoratorProbeChecksums(
      args.workload, &ctx, /*decorated=*/true, &failures);
  if (bare != decorated) {
    failures.push_back("selftest: session checksums differ with the "
                       "TunableSystem/IoEnv decorators installed");
  }

  WorkloadReport report;
  perfbench::RunWorkload(args.workload, &ctx, &report);
  double rss_mb = PeakRssMb();
  if (!ctx.trace) {
    report.metrics.push_back({"peak_rss_mb", "MB", rss_mb});
  }
  std::filesystem::remove_all(ctx.state_dir, ec);
  if (mounted) ::umount2(root.c_str(), MNT_DETACH);
  std::filesystem::remove(root, ec);  // only if no other run is using it

  // Run environment.
  std::string env = "{\"workload\": " + JsonString(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"commit\": " + JsonString(args.commit) +
                    ", \"source_digest\": " + JsonString(args.source_digest) +
                    ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                    ", \"cxx_flags\": " + JsonString(PERFBENCH_CXX_FLAGS) +
                    ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
                    ", \"nproc\": " + std::to_string(ctx.nproc) +
                    ", \"state_fs\": " + JsonString(FsTypeName(fs_magic)) +
                    ", \"state_mount\": " +
                    JsonString(mounted ? "private tmpfs" : "checkout disk") +
                    ", \"device_flushes\": " +
                    JsonString(on_tmpfs ? "issued (tmpfs)"
                                        : "counted, not issued (not tmpfs)") +
                    ", \"peak_rss_mb\": " + std::to_string(rss_mb);
  for (const auto& [key, value] : report.env) {
    env += ", " + JsonString(key) + ": " + JsonString(value);
  }
  std::printf("env %s}\n", env.c_str());
  for (const std::string& line : report.info) std::printf("%s\n", line.c_str());
  failures.insert(failures.end(), report.failures.begin(),
                  report.failures.end());
  for (const std::string& f : failures) std::printf("FAILED %s\n", f.c_str());

  const bool correct = failures.empty() && report.failed == 0 &&
                       report.attempted > 0;
  std::string metrics;
  for (const perfbench::Metric& m : report.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + value +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
