#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <thread>

#include "common/random.h"
#include "common/string_util.h"
#include "core/knowledge_repo.h"
#include "core/outcome_checksum.h"
#include "core/session.h"
#include "net/client.h"
#include "net/daemon.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats.h"
#include "systems/multi_tenant.h"
#include "systems/system_factory.h"
#include "tuners/warm_start.h"

namespace perfbench {
namespace {

using atune::DeriveSeed;
using atune::KnowledgeRecord;
using atune::KnowledgeRepository;
using atune::Result;
using atune::Status;
using atune::StatusCode;

// ---- session specs -------------------------------------------------------------

struct SessionSpec {
  std::string id;  ///< knowledge-shard stem / daemon session id prefix
  std::string tenant;
  std::string tuner;
  std::string system;
  std::string workload;
  uint64_t budget = 60;
  uint64_t seed = 1;
  size_t parallelism = 1;
  bool journaled = false;
  bool kill_resume = false;  ///< killed at mid-budget, then resumed
  bool warm = false;         ///< WarmStartTuner over the pinned corpus
  uint64_t contention = 0;   ///< background tenants (service-open)
};

struct SystemWorkload {
  const char* system;
  const char* workload;
};

constexpr const char* kBoTuners[] = {"ituned", "ottertune"};
constexpr SystemWorkload kBoSystems[] = {{"dbms", "olap"},
                                         {"dbms", "oltp"},
                                         {"spark", "sql_join"},
                                         {"mapreduce", "terasort"}};
constexpr uint64_t kBoBudget = 100;
constexpr uint64_t kBoHeavyBudget = 200;
/// One bo-serial block (8 budget-100 sessions + 1 budget-200 session) takes
/// about this long on the reference box; the run repeats the block
/// ceil(seconds/this) times, so its list is fixed by --seconds alone, never
/// by a measurement.
constexpr double kBoBlockSeconds = 7.5;

constexpr const char* kCheapTuners[] = {"random-search", "recursive-random",
                                        "grid-search", "sard"};
constexpr SystemWorkload kCheapSystems[] = {
    {"dbms", "olap"}, {"spark", "sql_join"}, {"mapreduce", "terasort"}};
constexpr uint64_t kCheapBudget = 60;
/// Cheap specs come in blocks of 24 with fixed shares (see CheapSpec), and a
/// pool of 960 distinct seeds that every closed-loop cycle / open-loop
/// arrival stream walks through.
constexpr size_t kCheapBlock = 24;
constexpr size_t kCheapPool = 960;
constexpr size_t kSetupRepeats = 5;
/// Sessions in the durable-cheap and service-open warm-up passes.
constexpr size_t kWarmupSessions = 96;
/// durable-cheap splits a run into windows and reports, for each timing,
/// the quiet quartile of its per-window values: the 25th percentile of the
/// windows' p50 and p95 (the 75th of their throughput). CPU steal on the
/// shared box comes in bursts that inflate a window's p50 two- to three-fold
/// and its p95 up to five-fold, in a varying share of windows; a whole-run
/// percentile or a median over windows then follows the neighbours' load
/// (30-40% run-to-run spread), while a code change moves every window.
/// service-open uses per-spec medians instead (see SummarizeService).
constexpr double kQuietQuartile = 25.0;
/// durable-cheap windows: this many consecutive sessions (10 whole blocks of
/// the pool, so every window has the same mix).
constexpr size_t kDurableWindow = 240;
/// Every list and pool is fixed (these seeds never change); --seed shuffles
/// the order sessions run in and, for service-open, the arrival times. So
/// speedup_geomean is exact run to run and every seed does the same work:
/// with per-seed session seeds, the seed-to-seed spread of tuning quality
/// alone was about 26% (bo-serial, 27 sessions) and 8-10% (960-spec pools),
/// and of durable-cheap throughput 18%.
constexpr uint64_t kBoListSeed = 20190801;
constexpr uint64_t kCheapPoolSeed = 20190802;

/// The fixed bo-serial block: both tuners on the four workloads at budget
/// 100, and iTuned on dbms olap at budget 200.
std::vector<SessionSpec> BoSerialBlock() {
  std::vector<SessionSpec> block;
  for (const char* tuner : kBoTuners) {
    for (const SystemWorkload& sw : kBoSystems) {
      SessionSpec spec;
      spec.tuner = tuner;
      spec.system = sw.system;
      spec.workload = sw.workload;
      spec.budget = kBoBudget;
      block.push_back(spec);
    }
  }
  block.push_back(block.front());
  block.back().budget = kBoHeavyBudget;
  for (size_t k = 0; k < block.size(); ++k) {
    block[k].seed = DeriveSeed(kBoListSeed, k);
    block[k].id = atune::StrFormat("bo-%zu", k);
  }
  return block;
}

/// `repeats` copies of the block, in an order shuffled by `order_seed`.
std::vector<SessionSpec> BoSerialList(uint64_t order_seed, size_t repeats) {
  const std::vector<SessionSpec> block = BoSerialBlock();
  std::vector<SessionSpec> list;
  for (size_t r = 0; r < repeats; ++r) {
    list.insert(list.end(), block.begin(), block.end());
  }
  std::mt19937_64 order(order_seed);
  std::shuffle(list.begin(), list.end(), order);
  return list;
}

/// One short iTuned and one short OtterTune session (bo-serial's set-up
/// warm-up and decorator probe).
std::vector<SessionSpec> BoShortSpecs() {
  std::vector<SessionSpec> specs;
  for (size_t i = 0; i < 2; ++i) {
    SessionSpec spec;
    spec.tuner = kBoTuners[i];
    spec.system = kBoSystems[2 * i].system;
    spec.workload = kBoSystems[2 * i].workload;
    spec.budget = 30;
    spec.seed = DeriveSeed(kBoListSeed, 1000 + i);
    spec.id = atune::StrFormat("bo-short-%zu", i);
    specs.push_back(spec);
  }
  return specs;
}

/// Run order of the cheap pool for `seed`: the blocks of 24 in shuffled
/// order, each block's slots shuffled, so every run of whole blocks keeps
/// the exact mix.
std::vector<size_t> CheapOrder(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<size_t> blocks(kCheapPool / kCheapBlock);
  for (size_t b = 0; b < blocks.size(); ++b) blocks[b] = b;
  std::shuffle(blocks.begin(), blocks.end(), rng);
  std::vector<size_t> order;
  for (size_t b : blocks) {
    std::vector<size_t> slots(kCheapBlock);
    for (size_t k = 0; k < kCheapBlock; ++k) slots[k] = b * kCheapBlock + k;
    std::shuffle(slots.begin(), slots.end(), rng);
    order.insert(order.end(), slots.begin(), slots.end());
  }
  return order;
}

/// Cheap spec `j` of the pool. Within each block of 24 (r = tuner index,
/// q = block / 4): every tuner runs on every system twice; half the block
/// is batched (batch-aware tuners in the first 16 slots), a quarter is
/// killed and resumed ((r+q)%4 == 3), a quarter warm-started
/// ((r+q)%4 == 1), and a quarter of service sessions run with contention
/// ((r+q)%4 == 2). Shares are exact per block, so any whole number of
/// blocks has the same mix.
SessionSpec CheapSpec(uint64_t seed, size_t j, size_t parallelism) {
  size_t block = j % kCheapBlock;
  size_t r = block % 4;
  size_t q = block / 4;
  SessionSpec spec;
  spec.tuner = kCheapTuners[r];
  spec.system = kCheapSystems[q % 3].system;
  spec.workload = kCheapSystems[q % 3].workload;
  spec.budget = kCheapBudget;
  spec.seed = DeriveSeed(seed, 100000 + j);
  spec.tenant = atune::StrFormat("tenant-%zu", j % 3);
  bool batch_aware = r != 3;  // sard evaluates its design serially
  spec.parallelism = batch_aware && block < 16 ? parallelism : 1;
  spec.kill_resume = (r + q) % 4 == 3;
  spec.warm = (r + q) % 4 == 1;
  spec.contention = (r + q) % 4 == 2 ? 2 : 0;
  return spec;
}

// ---- one in-process session --------------------------------------------------------

struct RunHooks {
  SystemCounters* counters = nullptr;  ///< null = bare system
  CountingIoEnv* io = nullptr;         ///< kill/resume: synced-bytes watch
  atune::Tracer* tracer = nullptr;
  atune::MetricsRegistry* metrics = nullptr;
  KnowledgeRepository* ingest = nullptr;  ///< null = no ingest
  /// Warm sessions: the pinned shard list of `corpus`, loaded per session.
  const std::vector<std::string>* pinned = nullptr;
  const KnowledgeRepository* corpus = nullptr;
  std::string journal_dir;
  bool timed = false;  ///< bench-side clocks around resume/load/ingest
};

struct SessionRun {
  Status status = Status::OK();
  uint64_t checksum = 0;
  double speedup = 0.0;
  size_t trials = 0;
  size_t replayed = 0;
  uint64_t kill_records = 0;
  bool truncated = false;
  size_t shards_loaded = 0;
  double resume_ms = 0.0;
  double load_ms = 0.0;
  double ingest_ms = 0.0;
};

/// A spec's system and workload, built exactly as atuned's RunSessionJob
/// builds them (contention wraps the system in a MultiTenantSystem with the
/// minimax SLO objective).
struct BuiltSystem {
  std::unique_ptr<atune::TunableSystem> base;
  std::unique_ptr<atune::MultiTenantSystem> shared;  // borrows base
  atune::TunableSystem* system = nullptr;
  atune::Workload workload;
  atune::ObjectiveFunction objective;
};

Result<std::unique_ptr<BuiltSystem>> BuildSystem(const SessionSpec& spec,
                                                 SystemCounters* counters) {
  auto built = std::make_unique<BuiltSystem>();
  auto base = atune::MakeSystemByName(spec.system, /*nodes=*/0, spec.seed);
  if (!base.ok()) return base.status();
  built->base = std::move(*base);
  if (counters != nullptr) {
    built->base =
        std::make_unique<MeasuredSystem>(std::move(built->base), counters);
  }
  auto workload = atune::WorkloadByName(spec.system, spec.workload, 1.0);
  if (!workload.ok()) return workload.status();
  built->workload = *workload;
  built->system = built->base.get();
  if (spec.contention > 0) {
    std::vector<atune::Tenant> tenants;
    tenants.push_back(atune::Tenant{
        spec.tenant.empty() ? "primary" : spec.tenant, built->workload, 120.0});
    auto catalog = atune::WorkloadsForSystem(spec.system, 1.0);
    std::vector<std::pair<std::string, atune::Workload>> entries(
        catalog.begin(), catalog.end());
    for (uint64_t i = 0; i < spec.contention; ++i) {
      const auto& entry = entries[i % entries.size()];
      tenants.push_back(atune::Tenant{"bg_" + std::to_string(i), entry.second,
                                      90.0 + 30.0 * static_cast<double>(i % 3)});
    }
    built->shared = std::make_unique<atune::MultiTenantSystem>(
        built->base.get(), std::move(tenants));
    built->objective = atune::MakeRobustSloObjective();
    built->workload = atune::MakeMultiTenantWorkload(1.0);
    built->system = built->shared.get();
  }
  return built;
}

double MsSince(uint64_t begin_ns) {
  return static_cast<double>(NowNs() - begin_ns) / 1e6;
}

Result<std::unique_ptr<atune::Tuner>> BuildTuner(
    const atune::TunerRegistry& registry, const SessionSpec& spec,
    const RunHooks& hooks, SessionRun* run) {
  auto tuner = registry.Create(spec.tuner);
  if (!tuner.ok()) return tuner.status();
  std::unique_ptr<atune::Tuner> built = std::move(*tuner);
  if (spec.warm) {
    if (hooks.pinned == nullptr || hooks.corpus == nullptr) {
      return Status::InvalidArgument("warm spec without a pinned corpus");
    }
    uint64_t begin = hooks.timed ? NowNs() : 0;
    size_t skipped = 0;
    auto snapshot = hooks.corpus->LoadShards(*hooks.pinned, &skipped);
    if (!snapshot.ok()) return snapshot.status();
    if (skipped > 0) {
      return Status::Internal(
          atune::StrFormat("%zu pinned shard(s) unreadable", skipped));
    }
    if (hooks.timed) run->load_ms += MsSince(begin);
    run->shards_loaded += snapshot->size();
    built = std::make_unique<atune::WarmStartTuner>(std::move(built),
                                                    std::move(*snapshot));
  }
  built->set_parallelism(spec.parallelism);
  return built;
}

SessionRun RunInProcess(const atune::TunerRegistry& registry,
                        const SessionSpec& spec, const RunHooks& hooks) {
  SessionRun run;
  auto fail = [&run](Status status) {
    run.status = std::move(status);
    return run;
  };
  auto tuner = BuildTuner(registry, spec, hooks, &run);
  if (!tuner.ok()) return fail(tuner.status());
  auto built = BuildSystem(spec, hooks.counters);
  if (!built.ok()) return fail(built.status());
  BuiltSystem* sys = built->get();

  atune::SessionOptions options;
  options.budget.max_evaluations = static_cast<size_t>(spec.budget);
  options.seed = spec.seed;
  options.journal_policy = atune::JournalPolicy::kStrict;
  options.measure_default = true;
  options.tracer = hooks.tracer;
  options.metrics = hooks.metrics;
  if (spec.contention > 0) options.objective = sys->objective;
  const std::string journal =
      spec.journaled ? hooks.journal_dir + "/" + spec.id + ".wal" : "";
  options.journal_path = journal;

  Result<atune::TuningOutcome> outcome = Status::Internal("not run");
  if (spec.kill_resume) {
    if (journal.empty() || hooks.io == nullptr) {
      return fail(Status::InvalidArgument("kill/resume needs a journal"));
    }
    atune::SessionOptions killed = options;
    killed.interrupt_after_records = spec.budget / 2;
    run.kill_records = killed.interrupt_after_records;
    hooks.io->Watch(journal);
    auto first = atune::RunTuningSession(tuner->get(), sys->system,
                                         sys->workload, killed);
    uint64_t synced = hooks.io->watched_synced_bytes();
    hooks.io->Watch("");
    if (first.ok() || first.status().code() != StatusCode::kAborted) {
      return fail(Status::Internal("kill at mid-budget did not abort: " +
                                   first.status().ToString()));
    }
    // Drop whatever the journal holds beyond the bytes seen fsynced: the
    // resume must not depend on unsynced bytes.
    auto size = atune::IoEnv::Current()->FileSize(journal);
    if (!size.ok()) return fail(size.status());
    if (*size > synced) {
      Status cut = atune::IoEnv::Current()->Truncate(journal, synced);
      if (!cut.ok()) return fail(cut);
      run.truncated = true;
    }
    // A restarted process rebuilds tuner and system from the spec.
    auto tuner2 = BuildTuner(registry, spec, hooks, &run);
    if (!tuner2.ok()) return fail(tuner2.status());
    auto built2 = BuildSystem(spec, hooks.counters);
    if (!built2.ok()) return fail(built2.status());
    uint64_t begin = hooks.timed ? NowNs() : 0;
    outcome = atune::ResumeTuningSession(tuner2->get(), (*built2)->system,
                                         (*built2)->workload, options);
    if (hooks.timed) run.resume_ms = MsSince(begin);
  } else {
    outcome = atune::RunTuningSession(tuner->get(), sys->system, sys->workload,
                                      options);
  }
  if (!outcome.ok()) return fail(outcome.status());

  run.checksum = atune::OutcomeChecksum(*outcome);
  run.speedup = outcome->speedup_over_default;
  run.trials = outcome->history.size();
  run.replayed = outcome->replayed_records;
  if (hooks.ingest != nullptr) {
    uint64_t begin = hooks.timed ? NowNs() : 0;
    KnowledgeRecord record = atune::MakeKnowledgeRecord(
        spec.id, spec.tenant, sys->system->name(), sys->system->space(),
        sys->system->MetricNames(), sys->workload, spec.seed, spec.budget,
        *outcome);
    Status ingested = hooks.ingest->Ingest(record);
    if (!ingested.ok()) return fail(ingested);
    if (hooks.timed) run.ingest_ms = MsSince(begin);
  }
  return run;
}

// ---- per-layer accounting ------------------------------------------------------------

/// Wall time covered by the union of all spans named `name`.
double SpanUnionMs(const std::vector<atune::SpanRecord>& spans,
                   const char* name) {
  std::vector<std::pair<uint64_t, uint64_t>> intervals;
  for (const atune::SpanRecord& s : spans) {
    if (s.name == name && s.end_ns > s.start_ns) {
      intervals.emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::sort(intervals.begin(), intervals.end());
  uint64_t total = 0;
  uint64_t cur_begin = 0;
  uint64_t cur_end = 0;
  bool open = false;
  for (const auto& [begin, end] : intervals) {
    if (open && begin <= cur_end) {
      cur_end = std::max(cur_end, end);
      continue;
    }
    if (open) total += cur_end - cur_begin;
    cur_begin = begin;
    cur_end = end;
    open = true;
  }
  if (open) total += cur_end - cur_begin;
  return static_cast<double>(total) / 1e6;
}

/// Raw per-layer quantities of one traced pass.
struct LayerSample {
  size_t sessions = 0;
  double session_ms_sum = 0.0;
  bool think_measured = false;  ///< in-process sessions only
  double gp_fit_ms = 0.0;
  double acquisition_ms = 0.0;
  size_t batches = 0;
  uint64_t exec_calls = 0;
  uint64_t exec_ns = 0;
  uint64_t exec_busy_ns = 0;
  IoCounts io;
  std::vector<double> fsync_us;
  size_t resumes = 0;
  uint64_t replayed = 0;
  double resume_ms = 0.0;
  size_t warm_sessions = 0;
  uint64_t shards_loaded = 0;
  double load_ms = 0.0;
  size_t ingests = 0;
  double ingest_ms = 0.0;
  // service-open
  std::vector<double> start_rtt_us;
  std::vector<double> depth;
  std::vector<double> queued;
  double achieved_rate = 0.0;
  uint64_t start_exchanges = 0;
  uint64_t sheds = 0;
  uint64_t client_retries = 0;
  std::vector<double> late_ms;
  double p50_untraced = 0.0;
  double p50_traced = 0.0;

  void Add(const SessionRun& run, const SessionSpec& spec, double ms) {
    ++sessions;
    session_ms_sum += ms;
    if (spec.kill_resume) {
      ++resumes;
      replayed += run.replayed;
      resume_ms += run.resume_ms;
    }
    if (spec.warm) {
      ++warm_sessions;
      shards_loaded += run.shards_loaded;
      load_ms += run.load_ms;
    }
    if (run.ingest_ms > 0.0) {
      ++ingests;
      ingest_ms += run.ingest_ms;
    }
  }
  void AddSpans(const atune::Tracer& tracer) {
    std::vector<atune::SpanRecord> spans = tracer.Snapshot();
    gp_fit_ms += SpanUnionMs(spans, "gp_fit");
    acquisition_ms += SpanUnionMs(spans, "acquisition");
    for (const atune::SpanRecord& s : spans) batches += s.name == "batch";
  }
};

double PerSession(double total, size_t sessions) {
  return sessions == 0 ? 0.0 : total / static_cast<double>(sessions);
}

uint64_t CounterValue(const atune::MetricsSnapshot& snap,
                      const std::string& name) {
  for (const auto& e : snap.entries) {
    if (e.name == name) return e.count;
  }
  return 0;
}

double HistogramSum(const atune::MetricsSnapshot& snap,
                    const std::string& name) {
  for (const auto& e : snap.entries) {
    if (e.name == name) return e.sum;
  }
  return 0.0;
}

/// Every per-layer metric, in BENCHMARK.json order. Layers a workload does
/// not exercise report 0.
std::vector<Metric> PerLayerMetrics(const LayerSample& s,
                                    const atune::MetricsSnapshot& m,
                                    double sandbox_fsync_us_p50) {
  const size_t n = s.sessions;
  const size_t j = static_cast<size_t>(IoClass::kJournal);
  double io_busy_ms = static_cast<double>(s.io.busy_ns) / 1e6;
  double think_ms =
      s.think_measured
          ? PerSession(s.session_ms_sum -
                           static_cast<double>(s.exec_busy_ns) / 1e6 -
                           io_busy_ms,
                       n)
          : 0.0;
  double queued_mean = Mean(s.queued);
  std::vector<Metric> out = {
      {"ml.gp_fit_ms_per_session", "ms", PerSession(s.gp_fit_ms, n)},
      {"ml.acquisition_ms_per_session", "ms",
       PerSession(s.acquisition_ms, n)},
      {"ml.hyper_searches_per_session", "count",
       PerSession(static_cast<double>(CounterValue(m, "gp.hyper_searches")),
                  n)},
      {"ml.incremental_refits_per_session", "count",
       PerSession(
           static_cast<double>(CounterValue(m, "gp.incremental_refits")), n)},
      {"tuners.think_ms_per_session", "ms", think_ms},
      {"systems.execute_calls_per_session", "count",
       PerSession(static_cast<double>(s.exec_calls), n)},
      {"systems.execute_us_per_call", "us",
       PerSession(static_cast<double>(s.exec_ns) / 1e3, s.exec_calls)},
      {"common.pool.queue_wait_us_per_batch", "us",
       PerSession(HistogramSum(m, "pool.queue_wait_host_seconds") * 1e6,
                  s.batches)},
      {"core.journal.fsyncs_per_session", "count",
       PerSession(static_cast<double>(s.io.syncs[j]), n)},
      {"core.journal.syncdirs_per_session", "count",
       PerSession(static_cast<double>(s.io.syncdirs[j]), n)},
      {"core.journal.writes_per_session", "count",
       PerSession(static_cast<double>(s.io.writes[j]), n)},
      {"core.journal.bytes_per_session", "B",
       PerSession(static_cast<double>(s.io.bytes[j]), n)},
      {"common.io.busy_ms_per_session", "ms", PerSession(io_busy_ms, n)},
      {"common.io.fsync_us_p50", "us", Percentile(s.fsync_us, 50.0)},
      {"core.resume.replayed_records", "count",
       PerSession(static_cast<double>(s.replayed), s.resumes)},
      {"core.resume.ms_per_resume", "ms", PerSession(s.resume_ms, s.resumes)},
      {"core.knowledge.load_ms_per_warm_session", "ms",
       PerSession(s.load_ms, s.warm_sessions)},
      {"core.knowledge.shards_loaded", "count",
       PerSession(static_cast<double>(s.shards_loaded), s.warm_sessions)},
      {"core.knowledge.ingest_ms_per_session", "ms",
       s.ingests > 0
           ? PerSession(s.ingest_ms, s.ingests)
           : PerSession(static_cast<double>(s.io.knowledge_busy_ns) / 1e6,
                        n)},
      {"net.start_rtt_us_p50", "us", Percentile(s.start_rtt_us, 50.0)},
      {"net.queue_depth_mean", "count", Mean(s.depth)},
      {"net.queue_wait_ms_est", "ms",
       s.achieved_rate > 0.0 ? queued_mean / s.achieved_rate * 1e3 : 0.0},
      {"net.shed_frac", "ratio",
       PerSession(static_cast<double>(s.sheds), s.start_exchanges)},
      {"net.client_retries", "count", static_cast<double>(s.client_retries)},
      {"net.gen_late_ms_p95", "ms", Percentile(s.late_ms, 95.0)},
      {"obs.tracing_overhead_frac", "ratio",
       s.p50_untraced > 0.0 ? s.p50_traced / s.p50_untraced - 1.0 : 0.0},
      {"info.sandbox_disk_fsync_us_p50", "us", sandbox_fsync_us_p50},
  };
  return out;
}

/// fsync latency of the disk holding the checkout (the working directory,
/// not the tmpfs state directory), for information only: labelled as the
/// sandbox disk and never part of any gated metric.
double SandboxDiskFsyncUsP50() {
  const std::string path = ".perfbench_fsync_probe";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0.0;
  std::vector<double> us;
  for (int i = 0; i < 20; ++i) {
    std::fputs("probe\n", f);
    std::fflush(f);
    uint64_t begin = NowNs();
    (void)::fsync(::fileno(f));
    us.push_back(static_cast<double>(NowNs() - begin) / 1e3);
  }
  std::fclose(f);
  std::filesystem::remove(path);
  return Percentile(us, 50.0);
}

// ---- shared helpers -----------------------------------------------------------------------

void MakeDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
}

void RemoveDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

/// End-to-end metrics of one untraced pass, in BENCHMARK.json order.
struct PassTotals {
  double setup_s = 0.0;
  double sessions_per_s = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  std::vector<double> session_ms;  ///< every session, for the timing line
  std::vector<double> speedups;  ///< one per distinct spec
  IoCounts io;
  uint64_t trials = 0;
};

void AddEndToEnd(const PassTotals& t, WorkloadReport* report) {
  double trials = static_cast<double>(std::max<uint64_t>(1, t.trials));
  double ok = report->attempted == 0
                  ? 0.0
                  : static_cast<double>(report->attempted - report->failed) /
                        static_cast<double>(report->attempted);
  report->metrics = {
      {"setup_s", "s", t.setup_s},
      {"sessions_per_s", "1/s", t.sessions_per_s},
      {"session_ms_p50", "ms", t.p50_ms},
      {"session_ms_p95", "ms", t.p95_ms},
      {"speedup_geomean", "x", Geomean(t.speedups)},
      {"flushes_per_trial", "1/trial",
       static_cast<double>(t.io.TotalFlushes()) / trials},
      {"bytes_per_trial", "B/trial",
       static_cast<double>(t.io.TotalBytes()) / trials},
      {"ok_frac", "ratio", ok},
      // peak_rss_mb is appended by main (process-wide).
  };
  report->info.push_back(DescribeTiming("session_ms", "ms", t.session_ms));
  report->info.push_back(atune::StrFormat(
      "io: %llu fsyncs+dirsyncs, %llu writes, %llu bytes, %llu opens, %llu "
      "renames, %llu truncates, %llu unlinks, %llu reads (%llu bytes) over "
      "%llu trials",
      static_cast<unsigned long long>(t.io.TotalFlushes()),
      static_cast<unsigned long long>(t.io.TotalWrites()),
      static_cast<unsigned long long>(t.io.TotalBytes()),
      static_cast<unsigned long long>(t.io.opens),
      static_cast<unsigned long long>(t.io.renames),
      static_cast<unsigned long long>(t.io.truncates),
      static_cast<unsigned long long>(t.io.unlinks),
      static_cast<unsigned long long>(t.io.reads),
      static_cast<unsigned long long>(t.io.bytes_read),
      static_cast<unsigned long long>(t.trials)));
}

double MedianSetup(std::vector<double> samples, WorkloadReport* report) {
  report->info.push_back(atune::StrFormat(
      "setup: %zu repeats, median %.4f s (min %.4f, max %.4f)",
      samples.size(), Percentile(samples, 50.0), Percentile(samples, 0.0),
      Percentile(samples, 100.0)));
  return Percentile(samples, 50.0);
}

void CheckFailure(WorkloadReport* report, const std::string& message) {
  if (report->failures.size() < 50) report->failures.push_back(message);
}

// ---- bo-serial --------------------------------------------------------------------------------

struct BoPass {
  std::vector<double> session_ms;
  std::vector<SessionRun> runs;
  double wall_s = 0.0;
};

BoPass RunBoPass(BenchContext* ctx, const std::vector<SessionSpec>& list,
                 KnowledgeRepository& repo, SystemCounters* counters,
                 bool traced, LayerSample* layers,
                 atune::MetricsRegistry* metrics) {
  BoPass pass;
  double begin = NowSeconds();
  for (const SessionSpec& spec : list) {
    atune::Tracer tracer;
    RunHooks hooks;
    hooks.counters = counters;
    hooks.ingest = &repo;
    hooks.timed = traced;
    if (traced) {
      hooks.tracer = &tracer;
      hooks.metrics = metrics;
    }
    double t0 = NowSeconds();
    SessionRun run = RunInProcess(ctx->registry, spec, hooks);
    double ms = (NowSeconds() - t0) * 1e3;
    pass.session_ms.push_back(ms);
    if (layers != nullptr) {
      layers->Add(run, spec, ms);
      layers->AddSpans(tracer);
    }
    pass.runs.push_back(std::move(run));
  }
  pass.wall_s = NowSeconds() - begin;
  return pass;
}

void CheckBoRuns(const std::vector<SessionSpec>& list, const BoPass& pass,
                 WorkloadReport* report) {
  for (size_t i = 0; i < list.size(); ++i) {
    const SessionRun& run = pass.runs[i];
    ++report->attempted;
    if (!run.status.ok()) {
      ++report->failed;
      CheckFailure(report, list[i].id + ": " + run.status.ToString());
    } else if (run.trials != list[i].budget || !(run.speedup > 0.0)) {
      ++report->failed;
      CheckFailure(report,
                   atune::StrFormat("%s: %zu trials (budget %llu), speedup %g",
                                    list[i].id.c_str(), run.trials,
                                    static_cast<unsigned long long>(
                                        list[i].budget),
                                    run.speedup));
    }
  }
}

/// Each session of a bo-serial pass timed at its spec's quiet time: the
/// fastest of the spec's repeats. CPU steal on the shared box comes in
/// bursts that slow a session by up to 20%; the fastest repeat is the one a
/// burst missed, while a code change slows every repeat. Repeats must
/// reproduce the checksum.
std::vector<double> QuietTimes(const std::vector<SessionSpec>& list,
                               const BoPass& pass, WorkloadReport* report) {
  std::map<std::string, size_t> first;  // spec id -> index in `list`
  std::map<std::string, double> fastest;
  for (size_t i = 0; i < list.size(); ++i) {
    auto [it, inserted] = first.emplace(list[i].id, i);
    auto [best, fresh] = fastest.emplace(list[i].id, pass.session_ms[i]);
    if (!fresh) best->second = std::min(best->second, pass.session_ms[i]);
    if (!inserted && pass.runs[i].checksum != pass.runs[it->second].checksum) {
      ++report->failed;
      CheckFailure(report, list[i].id + ": repeat checksum differs");
    }
  }
  std::vector<double> quiet;
  for (const SessionSpec& spec : list) quiet.push_back(fastest[spec.id]);
  return quiet;
}

bool RunBoSerial(BenchContext* ctx, WorkloadReport* report) {
  const double pass_seconds = ctx->trace ? ctx->seconds / 2 : ctx->seconds;
  const size_t repeats = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(pass_seconds / kBoBlockSeconds)));
  const std::vector<SessionSpec> list = BoSerialList(ctx->seed, repeats);

  // Setup: fresh state directory + knowledge repository, and a fixed
  // warm-up pass (one short iTuned and one short OtterTune session).
  std::vector<double> setups;
  std::string dir;
  for (size_t k = 0; k < kSetupRepeats; ++k) {
    if (!dir.empty()) RemoveDir(dir);
    double t0 = NowSeconds();
    dir = ctx->state_dir + atune::StrFormat("/bo-%zu", k);
    MakeDir(dir + "/knowledge");
    KnowledgeRepository repo(dir + "/knowledge");
    for (const SessionSpec& spec : BoShortSpecs()) {
      RunHooks hooks;
      hooks.ingest = &repo;
      SessionRun run = RunInProcess(ctx->registry, spec, hooks);
      if (!run.status.ok()) {
        CheckFailure(report, "bo-serial warm-up: " + run.status.ToString());
      }
    }
    setups.push_back(NowSeconds() - t0);
  }
  KnowledgeRepository repo(dir + "/knowledge");
  SystemCounters counters;

  PassTotals totals;
  totals.setup_s = MedianSetup(setups, report);
  IoCounts io_before = ctx->io->Snapshot();
  BoPass pass = RunBoPass(ctx, list, repo, &counters, false, nullptr, nullptr);
  totals.io = ctx->io->Snapshot().Minus(io_before);
  CheckBoRuns(list, pass, report);
  const std::vector<double> quiet = QuietTimes(list, pass, report);
  double quiet_sum_s = 0.0;
  for (double ms : quiet) quiet_sum_s += ms / 1e3;
  totals.session_ms = pass.session_ms;
  totals.p50_ms = Percentile(quiet, 50.0);
  totals.p95_ms = Percentile(quiet, 95.0);
  totals.sessions_per_s = static_cast<double>(quiet.size()) / quiet_sum_s;
  std::set<std::string> seen;
  for (size_t i = 0; i < list.size(); ++i) {
    totals.trials += pass.runs[i].trials;
    if (seen.insert(list[i].id).second) {
      totals.speedups.push_back(pass.runs[i].speedup);
    }
  }
  report->info.push_back(atune::StrFormat(
      "bo-serial: %zu repeats of a block of 8 x budget %llu + 1 x budget %llu "
      "(%zu sessions, %.2f sessions/s of wall clock), closed loop, "
      "parallelism 1, in memory; timings are per-spec quiet times",
      repeats, static_cast<unsigned long long>(kBoBudget),
      static_cast<unsigned long long>(kBoHeavyBudget), list.size(),
      static_cast<double>(list.size()) / pass.wall_s));

  // Correctness: the first session again, bare system, must reproduce.
  {
    SessionSpec spec = list.front();
    SessionRun ref = RunInProcess(ctx->registry, spec, RunHooks{});
    if (!ref.status.ok() || ref.checksum != pass.runs.front().checksum) {
      ++report->failed;
      CheckFailure(report, spec.id + ": bare-system rerun checksum differs");
    }
  }

  if (!ctx->trace) {
    AddEndToEnd(totals, report);
    return true;
  }
  // Traced run: the same list untraced (above) and traced.
  LayerSample layers;
  layers.think_measured = true;
  atune::MetricsRegistry metrics;
  counters.Reset();
  counters.timed.store(true);
  ctx->io->set_timed(true);
  (void)ctx->io->TakeSyncLatenciesUs();
  io_before = ctx->io->Snapshot();
  BoPass traced = RunBoPass(ctx, list, repo, &counters, true, &layers,
                            &metrics);
  layers.io = ctx->io->Snapshot().Minus(io_before);
  layers.fsync_us = ctx->io->TakeSyncLatenciesUs();
  ctx->io->set_timed(false);
  layers.exec_calls = counters.execute_calls.load();
  layers.exec_ns = counters.execute_ns.load();
  layers.exec_busy_ns = counters.busy.busy_ns();
  layers.p50_untraced = totals.p50_ms;
  layers.p50_traced = Percentile(QuietTimes(list, traced, report), 50.0);
  CheckBoRuns(list, traced, report);
  for (size_t i = 0; i < list.size(); ++i) {
    if (traced.runs[i].checksum != pass.runs[i].checksum) {
      ++report->failed;
      CheckFailure(report, list[i].id + ": traced checksum differs");
    }
  }
  report->info.push_back(DescribeTiming("traced session_ms", "ms",
                                        traced.session_ms));
  report->metrics = PerLayerMetrics(layers, metrics.Snapshot(),
                                    SandboxDiskFsyncUsP50());
  return true;
}

// ---- durable-cheap ----------------------------------------------------------------------------

struct CheapState {
  std::string dir;
  std::vector<std::string> pinned;
  std::unique_ptr<KnowledgeRepository> repo;
};

std::vector<SessionSpec> DurablePool(const BenchContext& ctx) {
  size_t parallelism = std::min<size_t>(4, ctx.nproc);
  std::vector<SessionSpec> pool;
  for (size_t j = 0; j < kCheapPool; ++j) {
    SessionSpec spec = CheapSpec(kCheapPoolSeed, j, parallelism);
    spec.id = atune::StrFormat("dc-%zu", j);
    spec.journaled = true;
    spec.contention = 0;
    pool.push_back(spec);
  }
  return pool;
}

/// Knowledge corpus the warm share maps against: 4 tuners x 3 systems x 2
/// seeds, run in memory and ingested, then pinned by shard list.
Status BuildCorpus(BenchContext* ctx, CheapState* state) {
  for (size_t k = 0; k < kCheapBlock; ++k) {
    SessionSpec spec = CheapSpec(DeriveSeed(kCheapPoolSeed, 7), k, 1);
    spec.parallelism = 1;
    spec.kill_resume = false;
    spec.warm = false;
    spec.contention = 0;
    spec.id = atune::StrFormat("corpus-%zu", k);
    RunHooks hooks;
    hooks.ingest = state->repo.get();
    SessionRun run = RunInProcess(ctx->registry, spec, hooks);
    if (!run.status.ok()) return run.status;
  }
  state->pinned = state->repo->ListShards();
  if (state->pinned.size() != kCheapBlock) {
    return Status::Internal(atune::StrFormat(
        "corpus holds %zu shards, expected %zu", state->pinned.size(),
        kCheapBlock));
  }
  return Status::OK();
}

RunHooks DurableHooks(BenchContext* ctx, const CheapState& state,
                      SystemCounters* counters) {
  RunHooks hooks;
  hooks.counters = counters;
  hooks.io = ctx->io;
  hooks.ingest = state.repo.get();
  hooks.corpus = state.repo.get();
  hooks.pinned = &state.pinned;
  hooks.journal_dir = state.dir + "/journals";
  return hooks;
}

struct CheapPass {
  std::vector<double> session_ms;
  /// Per window of kDurableWindow consecutive sessions: sessions/s, p50
  /// and p95.
  std::vector<double> window_per_s;
  std::vector<double> window_p50;
  std::vector<double> window_p95;
  std::vector<SessionRun> first_cycle;  ///< one per pool spec
  size_t sessions = 0;
  size_t cycles = 0;
  size_t failed = 0;
  size_t truncated = 0;
  uint64_t trials = 0;
};

/// Closed loop over whole cycles of the pool until `seconds` have passed.
/// Every cycle repeats the same specs, so each cycle must reproduce the
/// first cycle's checksums and the counts per trial are exact.
CheapPass RunDurablePass(BenchContext* ctx, const CheapState& state,
                         const std::vector<SessionSpec>& pool,
                         SystemCounters* counters, double seconds,
                         bool traced, LayerSample* layers,
                         atune::MetricsRegistry* metrics,
                         WorkloadReport* report) {
  CheapPass pass;
  RunHooks hooks = DurableHooks(ctx, state, counters);
  hooks.timed = traced;
  if (traced) hooks.metrics = metrics;
  double begin = NowSeconds();
  double window_begin = begin;
  const std::vector<size_t> order = CheapOrder(ctx->seed);
  pass.first_cycle.resize(pool.size());
  while (pass.cycles == 0 || NowSeconds() - begin < seconds) {
    for (size_t j : order) {
      atune::Tracer tracer;
      if (traced) hooks.tracer = &tracer;
      double t0 = NowSeconds();
      SessionRun run = RunInProcess(ctx->registry, pool[j], hooks);
      double t1 = NowSeconds();
      double ms = (t1 - t0) * 1e3;
      pass.session_ms.push_back(ms);
      ++pass.sessions;
      if (pass.sessions % kDurableWindow == 0) {
        std::vector<double> window(pass.session_ms.end() - kDurableWindow,
                                   pass.session_ms.end());
        pass.window_per_s.push_back(static_cast<double>(kDurableWindow) /
                                    (t1 - window_begin));
        pass.window_p50.push_back(Percentile(window, 50.0));
        pass.window_p95.push_back(Percentile(window, 95.0));
        window_begin = t1;
      }
      pass.trials += run.trials;
      pass.truncated += run.truncated;
      if (layers != nullptr) {
        layers->Add(run, pool[j], ms);
        layers->AddSpans(tracer);
      }
      if (!run.status.ok()) {
        ++pass.failed;
        CheckFailure(report, pool[j].id + ": " + run.status.ToString());
      } else if (pass.cycles > 0 &&
                 run.checksum != pass.first_cycle[j].checksum) {
        ++pass.failed;
        CheckFailure(report, pool[j].id + ": repeat cycle checksum differs");
      } else if (pool[j].kill_resume &&
                 run.replayed + pool[j].parallelism <= run.kill_records) {
        // A batch commits as a unit: recovery may drop the kill's
        // incomplete batch (at most parallelism - 1 records), nothing more.
        ++pass.failed;
        CheckFailure(report,
                     atune::StrFormat("%s: resume replayed %zu of %llu "
                                      "records journaled before the kill",
                                      pool[j].id.c_str(), run.replayed,
                                      static_cast<unsigned long long>(
                                          run.kill_records)));
      }
      if (pass.cycles == 0) pass.first_cycle[j] = std::move(run);
    }
    ++pass.cycles;
  }
  return pass;
}

/// Journaled (and killed+resumed, warm-started, batched) sessions must equal
/// the same spec run in memory on a bare system at the same parallelism.
void CheckDurableReferences(BenchContext* ctx, const CheapState& state,
                            const std::vector<SessionSpec>& pool,
                            const CheapPass& pass, WorkloadReport* report) {
  for (size_t j = 0; j < pool.size() && j < pass.first_cycle.size(); ++j) {
    if (!pass.first_cycle[j].status.ok()) continue;
    SessionSpec spec = pool[j];
    spec.journaled = false;
    spec.kill_resume = false;
    RunHooks hooks;
    hooks.corpus = state.repo.get();
    hooks.pinned = &state.pinned;
    SessionRun ref = RunInProcess(ctx->registry, spec, hooks);
    if (!ref.status.ok() || ref.checksum != pass.first_cycle[j].checksum) {
      ++report->failed;
      CheckFailure(report, atune::StrFormat(
                               "%s (%s%s%s): checksum differs from the "
                               "in-memory reference",
                               spec.id.c_str(), spec.tuner.c_str(),
                               pool[j].kill_resume ? ", killed+resumed" : "",
                               spec.warm ? ", warm" : ""));
    }
  }
}

Status SetupDurable(BenchContext* ctx, size_t k,
                    const std::vector<SessionSpec>& pool, CheapState* state) {
  state->dir = ctx->state_dir + atune::StrFormat("/dc-%zu", k);
  MakeDir(state->dir + "/journals");
  MakeDir(state->dir + "/knowledge");
  state->repo = std::make_unique<KnowledgeRepository>(state->dir + "/knowledge");
  ATUNE_RETURN_IF_ERROR(BuildCorpus(ctx, state));
  // Warm-up: the first specs of the pool through the exact timed path.
  RunHooks hooks = DurableHooks(ctx, *state, nullptr);
  for (size_t j = 0; j < kWarmupSessions; ++j) {
    SessionRun run = RunInProcess(ctx->registry, pool[j], hooks);
    if (!run.status.ok()) return run.status;
  }
  return Status::OK();
}

bool RunDurableCheap(BenchContext* ctx, WorkloadReport* report) {
  const std::vector<SessionSpec> pool = DurablePool(*ctx);
  std::vector<double> setups;
  CheapState state;
  for (size_t k = 0; k < kSetupRepeats; ++k) {
    if (!state.dir.empty()) RemoveDir(state.dir);
    double t0 = NowSeconds();
    Status status = SetupDurable(ctx, k, pool, &state);
    setups.push_back(NowSeconds() - t0);
    if (!status.ok()) {
      ++report->failed;
      CheckFailure(report, "durable-cheap setup: " + status.ToString());
      return true;
    }
  }
  SystemCounters counters;
  PassTotals totals;
  totals.setup_s = MedianSetup(setups, report);

  const double pass_seconds = ctx->trace ? ctx->seconds / 2 : ctx->seconds;
  IoCounts io_before = ctx->io->Snapshot();
  CheapPass pass = RunDurablePass(ctx, state, pool, &counters, pass_seconds,
                                  false, nullptr, nullptr, report);
  totals.io = ctx->io->Snapshot().Minus(io_before);
  report->attempted += pass.sessions;
  report->failed += pass.failed;
  CheckDurableReferences(ctx, state, pool, pass, report);
  totals.session_ms = pass.session_ms;
  totals.sessions_per_s =
      Percentile(pass.window_per_s, 100.0 - kQuietQuartile);
  totals.p50_ms = Percentile(pass.window_p50, kQuietQuartile);
  totals.p95_ms = Percentile(pass.window_p95, kQuietQuartile);
  totals.trials = pass.trials;
  for (const SessionRun& run : pass.first_cycle) {
    totals.speedups.push_back(run.speedup);
  }
  report->info.push_back(atune::StrFormat(
      "durable-cheap: %zu sessions = %zu cycles of %zu specs (budget %llu, "
      "strict journal, %zu-way batched half, killed+resumed quarter, warm "
      "quarter over %zu pinned shards); %zu journals truncated to fsynced "
      "bytes before resume",
      pass.sessions, pass.cycles, pool.size(),
      static_cast<unsigned long long>(kCheapBudget),
      std::min<size_t>(4, ctx->nproc), state.pinned.size(), pass.truncated));

  if (!ctx->trace) {
    AddEndToEnd(totals, report);
    return true;
  }
  LayerSample layers;
  layers.think_measured = true;
  atune::MetricsRegistry metrics;
  counters.Reset();
  counters.timed.store(true);
  ctx->io->set_timed(true);
  (void)ctx->io->TakeSyncLatenciesUs();
  io_before = ctx->io->Snapshot();
  CheapPass traced = RunDurablePass(ctx, state, pool, &counters, pass_seconds,
                                    true, &layers, &metrics, report);
  layers.io = ctx->io->Snapshot().Minus(io_before);
  layers.fsync_us = ctx->io->TakeSyncLatenciesUs();
  ctx->io->set_timed(false);
  report->attempted += traced.sessions;
  report->failed += traced.failed;
  for (size_t j = 0; j < traced.first_cycle.size(); ++j) {
    if (traced.first_cycle[j].checksum != pass.first_cycle[j].checksum) {
      ++report->failed;
      CheckFailure(report, pool[j].id + ": traced checksum differs");
    }
  }
  layers.exec_calls = counters.execute_calls.load();
  layers.exec_ns = counters.execute_ns.load();
  layers.exec_busy_ns = counters.busy.busy_ns();
  layers.p50_untraced = Percentile(pass.session_ms, 50.0);
  layers.p50_traced = Percentile(traced.session_ms, 50.0);
  report->info.push_back(DescribeTiming("traced session_ms", "ms",
                                        traced.session_ms));
  report->metrics = PerLayerMetrics(layers, metrics.Snapshot(),
                                    SandboxDiskFsyncUsP50());
  return true;
}

// ---- service-open -------------------------------------------------------------------------------

/// An in-process atuned on its own serve thread.
class LocalDaemon {
 public:
  explicit LocalDaemon(atune::DaemonOptions options)
      : daemon_(std::move(options)) {}
  ~LocalDaemon() { Stop(); }
  LocalDaemon(const LocalDaemon&) = delete;
  LocalDaemon& operator=(const LocalDaemon&) = delete;

  Status Start() {
    ATUNE_RETURN_IF_ERROR(daemon_.Start());
    serve_ = std::thread([this] { (void)daemon_.Serve(); });
    return Status::OK();
  }
  void Stop() {
    if (!serve_.joinable()) return;
    daemon_.RequestDrain();
    serve_.join();
  }
  const std::string& address() const { return daemon_.bound_address(); }

 private:
  atune::TuningDaemon daemon_;
  std::thread serve_;
};

atune::StartRequest ToStartRequest(const SessionSpec& spec,
                                   const std::string& id) {
  atune::StartRequest req;
  req.session_id = id;
  req.tenant = spec.tenant;
  req.tuner = spec.tuner;
  req.system = spec.system;
  req.workload = spec.workload;
  req.budget = spec.budget;
  req.seed = spec.seed;
  req.contention = spec.contention;
  return req;
}

std::vector<SessionSpec> ServicePool() {
  std::vector<SessionSpec> pool;
  for (size_t j = 0; j < kCheapPool; ++j) {
    SessionSpec spec = CheapSpec(kCheapPoolSeed, j, 1);
    spec.parallelism = 1;  // atuned runs sessions serially
    spec.kill_resume = false;
    spec.warm = false;
    spec.id = atune::StrFormat("so-%zu", j);
    pool.push_back(spec);
  }
  return pool;
}

atune::TuningClient::Options ClientOptions(const std::string& address) {
  atune::TuningClient::Options options;
  options.address = address;
  options.io_timeout_ms = 30000;
  return options;
}

struct ServicePass {
  std::vector<double> due_s;    ///< arrival schedule
  std::vector<size_t> spec_of;  ///< pool index of arrival i
  std::vector<atune::SessionState> state;
  std::vector<uint64_t> checksum;
  std::vector<uint64_t> trials;
  OpenLoopResult loop;
  uint64_t start_exchanges = 0;
  uint64_t sheds = 0;
  uint64_t client_retries = 0;
  std::vector<double> start_rtt_us;
  std::vector<double> depth;
  std::vector<double> queued;
};

ServicePass RunServicePass(BenchContext* ctx, const std::string& address,
                           const std::string& journal_dir,
                           const std::vector<SessionSpec>& pool, int pass_id,
                           double seconds, bool traced) {
  ServicePass pass;
  pass.due_s = PoissonSchedule(DeriveSeed(ctx->seed, 500 + pass_id),
                               kServiceRatePerS, seconds);
  const size_t n = pass.due_s.size();
  pass.spec_of.resize(n);
  const std::vector<size_t> order = CheapOrder(ctx->seed);
  for (size_t i = 0; i < n; ++i) pass.spec_of[i] = order[i % order.size()];
  pass.state.assign(n, atune::SessionState::kUnknown);
  pass.checksum.assign(n, 0);
  pass.trials.assign(n, 0);
  auto id_of = [pass_id](size_t i) {
    return atune::StrFormat("so-%d-%zu", pass_id, i);
  };

  // One sender connection plus nproc-1 watcher connections: load
  // generation never uses more threads or connections than nproc.
  const size_t watchers = std::max<size_t>(1, ctx->nproc - 1);
  atune::TuningClient sender(ClientOptions(address));
  std::vector<std::unique_ptr<atune::TuningClient>> watcher_clients;
  for (size_t w = 0; w < watchers; ++w) {
    watcher_clients.push_back(
        std::make_unique<atune::TuningClient>(ClientOptions(address)));
  }
  double last_poll = 0.0;
  auto submit = [&](size_t i) {
    atune::StartRequest req = ToStartRequest(pool[pass.spec_of[i]], id_of(i));
    for (int attempt = 0; attempt < 16; ++attempt) {
      uint64_t begin = traced ? NowNs() : 0;
      auto resp = sender.StartSession(req);
      ++pass.start_exchanges;
      if (traced && attempt == 0) {
        pass.start_rtt_us.push_back(static_cast<double>(NowNs() - begin) /
                                    1e3);
      }
      if (!resp.ok()) return false;
      if (resp->code == atune::AdmitCode::kAccepted ||
          resp->code == atune::AdmitCode::kAlreadyExists) {
        break;
      }
      if (resp->code == atune::AdmitCode::kDraining) return false;
      ++pass.sheds;
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::max<uint64_t>(1, resp->retry_after_ms)));
      if (attempt == 15) return false;
    }
    // Traced runs sample the daemon's queue while the sender would idle.
    if (traced && i + 1 < n && NowSeconds() - last_poll > 0.010) {
      auto stats = sender.Stats();
      last_poll = NowSeconds();
      if (stats.ok()) {
        pass.depth.push_back(static_cast<double>(stats->active + stats->queued));
        pass.queued.push_back(static_cast<double>(stats->queued));
      }
    }
    return true;
  };
  auto await = [&](size_t i, size_t w) {
    auto resp = watcher_clients[w]->AwaitResult(id_of(i), 120000, 2000);
    if (!resp.ok()) return false;
    pass.state[i] = resp->state;
    pass.checksum[i] = resp->result.checksum;
    pass.trials[i] = resp->result.trials;
    if (resp->state != atune::SessionState::kDone) return false;
    // A finished session's journal is never read again (its .result is
    // durable); dropping it keeps the in-memory state directory small.
    ::unlink((journal_dir + "/" + id_of(i) + ".wal").c_str());
    return true;
  };
  pass.loop = RunOpenLoop(pass.due_s, watchers, submit, await);
  pass.client_retries = sender.retried_exchanges();
  for (const auto& client : watcher_clients) {
    pass.client_retries += client->retried_exchanges();
  }
  return pass;
}

/// service-open's timings. Each arrival stream walks the pool in a fixed
/// shuffled order, so every distinct spec recurs about every 3.2 s (960
/// specs at 300/s) and its repeats sample the whole pass. The p50 and p95
/// are taken over the specs of each spec's median latency across its
/// repeats: the tail is that of the workload mix (contention and slower
/// tuner/system pairs), measured from each arrival's due time, so queueing
/// stays in. A burst of CPU steal stretches the queue behind it and inflates
/// the tail of every session in it; a whole-run p95, or a quiet quartile of
/// per-window p95s, followed those bursts (28-34% spread over sets of 6-10
/// runs), while the per-spec median sheds a burst that covers fewer than
/// half a spec's repeats. The timing line still describes every session.
struct ServiceTiming {
  std::vector<double> completed_ms;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double achieved_per_s = 0.0;
};

ServiceTiming SummarizeService(const ServicePass& pass) {
  ServiceTiming t;
  t.completed_ms = pass.loop.Completed(0, pass.due_s.size());
  std::map<size_t, std::vector<double>> repeats_ms;  // by pool index
  for (size_t i = 0; i < pass.due_s.size(); ++i) {
    if (pass.loop.latency_ms[i] < 0.0) continue;
    repeats_ms[pass.spec_of[i]].push_back(pass.loop.latency_ms[i]);
  }
  std::vector<double> spec_medians;
  for (const auto& [spec, ms] : repeats_ms) {
    spec_medians.push_back(Percentile(ms, 50.0));
  }
  t.p50_ms = Percentile(spec_medians, 50.0);
  t.p95_ms = Percentile(spec_medians, 95.0);
  double span_s = pass.loop.last_done_s - pass.loop.first_due_s;
  t.achieved_per_s =
      span_s > 0.0 ? static_cast<double>(t.completed_ms.size()) / span_s : 0.0;
  return t;
}

atune::DaemonOptions ServiceDaemonOptions(const std::string& dir,
                                          size_t workers) {
  atune::DaemonOptions options;
  options.listen = "unix:" + dir + "/atuned.sock";
  options.journal_dir = dir + "/atuned";
  options.workers = workers;
  // Quotas never bind below the queue bound: at the offered rate nothing
  // should be shed, so a shed is a finding, not part of the mix.
  options.tenant_budget_quota =
      static_cast<double>(kCheapBudget * options.max_queue);
  return options;
}

Status WarmUpDaemon(const std::string& address,
                    const std::vector<SessionSpec>& pool, size_t k) {
  atune::TuningClient client(ClientOptions(address));
  for (size_t j = 0; j < kWarmupSessions; ++j) {
    std::string id = atune::StrFormat("warmup-%zu-%zu", k, j);
    auto start = client.RetryStart(ToStartRequest(pool[j], id));
    if (!start.ok()) return start.status();
    auto done = client.AwaitResult(id, 60000, 2000);
    if (!done.ok()) return done.status();
    if (done->state != atune::SessionState::kDone) {
      return Status::Internal("warm-up session " + id + " ended " +
                              atune::SessionStateToString(done->state));
    }
  }
  return Status::OK();
}

/// Checks every arrival of `pass` against the in-process references and
/// accumulates trials; returns the number of arrivals that failed.
size_t CheckServicePass(const ServicePass& pass,
                        const std::vector<SessionRun>& refs,
                        const std::vector<SessionSpec>& pool,
                        WorkloadReport* report, uint64_t* trials) {
  size_t failed = pass.loop.failed;
  if (failed > 0) {
    CheckFailure(report, atune::StrFormat("service-open: %zu sessions not "
                                          "admitted or not kDone",
                                          pass.loop.failed));
  }
  for (size_t i = 0; i < pass.state.size(); ++i) {
    if (pass.state[i] != atune::SessionState::kDone) continue;
    *trials += pass.trials[i];
    const SessionRun& ref = refs[pass.spec_of[i]];
    if (!ref.status.ok() || ref.checksum != pass.checksum[i] ||
        ref.trials != pass.trials[i]) {
      ++failed;
      CheckFailure(report, atune::StrFormat(
                               "arrival %zu (%s): daemon checksum differs "
                               "from the in-process reference",
                               i, pool[pass.spec_of[i]].id.c_str()));
    }
  }
  return failed;
}

bool RunServiceOpen(BenchContext* ctx, WorkloadReport* report) {
  const std::vector<SessionSpec> pool = ServicePool();
  const size_t workers = std::min<size_t>(4, ctx->nproc);
  report->env.emplace_back("daemon_workers", std::to_string(workers));
  report->env.emplace_back("offered_rate_per_s",
                           atune::StrFormat("%g", kServiceRatePerS));

  // Setup: fresh state directory, daemon start, and a fixed warm-up pass
  // (the first kWarmupSessions specs, closed loop through one connection).
  std::vector<double> setups;
  std::unique_ptr<LocalDaemon> daemon;
  std::string dir;
  for (size_t k = 0; k < kSetupRepeats; ++k) {
    if (daemon != nullptr) daemon->Stop();
    daemon.reset();
    if (!dir.empty()) RemoveDir(dir);
    double t0 = NowSeconds();
    dir = ctx->state_dir + atune::StrFormat("/so-%zu", k);
    MakeDir(dir);
    daemon = std::make_unique<LocalDaemon>(ServiceDaemonOptions(dir, workers));
    Status status = daemon->Start();
    if (status.ok()) status = WarmUpDaemon(daemon->address(), pool, k);
    setups.push_back(NowSeconds() - t0);
    if (!status.ok()) {
      ++report->failed;
      CheckFailure(report, "service-open setup: " + status.ToString());
      return true;
    }
  }
  PassTotals totals;
  totals.setup_s = MedianSetup(setups, report);
  const std::string address = daemon->address();
  const std::string journal_dir = ServiceDaemonOptions(dir, workers).journal_dir;
  const double pass_seconds = ctx->trace ? ctx->seconds / 2 : ctx->seconds;

  IoCounts io_before = ctx->io->Snapshot();
  ServicePass pass =
      RunServicePass(ctx, address, journal_dir, pool, 0, pass_seconds, false);
  totals.io = ctx->io->Snapshot().Minus(io_before);

  ServicePass traced;
  LayerSample layers;
  if (ctx->trace) {
    ctx->io->set_timed(true);
    (void)ctx->io->TakeSyncLatenciesUs();
    io_before = ctx->io->Snapshot();
    traced = RunServicePass(ctx, address, journal_dir, pool, 1, pass_seconds,
                            true);
    layers.io = ctx->io->Snapshot().Minus(io_before);
    layers.fsync_us = ctx->io->TakeSyncLatenciesUs();
    ctx->io->set_timed(false);
  }
  {
    atune::TuningClient client(ClientOptions(address));
    auto stats = client.Stats();
    if (stats.ok()) {
      report->info.push_back(atune::StrFormat(
          "daemon stats: admitted %llu, completed %llu, failed %llu, shed "
          "queue-full %llu, shed quota %llu",
          static_cast<unsigned long long>(stats->admitted),
          static_cast<unsigned long long>(stats->completed),
          static_cast<unsigned long long>(stats->failed),
          static_cast<unsigned long long>(stats->shed_queue_full),
          static_cast<unsigned long long>(stats->shed_tenant_quota)));
    }
  }
  daemon->Stop();

  // Correctness: each distinct spec once in process (strict journal), every
  // daemon session compared against it.
  MakeDir(dir + "/reference");
  std::vector<char> used(pool.size(), 0);
  for (size_t j : pass.spec_of) used[j] |= 1;
  for (size_t j : traced.spec_of) used[j] |= 2;
  std::vector<SessionRun> refs(pool.size());
  for (size_t j = 0; j < pool.size(); ++j) {
    if (used[j] == 0) continue;
    SessionSpec spec = pool[j];
    spec.journaled = true;
    RunHooks hooks;
    hooks.journal_dir = dir + "/reference";
    refs[j] = RunInProcess(ctx->registry, spec, hooks);
    if (used[j] & 1) totals.speedups.push_back(refs[j].speedup);
  }
  report->attempted += pass.state.size() + traced.state.size();
  report->failed += CheckServicePass(pass, refs, pool, report, &totals.trials);
  uint64_t traced_trials = 0;
  report->failed += CheckServicePass(traced, refs, pool, report,
                                     &traced_trials);

  ServiceTiming timing = SummarizeService(pass);
  totals.session_ms = timing.completed_ms;
  totals.p50_ms = timing.p50_ms;
  totals.p95_ms = timing.p95_ms;
  totals.sessions_per_s = timing.achieved_per_s;
  report->info.push_back(atune::StrFormat(
      "service-open: %zu arrivals offered at %g/s over %.1f s, achieved "
      "%.2f/s; %zu watcher connections + 1 sender; generator late p95 %.3f "
      "ms; %llu sheds",
      pass.state.size(), kServiceRatePerS, pass_seconds,
      totals.sessions_per_s, std::max<size_t>(1, ctx->nproc - 1),
      Percentile(pass.loop.late_ms, 95.0),
      static_cast<unsigned long long>(pass.sheds)));

  if (!ctx->trace) {
    AddEndToEnd(totals, report);
    return true;
  }
  ServiceTiming traced_timing = SummarizeService(traced);
  layers.sessions = traced_timing.completed_ms.size();
  layers.achieved_rate = traced_timing.achieved_per_s;
  layers.start_rtt_us = traced.start_rtt_us;
  layers.depth = traced.depth;
  layers.queued = traced.queued;
  layers.start_exchanges = traced.start_exchanges;
  layers.sheds = traced.sheds;
  layers.client_retries = traced.client_retries;
  layers.late_ms = traced.loop.late_ms;
  layers.p50_untraced = timing.p50_ms;
  layers.p50_traced = traced_timing.p50_ms;
  report->info.push_back(DescribeTiming("traced session_ms", "ms",
                                        traced_timing.completed_ms));
  report->metrics = PerLayerMetrics(layers, atune::MetricsSnapshot{},
                                    SandboxDiskFsyncUsP50());
  return true;
}

std::vector<SessionSpec> ProbeSpecs(const std::string& name,
                                    const BenchContext& ctx) {
  std::vector<SessionSpec> probe;
  if (name == "bo-serial") {
    probe = BoShortSpecs();
  } else if (name == "durable-cheap") {
    std::vector<SessionSpec> pool = DurablePool(ctx);
    for (size_t j = 0; j < 8; ++j) {
      if (!pool[j].warm) probe.push_back(pool[j]);  // warm needs the corpus
    }
  } else {
    std::vector<SessionSpec> pool = ServicePool();
    for (size_t j = 0; j < 8; ++j) {
      SessionSpec spec = pool[j];
      spec.journaled = true;
      probe.push_back(spec);
    }
  }
  return probe;
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "bo-serial" || name == "durable-cheap" ||
         name == "service-open";
}

bool RunWorkload(const std::string& name, BenchContext* ctx,
                 WorkloadReport* report) {
  if (name == "bo-serial") return RunBoSerial(ctx, report);
  if (name == "durable-cheap") return RunDurableCheap(ctx, report);
  if (name == "service-open") return RunServiceOpen(ctx, report);
  return false;
}

std::vector<uint64_t> DecoratorProbeChecksums(
    const std::string& name, BenchContext* ctx, bool decorated,
    std::vector<std::string>* failures) {
  std::string dir =
      ctx->state_dir + (decorated ? "/probe-decorated" : "/probe-bare");
  MakeDir(dir);
  SystemCounters counters;
  std::vector<uint64_t> checksums;
  for (const SessionSpec& spec : ProbeSpecs(name, *ctx)) {
    RunHooks hooks;
    hooks.journal_dir = dir;
    hooks.counters = decorated ? &counters : nullptr;
    hooks.io = ctx->io;
    SessionSpec probe = spec;
    if (ctx->io == nullptr) probe.kill_resume = false;  // no watch without it
    SessionRun run = RunInProcess(ctx->registry, probe, hooks);
    if (!run.status.ok()) {
      failures->push_back("decorator probe " + spec.id + ": " +
                          run.status.ToString());
    }
    checksums.push_back(run.checksum);
  }
  RemoveDir(dir);
  return checksums;
}

}  // namespace perfbench
