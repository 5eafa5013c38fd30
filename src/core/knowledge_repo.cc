#include "core/knowledge_repo.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <dirent.h>
#include <set>

#include "common/file_util.h"
#include "common/io_env.h"
#include "common/random.h"
#include "ml/kmeans.h"
#include "obs/metrics.h"

namespace atune {
namespace {

constexpr char kMagic[8] = {'A', 'T', 'U', 'N', 'E', 'K', 'R', 'S'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderSize = 8 + 4 + 4 + 4;  // magic, version, len, crc

// Little-endian payload writers. core cannot depend on net/wire, so the
// shard format carries its own (tiny) codec.
void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) out->push_back(char((v >> (8 * i)) & 0xff));
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) out->push_back(char((v >> (8 * i)) & 0xff));
}

void PutF64(double v, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

void PutString(const std::string& s, std::string* out) {
  PutU32(uint32_t(s.size()), out);
  out->append(s);
}

void PutVec(const Vec& v, std::string* out) {
  PutU32(uint32_t(v.size()), out);
  for (double x : v) PutF64(x, out);
}

// Bounds-checked payload reader: any overrun poisons ok() and every
// subsequent Get returns a zero value, so Decode fails closed.
class PayloadReader {
 public:
  PayloadReader(const char* data, size_t size) : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  bool Done() const { return ok_ && pos_ == size_; }

  uint32_t GetU32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= uint32_t(uint8_t(data_[pos_ + i])) << (8 * i);
    pos_ += 4;
    return v;
  }

  uint64_t GetU64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t(uint8_t(data_[pos_ + i])) << (8 * i);
    pos_ += 8;
    return v;
  }

  double GetF64() {
    uint64_t bits = GetU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string GetString() {
    uint32_t n = GetU32();
    if (!Need(n)) return std::string();
    std::string s(data_ + pos_, n);
    pos_ += n;
    return s;
  }

  Vec GetVec() {
    uint32_t n = GetU32();
    // Each element is 8 bytes; reject counts the remaining bytes can't hold
    // before allocating.
    if (!ok_ || size_ - pos_ < size_t(n) * 8) {
      ok_ = false;
      return Vec();
    }
    Vec v(n);
    for (uint32_t i = 0; i < n; ++i) v[i] = GetF64();
    return v;
  }

 private:
  bool Need(size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

bool ValidShardId(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  for (char c : id) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '_' ||
          c == '-')) {
      return false;
    }
  }
  return true;
}

// Per-metric values of the outcome's transferable trials, non-finite
// scrubbed to 0 so sorting and summation stay well defined.
double FiniteOr0(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

KnowledgeRecord MakeKnowledgeRecord(
    const std::string& session_id, const std::string& tenant,
    const std::string& system_name, const ParameterSpace& space,
    const std::vector<std::string>& metric_names, const Workload& workload,
    uint64_t seed, uint64_t budget, const TuningOutcome& outcome) {
  KnowledgeRecord rec;
  rec.session_id = session_id;
  rec.tenant = tenant;
  rec.tuner = outcome.tuner_name;
  rec.system = system_name;
  rec.workload = workload.name;
  rec.workload_kind = workload.kind;
  rec.scale = workload.scale;
  rec.seed = seed;
  rec.budget = budget;
  rec.metric_names = metric_names;

  // Unscaled trials transfer directly; scaled probes ran a different
  // workload intensity and would skew both fingerprint and seeds.
  std::vector<const Trial*> trials;
  for (const Trial& t : outcome.history) {
    if (!t.scaled) trials.push_back(&t);
  }

  rec.fingerprint.assign(metric_names.size(), 0.0);
  if (!trials.empty()) {
    Vec column(trials.size());
    for (size_t m = 0; m < metric_names.size(); ++m) {
      for (size_t i = 0; i < trials.size(); ++i) {
        column[i] = FiniteOr0(trials[i]->result.MetricOr(metric_names[m], 0.0));
      }
      // Sorting the addends makes the mean *bitwise* invariant under any
      // permutation of the trial history (metamorphic-test contract).
      std::sort(column.begin(), column.end());
      double sum = 0.0;
      for (double v : column) sum += v;
      rec.fingerprint[m] = sum / double(column.size());
    }
  }

  rec.configs.reserve(trials.size());
  rec.objectives.reserve(trials.size());
  for (const Trial* t : trials) {
    rec.configs.push_back(space.ToUnitVector(t->config));
    rec.objectives.push_back(FiniteOr0(t->objective));
  }
  return rec;
}

std::string EncodeKnowledgeRecord(const KnowledgeRecord& record) {
  std::string payload;
  PutString(record.session_id, &payload);
  PutString(record.tenant, &payload);
  PutString(record.tuner, &payload);
  PutString(record.system, &payload);
  PutString(record.workload, &payload);
  PutString(record.workload_kind, &payload);
  PutF64(record.scale, &payload);
  PutU64(record.seed, &payload);
  PutU64(record.budget, &payload);
  PutU32(uint32_t(record.metric_names.size()), &payload);
  for (const std::string& m : record.metric_names) PutString(m, &payload);
  PutVec(record.fingerprint, &payload);
  PutU32(uint32_t(record.configs.size()), &payload);
  for (const Vec& c : record.configs) PutVec(c, &payload);
  PutVec(record.objectives, &payload);

  std::string out;
  out.reserve(kHeaderSize + payload.size());
  out.append(kMagic, sizeof(kMagic));
  PutU32(kVersion, &out);
  PutU32(uint32_t(payload.size()), &out);
  PutU32(Crc32(0, payload.data(), payload.size()), &out);
  out.append(payload);
  return out;
}

Result<KnowledgeRecord> DecodeKnowledgeRecord(const std::string& bytes) {
  if (bytes.size() < kHeaderSize ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("knowledge shard: bad magic or truncated header");
  }
  PayloadReader header(bytes.data() + sizeof(kMagic), kHeaderSize - sizeof(kMagic));
  uint32_t version = header.GetU32();
  uint32_t len = header.GetU32();
  uint32_t crc = header.GetU32();
  if (version != kVersion) {
    return Status::IoError("knowledge shard: unsupported version");
  }
  if (bytes.size() != kHeaderSize + size_t(len)) {
    return Status::IoError("knowledge shard: length mismatch");
  }
  const char* payload = bytes.data() + kHeaderSize;
  if (Crc32(0, payload, len) != crc) {
    return Status::IoError("knowledge shard: CRC mismatch");
  }

  PayloadReader r(payload, len);
  KnowledgeRecord rec;
  rec.session_id = r.GetString();
  rec.tenant = r.GetString();
  rec.tuner = r.GetString();
  rec.system = r.GetString();
  rec.workload = r.GetString();
  rec.workload_kind = r.GetString();
  rec.scale = r.GetF64();
  rec.seed = r.GetU64();
  rec.budget = r.GetU64();
  uint32_t n_metrics = r.GetU32();
  for (uint32_t i = 0; i < n_metrics && r.ok(); ++i) {
    rec.metric_names.push_back(r.GetString());
  }
  rec.fingerprint = r.GetVec();
  uint32_t n_configs = r.GetU32();
  for (uint32_t i = 0; i < n_configs && r.ok(); ++i) {
    rec.configs.push_back(r.GetVec());
  }
  rec.objectives = r.GetVec();
  if (!r.Done()) {
    return Status::IoError("knowledge shard: malformed payload");
  }
  if (rec.objectives.size() != rec.configs.size() ||
      rec.fingerprint.size() != rec.metric_names.size()) {
    return Status::IoError("knowledge shard: inconsistent record");
  }
  return rec;
}

KnowledgeRepository::KnowledgeRepository(std::string dir, size_t shard_buckets)
    : dir_(std::move(dir)), shard_buckets_(shard_buckets == 0 ? 1 : shard_buckets) {}

std::string KnowledgeRepository::ShardName(const std::string& session_id) const {
  uint32_t h = Crc32(0, session_id.data(), session_id.size());
  return "s" + std::to_string(size_t(h) % shard_buckets_) + "-" + session_id +
         ".krs";
}

Status KnowledgeRepository::Ingest(const KnowledgeRecord& record) {
  if (!ValidShardId(record.session_id)) {
    return Status::InvalidArgument("knowledge ingest: bad session id '" +
                                   record.session_id + "'");
  }
  if (::mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir(" + dir_ + "): " + std::strerror(errno));
  }
  double sync_seconds = 0.0;
  Status status = AtomicWriteFile(dir_ + "/" + ShardName(record.session_id),
                                  EncodeKnowledgeRecord(record), &sync_seconds);
  MetricsRegistry* metrics = CurrentMetrics();
  if (status.ok() && metrics != nullptr) {
    metrics->GetHistogram("io.fsync_host_seconds")->Record(sync_seconds);
  }
  return status;
}

std::vector<std::string> KnowledgeRepository::ListShards() const {
  std::vector<std::string> names;
  DIR* dir = ::opendir(dir_.c_str());
  if (dir == nullptr) return names;
  while (struct dirent* ent = ::readdir(dir)) {
    std::string name = ent->d_name;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".krs") == 0) {
      names.push_back(name);
    }
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

Result<KnowledgeRecord> KnowledgeRepository::LoadShard(
    const std::string& filename) const {
  std::string bytes;
  Status s = IoEnv::Current()->ReadFileToString(dir_ + "/" + filename, &bytes);
  if (!s.ok()) return s;
  return DecodeKnowledgeRecord(bytes);
}

Result<std::vector<KnowledgeRecord>> KnowledgeRepository::LoadShards(
    const std::vector<std::string>& filenames, size_t* corrupt_skipped) const {
  std::vector<KnowledgeRecord> records;
  size_t skipped = 0;
  for (const std::string& name : filenames) {
    auto rec = LoadShard(name);
    if (rec.ok()) {
      records.push_back(std::move(*rec));
    } else {
      ++skipped;  // corrupt or unreadable shards are skipped, never fatal
    }
  }
  if (corrupt_skipped != nullptr) *corrupt_skipped = skipped;
  return records;
}

Result<std::vector<KnowledgeRecord>> KnowledgeRepository::LoadAll(
    size_t* corrupt_skipped) const {
  return LoadShards(ListShards(), corrupt_skipped);
}

namespace {

// Splits "s<bucket-digits>-<id>.krs" into its embedded session id. The
// bucket digits cannot contain '-', so the first dash is the separator even
// when the id itself has dashes. Anything that does not match the pattern
// is a foreign file compaction must not touch.
bool ParseShardFilename(const std::string& name, std::string* id) {
  constexpr size_t kExtLen = 4;  // ".krs"
  if (name.size() <= kExtLen + 2 || name[0] != 's' ||
      name.compare(name.size() - kExtLen, kExtLen, ".krs") != 0) {
    return false;
  }
  size_t dash = name.find('-');
  if (dash == std::string::npos || dash < 2 || dash + 1 >= name.size() - kExtLen) {
    return false;
  }
  for (size_t i = 1; i < dash; ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) return false;
  }
  *id = name.substr(dash + 1, name.size() - kExtLen - dash - 1);
  return ValidShardId(*id);
}

}  // namespace

Status KnowledgeRepository::Compact(CompactionStats* stats) {
  CompactionStats local;
  IoEnv* env = IoEnv::Current();
  const std::vector<std::string> shards = ListShards();
  std::set<std::string> present(shards.begin(), shards.end());
  Status first_error;
  bool mutated = false;
  for (const std::string& name : shards) {
    std::string id;
    if (!ParseShardFilename(name, &id)) continue;  // foreign file: untouched
    const std::string canonical = ShardName(id);
    if (name == canonical) continue;
    ++local.superseded;
    if (present.count(canonical) != 0) {
      // Every Ingest publishes under the current ShardName, so the
      // canonical twin is the newest record for this id — but it only
      // supersedes the stale copy if it actually decodes. A corrupt
      // survivor never costs the duplicate (corrupt-skip contract).
      if (LoadShard(canonical).ok()) {
        Status s = env->Unlink(dir_ + "/" + name);
        if (s.ok()) {
          ++local.removed;
          mutated = true;
        } else if (first_error.ok()) {
          first_error = s;
        }
      } else {
        ++local.corrupt_kept;
      }
    } else if (LoadShard(name).ok()) {
      // Sole copy stranded under a stale bucket: move it to where current
      // readers and re-ingests look, instead of dropping knowledge.
      Status s = env->Rename(dir_ + "/" + name, dir_ + "/" + canonical);
      if (s.ok()) {
        ++local.renamed;
        mutated = true;
        present.insert(canonical);
      } else if (first_error.ok()) {
        first_error = s;
      }
    } else {
      ++local.corrupt_kept;  // unreadable: never unlink or move it
    }
  }
  if (mutated) {
    // One directory fsync makes the whole pass's unlinks/renames durable.
    Status s = env->SyncDir(dir_ + "/.");
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  if (stats != nullptr) *stats = local;
  return first_error;
}

namespace {

// Decile boundaries over the *distinct* values of one metric dimension.
// Working on distinct values (not the multiset) makes binning invariant
// under record duplication.
Vec DecileBoundaries(const std::set<double>& distinct) {
  Vec sorted(distinct.begin(), distinct.end());
  Vec bounds;
  bounds.reserve(9);
  for (size_t j = 1; j <= 9; ++j) {
    size_t idx = j * sorted.size() / 10;
    if (idx >= sorted.size()) idx = sorted.size() - 1;
    bounds.push_back(sorted[idx]);
  }
  return bounds;
}

double BinValue(const Vec& bounds, double v) {
  double bin = 0.0;
  for (double b : bounds) {
    if (v >= b) bin += 1.0;
  }
  return bin;
}

}  // namespace

WorkloadMapping MapWorkloadKnn(const std::vector<KnowledgeRecord>& records,
                               const Vec& target_fingerprint, size_t k) {
  WorkloadMapping mapping;
  const size_t dims = target_fingerprint.size();
  if (dims == 0) return mapping;

  std::vector<size_t> candidates;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].fingerprint.size() == dims) candidates.push_back(i);
  }
  if (candidates.empty()) return mapping;

  // All pruning/binning statistics come from the distinct fingerprints of
  // the queried set plus the target — a pure function of the query, so a
  // long-lived process carries no normalization state across tenants, and
  // duplicated records cannot shift boundaries.
  std::set<Vec> distinct_set;
  for (size_t i : candidates) distinct_set.insert(records[i].fingerprint);
  distinct_set.insert(target_fingerprint);
  std::vector<Vec> distinct(distinct_set.begin(), distinct_set.end());

  // Step 1: drop near-constant metrics — they cannot discriminate workloads.
  std::vector<size_t> kept;
  for (size_t d = 0; d < dims; ++d) {
    double lo = distinct[0][d], hi = distinct[0][d];
    for (const Vec& fp : distinct) {
      lo = std::min(lo, fp[d]);
      hi = std::max(hi, fp[d]);
    }
    if (hi - lo > 1e-12) kept.push_back(d);
  }

  // Step 2 (OtterTune §5.1, via ml/kmeans): cluster the standardized
  // per-metric profiles and keep the member nearest each centroid, so
  // redundant metrics don't dominate the distance. Fixed seed: the mapping
  // must be a deterministic function of the queried set.
  if (kept.size() > 2 && distinct.size() >= 2) {
    std::vector<Vec> profiles;
    profiles.reserve(kept.size());
    for (size_t d : kept) {
      Vec profile(distinct.size());
      double mean = 0.0;
      for (size_t i = 0; i < distinct.size(); ++i) mean += distinct[i][d];
      mean /= double(distinct.size());
      double var = 0.0;
      for (size_t i = 0; i < distinct.size(); ++i) {
        var += (distinct[i][d] - mean) * (distinct[i][d] - mean);
      }
      double sd = std::sqrt(var / double(distinct.size()));
      if (sd < 1e-12) sd = 1e-12;
      for (size_t i = 0; i < distinct.size(); ++i) {
        profile[i] = (distinct[i][d] - mean) / sd;
      }
      profiles.push_back(std::move(profile));
    }
    Rng rng(0x5eedULL);
    auto clustering =
        KMeansAutoK(profiles, std::min<size_t>(profiles.size(), 8), &rng);
    if (clustering.ok()) {
      std::vector<size_t> reps;
      for (size_t c = 0; c < clustering->centroids.size(); ++c) {
        double best = 0.0;
        size_t best_idx = profiles.size();
        for (size_t p = 0; p < profiles.size(); ++p) {
          if (clustering->assignments[p] != c) continue;
          double dist = 0.0;
          for (size_t i = 0; i < profiles[p].size(); ++i) {
            double diff = profiles[p][i] - clustering->centroids[c][i];
            dist += diff * diff;
          }
          if (best_idx == profiles.size() || dist < best) {
            best = dist;
            best_idx = p;
          }
        }
        if (best_idx < profiles.size()) reps.push_back(kept[best_idx]);
      }
      if (!reps.empty()) {
        std::sort(reps.begin(), reps.end());
        kept = std::move(reps);
      }
    }
  }
  mapping.metric_idx = kept;
  if (kept.empty()) return mapping;

  // Step 3: deciles-binned Euclidean distance (OtterTune §5.2).
  std::vector<Vec> bounds;
  bounds.reserve(kept.size());
  for (size_t d : kept) {
    std::set<double> values;
    for (const Vec& fp : distinct) values.insert(fp[d]);
    bounds.push_back(DecileBoundaries(values));
  }
  Vec target_bins(kept.size());
  for (size_t j = 0; j < kept.size(); ++j) {
    target_bins[j] = BinValue(bounds[j], target_fingerprint[kept[j]]);
  }

  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(candidates.size());
  for (size_t i : candidates) {
    double dist = 0.0;
    for (size_t j = 0; j < kept.size(); ++j) {
      double diff = BinValue(bounds[j], records[i].fingerprint[kept[j]]) -
                    target_bins[j];
      dist += diff * diff;
    }
    scored.emplace_back(std::sqrt(dist), i);
  }
  std::sort(scored.begin(), scored.end(),
            [&records](const std::pair<double, size_t>& a,
                       const std::pair<double, size_t>& b) {
              if (a.first != b.first) return a.first < b.first;
              if (records[a.second].session_id != records[b.second].session_id) {
                return records[a.second].session_id <
                       records[b.second].session_id;
              }
              return a.second < b.second;
            });
  for (size_t i = 0; i < scored.size() && i < k; ++i) {
    mapping.neighbors.push_back(scored[i].second);
    mapping.distances.push_back(scored[i].first);
  }
  return mapping;
}

std::vector<Vec> SelectWarmConfigs(const std::vector<KnowledgeRecord>& records,
                                   const std::vector<size_t>& neighbors,
                                   size_t dims, size_t max_configs) {
  // Per-neighbor trial order: best objective first, config bytes as a
  // deterministic tie-break.
  std::vector<std::vector<size_t>> order(neighbors.size());
  for (size_t n = 0; n < neighbors.size(); ++n) {
    const KnowledgeRecord& rec = records[neighbors[n]];
    for (size_t t = 0; t < rec.configs.size(); ++t) {
      if (rec.configs[t].size() == dims) order[n].push_back(t);
    }
    std::sort(order[n].begin(), order[n].end(), [&rec](size_t a, size_t b) {
      if (rec.objectives[a] != rec.objectives[b]) {
        return rec.objectives[a] < rec.objectives[b];
      }
      return rec.configs[a] < rec.configs[b];
    });
  }

  std::vector<Vec> selected;
  // Round-robin nearest-neighbor first: each neighbor contributes its best
  // remaining trial in turn, so one giant session can't crowd out the rest.
  for (size_t level = 0; selected.size() < max_configs; ++level) {
    bool any = false;
    for (size_t n = 0; n < neighbors.size() && selected.size() < max_configs;
         ++n) {
      if (level >= order[n].size()) continue;
      any = true;
      const Vec& config = records[neighbors[n]].configs[order[n][level]];
      if (std::find(selected.begin(), selected.end(), config) ==
          selected.end()) {
        selected.push_back(config);
      }
    }
    if (!any) break;
  }
  return selected;
}

}  // namespace atune
