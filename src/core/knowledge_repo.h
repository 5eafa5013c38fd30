#ifndef ATUNE_CORE_KNOWLEDGE_REPO_H_
#define ATUNE_CORE_KNOWLEDGE_REPO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/parameter_space.h"
#include "core/session.h"
#include "core/system.h"
#include "core/tuner.h"
#include "math/matrix.h"

namespace atune {

/// One completed tuning session's contribution to the global knowledge
/// repository (DESIGN.md §14): enough to fingerprint the workload it ran
/// against and to replay its best configurations into a new session.
struct KnowledgeRecord {
  /// Also the shard filename stem — must satisfy the wire protocol's
  /// session-id charset ([A-Za-z0-9._-], <= 128 chars).
  std::string session_id;
  std::string tenant;
  std::string tuner;
  std::string system;         ///< TunableSystem::name()
  std::string workload;       ///< Workload::name
  std::string workload_kind;  ///< Workload::kind
  double scale = 1.0;
  uint64_t seed = 0;
  uint64_t budget = 0;
  /// Metric schema for `fingerprint` (the system's MetricNames()).
  std::vector<std::string> metric_names;
  /// RAW per-metric mean over the session's unscaled trials. Stored
  /// unnormalized on purpose: pruning/standardization/binning happen only
  /// at query time as a pure function of the queried record set, so a
  /// long-lived process never carries normalization state across tenants.
  Vec fingerprint;
  /// Unit-encoded configurations of the session's unscaled trials, each
  /// paired with the observed objective (lower = better).
  std::vector<Vec> configs;
  Vec objectives;
};

/// Builds a record from a finished session. The fingerprint is the
/// per-metric mean over the outcome's unscaled trials with the addends
/// sorted before summation, so it is *bitwise* invariant under any
/// permutation of the trial history (metamorphic-test contract).
KnowledgeRecord MakeKnowledgeRecord(const std::string& session_id,
                                    const std::string& tenant,
                                    const std::string& system_name,
                                    const ParameterSpace& space,
                                    const std::vector<std::string>& metric_names,
                                    const Workload& workload, uint64_t seed,
                                    uint64_t budget,
                                    const TuningOutcome& outcome);

/// Self-describing single-record shard encoding: magic "ATUNEKRS", a
/// version, and a length+CRC32-framed little-endian payload. Decode
/// rejects any truncation, bit-flip, or foreign file with a non-OK status
/// (never a partially-filled record).
std::string EncodeKnowledgeRecord(const KnowledgeRecord& record);
Result<KnowledgeRecord> DecodeKnowledgeRecord(const std::string& bytes);

/// A global, concurrently-written, sharded store of completed sessions.
///
/// Layout: one immutable file per record, `s<bucket>-<session_id>.krs`,
/// where bucket = hash(session_id) % shard_buckets. Every publish goes
/// through AtomicWriteFile (tmp + fsync + rename + dir fsync on the IoEnv
/// seam), so a reader never observes a torn shard and the fault-injection
/// and crash-point harnesses cover ingest for free. Writers to *distinct*
/// session ids never contend (distinct paths); re-ingesting the same id is
/// an idempotent atomic replace. The object itself holds only the
/// directory path — no cached records, no accumulated normalization
/// state — so it is trivially safe to share across tenants and threads.
class KnowledgeRepository {
 public:
  explicit KnowledgeRepository(std::string dir, size_t shard_buckets = 16);

  const std::string& dir() const { return dir_; }

  /// Creates the directory if missing and atomically publishes the
  /// record's shard. Thread-safe for distinct session ids. The shard's
  /// fsync time goes to io.fsync_host_seconds of CurrentMetrics(), if any.
  Status Ingest(const KnowledgeRecord& record);

  /// Shard filename (relative to dir()) a record would be published under.
  std::string ShardName(const std::string& session_id) const;

  /// Sorted list of shard filenames currently present (".krs" only —
  /// in-flight ".tmp" files are never listed). Missing directory = empty.
  std::vector<std::string> ListShards() const;

  /// Decodes one shard by filename.
  Result<KnowledgeRecord> LoadShard(const std::string& filename) const;

  /// Loads every listed shard. A corrupt or unreadable shard is skipped —
  /// not fatal — and counted into *corrupt_skipped (may be null).
  Result<std::vector<KnowledgeRecord>> LoadAll(
      size_t* corrupt_skipped = nullptr) const;

  /// LoadAll restricted to an explicit shard list — how a warm-started
  /// daemon session pins its snapshot at admission so a restart maps
  /// against byte-identical history (DESIGN.md §14). Missing/corrupt
  /// entries are skipped and counted.
  Result<std::vector<KnowledgeRecord>> LoadShards(
      const std::vector<std::string>& filenames,
      size_t* corrupt_skipped = nullptr) const;

  /// What one Compact() pass did (all counters are per-pass).
  struct CompactionStats {
    size_t superseded = 0;    ///< stale-bucket duplicates found
    size_t removed = 0;       ///< superseded files unlinked
    size_t renamed = 0;       ///< sole stale records moved to canonical names
    size_t corrupt_kept = 0;  ///< undecodable shards left untouched
  };

  /// Latest-wins compaction: reconciles the directory with the *current*
  /// bucket mapping. A repository reopened with a different `shard_buckets`
  /// leaves records stranded under stale bucket prefixes; because every
  /// Ingest publishes under the current ShardName, the canonical file is
  /// always the newest record for its session id, so
  ///   * a stale-bucket file whose canonical twin exists and decodes is
  ///     superseded — unlinked through the IoEnv seam;
  ///   * a sole stale-bucket file that decodes is renamed to its canonical
  ///     name (no knowledge is ever dropped by compaction);
  ///   * anything that fails to decode is left exactly where it is — the
  ///     corrupt-skip contract: compaction never destroys evidence, and a
  ///     corrupt canonical twin also shields its stale duplicate.
  /// Safe to run concurrently with Ingest of *other* session ids (distinct
  /// paths); re-ingesting an id concurrently with a pass that is moving
  /// that id's stale twin may resurface the older (still valid) record.
  /// Best-effort: the pass visits every shard and returns the first I/O
  /// error encountered, if any.
  Status Compact(CompactionStats* stats = nullptr);

 private:
  std::string dir_;
  size_t shard_buckets_;
};

/// Query-time workload mapping (pure function — see KnowledgeRecord).
struct WorkloadMapping {
  /// Pruned (informative) fingerprint dimensions, ascending. Pruning
  /// drops near-constant metrics, then keeps one representative per
  /// k-means cluster of standardized metric profiles (OtterTune §5.1,
  /// reusing ml/kmeans with a fixed internal seed for determinism).
  std::vector<size_t> metric_idx;
  /// Record indices into the queried set, nearest first; ties broken by
  /// session_id then index so the ordering is deterministic.
  std::vector<size_t> neighbors;
  /// Euclidean distance over deciles-binned pruned fingerprints.
  std::vector<double> distances;
};

/// Maps `target_fingerprint` onto the k nearest records by Euclidean
/// distance over deciles-binned pruned metrics (OtterTune §5.2). Decile
/// boundaries and pruning are computed from the *distinct* values of the
/// queried set plus the target, which makes the mapping invariant under
/// record duplication (metamorphic-test contract). Records whose metric
/// dimensionality differs from the target are ignored.
WorkloadMapping MapWorkloadKnn(const std::vector<KnowledgeRecord>& records,
                               const Vec& target_fingerprint, size_t k);

/// Deterministically selects up to `max_configs` warm-start seed
/// configurations from the mapped neighbors: walks neighbors nearest
/// first, taking each one's best-objective trials, deduplicating
/// identical configs, and skipping configs whose dimensionality differs
/// from `dims`.
std::vector<Vec> SelectWarmConfigs(const std::vector<KnowledgeRecord>& records,
                                   const std::vector<size_t>& neighbors,
                                   size_t dims, size_t max_configs);

}  // namespace atune

#endif  // ATUNE_CORE_KNOWLEDGE_REPO_H_
