// The one place the benchmark calls into the ngd library (src/).
//
// The harness holds library types (ngd::VioSet, ngd::NgdSet, ...) and
// reads their accessors, but every library operation it times — load,
// parse, detect, apply, journal, commit — is a function below, which
// builds the engine's option struct and makes the call. An API reshape
// (say, folding the engines' cancel/deadline/run_info/spill fields into
// one run-control struct) thus edits this file and adapter.cc only.
// Every function maps onto one layer call, which is the granularity the
// harness times and traces.
//
// Errors come back as text: an empty string means OK.

#ifndef PERFBENCH_ADAPTER_H_
#define PERFBENCH_ADAPTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/ngd.h"
#include "detect/violation.h"
#include "graph/graph.h"
#include "graph/snapshot.h"
#include "graph/update_log.h"
#include "graph/updates.h"
#include "parallel/partitioner.h"
#include "parallel/pdect.h"
#include "parallel/pinc_dect.h"
#include "util/status.h"

namespace perfbench {

using Error = std::string;

/// The status as an Error: empty when OK.
Error Text(const ngd::Status& s);

/// Digest of a violation stream. `stream` hashes the records in cursor
/// order (two streams are identical iff count and stream agree, up to
/// hash collisions); `sum` adds one mixed hash per record, so set algebra
/// over disjoint sets carries over: sum(A − R + D) = sum(A) − sum(R) +
/// sum(D) modulo 2^64.
struct VioDigest {
  uint64_t count = 0;
  uint64_t stream = 0;
  uint64_t sum = 0;

  bool SameStream(const VioDigest& o) const {
    return count == o.count && stream == o.stream;
  }
  bool SameSet(const VioDigest& o) const {
    return count == o.count && sum == o.sum;
  }
  /// This set minus `removed` plus `added` (both given as digests).
  VioDigest Then(const VioDigest& removed, const VioDigest& added) const {
    VioDigest d;
    d.count = count - removed.count + added.count;
    d.sum = sum - removed.sum + added.sum;
    return d;
  }
};

struct GraphShape {
  size_t nodes = 0;
  size_t edges = 0;
};

// ---- Input generation (never timed) --------------------------------------

/// A generators.h synthetic graph (SyntheticConfig with the overrides
/// below), written both as an NGDSNAP1 snapshot and as TSV.
struct SyntheticSpec {
  size_t nodes = 0;
  size_t edges = 0;
  double pref_attach = 0.0;
  size_t node_labels = 0;
  size_t edge_labels = 0;
  uint64_t seed = 0;
};
Error GenerateSynthetic(const SyntheticSpec& spec, const std::string& snap_path,
                        const std::string& tsv_path, GraphShape* shape);

/// `hubs` hub nodes, each observing `readings` integer readings (random
/// values from `seed`), written both as TSV and as NGDSNAP1.
struct FloodSpec {
  int hubs = 0;
  int readings = 0;
  uint64_t seed = 0;
};
Error GenerateFlood(const FloodSpec& spec, const std::string& snap_path,
                    const std::string& tsv_path, GraphShape* shape);

/// Parses `base_path`, appends InflateWithImpliedVariants variants and
/// writes the catalog as rule-DSL text to `out_path`. The written file is
/// checked to parse back to the same catalog fingerprint.
struct InflateSpec {
  size_t variants_per_rule = 0;
  double duplicate_fraction = 0.0;
  uint64_t seed = 0;
};
Error InflateCatalog(const std::string& base_path, const InflateSpec& spec,
                     const std::string& out_path, size_t* rules);

// ---- Graph and rules -------------------------------------------------------

/// A loaded graph: schema, live overlay graph, and the committed CSR
/// snapshot (loaded, or built by BuildBase).
struct LoadedGraph {
  ngd::SchemaPtr schema;
  std::unique_ptr<ngd::Graph> graph;
  std::unique_ptr<ngd::GraphSnapshot> base;
};

/// |V| and |E| of the live graph (|V| of the snapshot before Materialize).
GraphShape Shape(const LoadedGraph& g);
/// LoadSnapshotFile into a fresh schema; `g` holds the snapshot only.
Error LoadSnapshot(const std::string& path, LoadedGraph* g);
/// MaterializeGraph: the live overlay graph from the loaded snapshot.
Error Materialize(LoadedGraph* g);
/// LoadGraphFile (ParseGraphText) at `threads` parser threads.
Error ParseTsv(const std::string& path, int threads, LoadedGraph* g);
/// (Re)builds the committed snapshot of the live graph (GraphView::kNew).
void BuildBase(LoadedGraph* g);

/// Reads the rule file and parses it into g's schema.
Error ParseRules(const std::string& path, const LoadedGraph& g,
                 ngd::NgdSet* rules);

/// The Σ-optimizer report of one resolve call.
struct MinimizeReport {
  bool minimized = false;
  size_t kept = 0;
  size_t dropped = 0;
  size_t implication_checks = 0;
  size_t unknown = 0;
};
/// Empties the process-wide kept-set cache, so the next resolve solves.
void ClearMinimizeCache();
/// ResolveMinimizedSigma with MinimizeMode::kAuto — what the epoch
/// engines run with. Fills the cache the engines then hit.
MinimizeReport ResolveMinimizeAuto(const ngd::NgdSet& rules,
                                   const LoadedGraph& g);

// ---- Batch detection -------------------------------------------------------

struct DectConfig {
  /// Match against the committed snapshot of `g` (DectOptions::snapshot)
  /// instead of letting the engine decide.
  bool use_base = false;
  /// The live-graph engine (SnapshotMode::kNever) — the oracle.
  bool live_engine = false;
  /// MinimizeMode::kAuto instead of running Σ verbatim.
  bool minimize_auto = false;
  /// Null: everything stays resident.
  const ngd::VioSpillOptions* spill = nullptr;
};
/// Dect over the live graph's kNew view.
ngd::VioSet Dect(const LoadedGraph& g, const ngd::NgdSet& rules,
                 const DectConfig& cfg);

/// PDect at p processors with no prebuilt runtime or snapshot: the
/// engine partitions and builds its own fragments.
ngd::PDectResult PDect(const LoadedGraph& g, const ngd::NgdSet& rules, int p,
                       const ngd::VioSpillOptions* spill);

/// OpenCursor and read to the last record, digesting the stream.
Error Drain(const ngd::VioSet& vio, VioDigest* digest);

// ---- Layer probes (traced run only) -------------------------------------

/// RunBatchSearch with find_violations = false over the committed
/// snapshot, per rule: the number of pattern matches of each rule.
std::vector<uint64_t> CountMatches(const LoadedGraph& g,
                                   const ngd::NgdSet& rules);

/// PartitionGraph of the live graph's kNew view into p fragments.
ngd::Partition PartitionGraph(const LoadedGraph& g, int p);
/// FragmentRuntime over `part` with halos of the catalog's max pattern
/// diameter; returns Σ_f |halo(f)|.
uint64_t BuildFragments(const LoadedGraph& g, const ngd::Partition& part,
                        const ngd::NgdSet& rules);

// ---- Epochs ----------------------------------------------------------------

struct Batch {
  ngd::UpdateBatch updates;
  /// The first node id the batch introduced (the journal records them).
  ngd::NodeId first_new_node = 0;
};

struct BatchSpec {
  double fraction = 0.0;  ///< |ΔG| as a fraction of |E|
  double insert_fraction = 0.5;
  double new_node_prob = 0.0;
  uint64_t seed = 0;
};
/// GenerateUpdateBatch. Nodes the batch introduces are added to `g` here.
Batch GenerateBatch(LoadedGraph* g, const BatchSpec& spec);
/// ApplyUpdateBatch: the batch becomes g's pending overlay.
Error ApplyBatch(LoadedGraph* g, Batch* batch);

/// UpdateLog::Create at base epoch 0.
Error CreateJournal(const std::string& path,
                    std::unique_ptr<ngd::UpdateLog>* journal);
/// EpochRecord::Capture + Append + Sync of the applied batch.
Error JournalEpoch(const LoadedGraph& g, const Batch& batch,
                   ngd::UpdateLog* journal);

/// IncDect on g's pending overlay, base = the committed snapshot,
/// MinimizeMode::kAuto.
Error IncDect(const LoadedGraph& g, const ngd::NgdSet& rules,
              const Batch& batch, ngd::DeltaVio* delta);
/// PIncDect at p processors with the same inputs.
Error PIncDect(const LoadedGraph& g, const ngd::NgdSet& rules,
               const Batch& batch, int p, ngd::PIncDectResult* result);
Error DigestDelta(const ngd::DeltaVio& delta, VioDigest* added,
                  VioDigest* removed);
/// Graph::Commit: folds the pending overlay.
void Commit(LoadedGraph* g);

/// A DeltaView over the committed snapshot and the pending batch, built
/// from outside the engines; returns its delta-entry count.
size_t BuildDeltaView(const LoadedGraph& g, const Batch& batch);
/// EnumeratePivotTasks over an UpdateIndex of the pending batch.
size_t CountPivotTasks(const LoadedGraph& g, const ngd::NgdSet& rules,
                       const Batch& batch);

// ---- Faults ----------------------------------------------------------------

/// Arms the library's failpoints from NGD_FAILPOINTS; true if any armed.
bool ArmFaultsFromEnv();

}  // namespace perfbench

#endif  // PERFBENCH_ADAPTER_H_
