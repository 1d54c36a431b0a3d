// PIncDect: parallel incremental detection, parallel scalable relative to
// IncDect (paper §6.3, Theorem 6).
//
// Pipeline (mirroring Fig. 3):
//   1. Enumerate update pivots (same PivotTask machinery as IncDect).
//   2. Scope each work unit by the candidate neighborhood N_C(ΔG, Σ),
//      exactly as IncDect scopes a pivot task: a rule's units only bind
//      nodes inside its AffectedArea ball (the d_Q-ball around ΔG's
//      endpoints over both views), and run unscoped when that ball
//      saturated its budget or the prefilter is off. N_C is "replicated"
//      at all p processors (simulated: no ball is copied; the volume —
//      the largest rule ball, |V| once any saturates — is metered).
//   3. Partition the initial pivots evenly into per-processor workloads
//      BVio_i. Adjacency lists are logically partitioned: a split work
//      unit carries the slice [begin, end) of the anchor's adjacency that
//      the receiving processor owns (its partial copy v.adj_i).
//   4. Each processor expands partial solutions: candidate filtering with
//      the HYBRID cost model — expand locally when
//          |adj| <= C·(k+1) + |adj|/p
//      and otherwise broadcast p slice units (work-unit splitting).
//      Verification of the remaining pattern edges is a point lookup here
//      (the live graph's hash edge index, or a binary search of the base
//      CSR's sorted label range on the DeltaView backend), so it is never
//      worth splitting — a documented deviation from the paper, whose
//      verification scans adjacency lists.
//   5. A balancer thread wakes every `intvl` ms, computes the skewness
//      ||BVio_i|| / avg ||BVio_t||, and moves work from processors above
//      η (= 3) to processors below η' (= 0.7).
//
// Ablation variants (Fig 4): PIncDect_ns (no split), PIncDect_nb (no
// balance), PIncDect_NO (neither) are the same engine with flags off.

#ifndef NGD_PARALLEL_PINC_DECT_H_
#define NGD_PARALLEL_PINC_DECT_H_

#include "detect/inc_dect.h"
#include "parallel/cluster.h"
#include "parallel/work_unit.h"

namespace ngd {

/// Run controls (RunControl): minimization enumerates pivots, builds the
/// per-rule scopes and partitions workloads over the kept rules only; a
/// tripped token or expired deadline stops the workers and drains the
/// queues (a rule is complete only when every one of its pivot work
/// units, including splits and spawned children, finished); worker-local
/// ΔVio sets spill under "<path_prefix>.add.w<i>" / "<path_prefix>.rem.w<i>"
/// with budget_bytes/p each, and the merged delta keeps spilling under
/// "<path_prefix>.add" / "<path_prefix>.rem".
struct PIncDectOptions : RunControl {
  int num_processors = 4;
  /// Backend selection, exactly as IncDectOptions: kNever = live overlay
  /// graph (the oracle/baseline), kAlways = DeltaView over the base
  /// snapshot, kAuto = cost model (or an already-provided base_snapshot).
  SnapshotMode snapshot_mode = SnapshotMode::kAuto;
  /// Optional pre-built snapshot of the base graph G (GraphView::kOld),
  /// shared read-only by all simulated processors and reused across
  /// batches by callers that maintain one per commit epoch.
  const GraphSnapshot* base_snapshot = nullptr;
  /// AffectedArea prefilter + per-rule work-unit scope, as
  /// IncDectOptions. Off: every unit runs unscoped (|N_C| = |V|).
  bool affected_area_prefilter = true;
  /// Communication-latency constant C of the cost model (paper fixes 60).
  double latency_c = 60.0;
  /// Balancer wake-up interval in milliseconds (paper: 45 s at cluster
  /// scale; milliseconds at this scale — DESIGN.md §3).
  int balance_interval_ms = 45;
  bool enable_split = true;    ///< off = PIncDect_ns
  bool enable_balance = true;  ///< off = PIncDect_nb
  /// Adjacency lists shorter than this never split (guard against
  /// degenerate splits of tiny lists).
  size_t min_split_adjacency = 8;
  /// Optional fragment runtime (parallel/cluster.h): when set and built
  /// with num_fragments == num_processors, each pivot's initial work unit
  /// is placed on the processor owning the pivot's source node —
  /// fragment-affine placement instead of round-robin. Placement only
  /// picks a start queue: every processor reads the whole shared graph
  /// (N_C is simulated as replicated), so any processor can run any unit.
  const FragmentRuntime* runtime = nullptr;
  /// Producer backpressure (see PDectOptions::max_queue_depth): mid-run
  /// split broadcasts and child spawns targeting a queue at or past this
  /// depth execute inline on the producing worker. 0 disables; initial
  /// pivot seeding is exempt.
  size_t max_queue_depth = 4096;
};

struct PIncDectResult {
  DeltaVio delta;
  /// True iff the run was cut short and some rule's ΔVio is incomplete.
  bool truncated = false;
  double elapsed_seconds = 0.0;
  /// |N_C|: the largest rule's affected-area ball, or |V| when some rule
  /// runs unscoped. replicated_nodes = |N_C| · (p − 1).
  size_t candidate_neighborhood_nodes = 0;
  uint64_t messages = 0;
  uint64_t replicated_nodes = 0;
  uint64_t work_units = 0;
  uint64_t splits = 0;
  uint64_t balance_moves = 0;
};

/// Computes ΔVio(Σ, G, ΔG) with p simulated processors. `g` must carry ΔG
/// as its pending overlay.
StatusOr<PIncDectResult> PIncDect(const Graph& g, const NgdSet& sigma,
                                  const UpdateBatch& batch,
                                  const PIncDectOptions& opts);

}  // namespace ngd

#endif  // NGD_PARALLEL_PINC_DECT_H_
