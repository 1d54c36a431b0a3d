// PDect: parallel batch detection, fragment-native (paper §5.1 / §7,
// extended from the GFD algorithms of Fan-Wu-Xu SIGMOD'16 [24]).
//
// The graph is fragmented across p processors (FragmentRuntime,
// parallel/cluster.h): each fragment holds the induced CSR of its owned
// nodes plus a d_Σ-hop halo of replicated boundary neighbors. Detection
// is owner-computes: every match is seeded exactly once cluster-wide, by
// the fragment that OWNS the candidate bound to the rule's start node
// (FragmentCandidates enumerates owned candidates only). Expansion runs
// against the fragment CSR; because every two nodes of one match are
// within graph distance d_Σ of each other, the halo makes local
// expansion exact (see parallel/fragment.h for the argument).
//
// Boundary-crossing matches are resolved by the paper's §7 hybrid
// policy, per expansion step with a non-owned (halo) anchor:
//   - read the halo adjacency locally — one simulated message per
//     halo-anchored adjacency scan (the replica must be fetched); or
//   - forward the partial match to the anchor's owner when the cost
//     model C·(k+1) + |adj|/p < |adj| says shipping k+1 bound nodes
//     beats shipping the scan — one message, counted in `forwards`.
// Large owned adjacencies split into p slice units under the same cost
// model (work-unit splitting, as in PIncDect), and idle processors steal
// seed chunks across fragments; every stolen or forwarded unit is one
// simulated message (ClusterMetrics, surfaced in PDectResult).

#ifndef NGD_PARALLEL_PDECT_H_
#define NGD_PARALLEL_PDECT_H_

#include "detect/dect.h"
#include "parallel/cluster.h"

namespace ngd {

/// Run controls (RunControl): minimization seeds fragments from the kept
/// rules only; when the token trips or the deadline expires, workers stop
/// expanding and the pool drains the remaining queued units unprocessed
/// (a rule is complete when every one of its work units — seed chunks,
/// forwards, splits — was fully processed); each worker-local set spills
/// under "<path_prefix>.w<i>" with budget_bytes/p, and the merged result
/// keeps spilling under "<path_prefix>".
struct PDectOptions : RunControl {
  int num_processors = 4;
  GraphView view = GraphView::kNew;
  /// Communication-latency constant C of the hybrid cost model (the
  /// paper fixes 60; Fig. 4(m) varies it).
  double latency_c = 60.0;
  /// Halo-anchored expansions never forward below this adjacency length
  /// (SIZE_MAX: never forward to the owner).
  size_t min_forward_adjacency = 8;
  /// Owned adjacencies never split below this length (SIZE_MAX: never
  /// split).
  size_t min_split_adjacency = 64;
  /// Producer backpressure: a worker whose mid-run spawn (split slice,
  /// forward, child unit) targets a queue at or past this depth executes
  /// the unit inline instead of enqueueing it, bounding queue state under
  /// core starvation (ROADMAP item 3's 1-core fig4_il bug). 0 disables
  /// the bound. Initial seeding is exempt (bounded by the seed volume).
  size_t max_queue_depth = 4096;
};

struct PDectResult {
  VioSet vio;
  /// True iff the run was cut short by cancel/deadline and some rule's
  /// enumeration is incomplete (per-rule detail in opts.run_info).
  bool truncated = false;
  double elapsed_seconds = 0.0;
  size_t crossing_edges = 0;  ///< edge-cut of the fragmentation used
  int fragments = 1;          ///< p actually used
  /// Communication / balancing counters. replicated_nodes = Σ_f |halo(f)|
  /// (actual replica volume); messages = halo scans + forwards + steals +
  /// split broadcasts.
  ClusterMetricsSnapshot metrics;
};

PDectResult PDect(const Graph& g, const NgdSet& sigma,
                  const PDectOptions& opts);

}  // namespace ngd

#endif  // NGD_PARALLEL_PDECT_H_
