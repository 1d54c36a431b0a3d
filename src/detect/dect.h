// Batch error detection with NGDs (paper §5.1).
//
// Dect computes Vio(Σ, G) by full homomorphism enumeration per NGD — the
// sequential baseline extended from the GFD batch algorithm of [24].
// Validation (G |= Σ?) is the coNP decision version: an NP witness search
// that stops at the first violation.
//
// Both entry points can build one CSR GraphSnapshot of the requested
// view per call and amortize it across every rule in Σ
// (label-partitioned adjacency makes the Matchn expansion memory-lean;
// see graph/snapshot.h). The default SnapshotMode::kAuto decides by a
// cost model: the O(|E|) build only pays off when the live engine would
// stream a multiple of the adjacency, so selective rule sets on small
// graphs keep the live engine. kNever selects the pre-snapshot
// live-graph engine unconditionally — kept as the equivalence-test
// oracle and the benchmark baseline; kAlways forces the snapshot.

#ifndef NGD_DETECT_DECT_H_
#define NGD_DETECT_DECT_H_

#include <optional>
#include <vector>

#include "detect/violation.h"
#include "match/homomorphism.h"
#include "reason/sigma_optimizer.h"
#include "util/cancel.h"

namespace ngd {

enum class SnapshotMode : uint8_t {
  kAuto = 0,  ///< cost model decides (WantSnapshot)
  kAlways,    ///< always build + match against the CSR snapshot
  kNever,     ///< always match against the live overlay graph
};

/// Honest-partial-result report of one detection run (all engines). When
/// a run is cancelled or hits its deadline it returns the violations
/// found so far with `truncated` set; `rule_completed[f]` says whether
/// rule f's enumeration finished, i.e. whether its reported violations
/// are the complete set for that rule. An untruncated run marks every
/// rule completed. Under Σ-minimization the marks are remapped to the
/// caller's catalog through the implication cover: a dropped (implied)
/// rule counts completed exactly when every rule that (transitively)
/// implied it finished enumerating (see RemapRunInfo).
struct DetectRunInfo {
  bool truncated = false;
  std::vector<char> rule_completed;  // indexed by the caller's Σ

  void StartFull(size_t num_rules) {
    truncated = false;
    rule_completed.assign(num_rules, 1);
  }
};

/// The run controls every detection engine (Dect, IncDect, PDect,
/// PIncDect) accepts. Each engine's options struct derives from this, so
/// the fields keep their names (`opts.spill`, `opts.deadline`, ...) and
/// mean the same thing everywhere; engine-specific refinements are noted
/// on the derived struct.
struct RunControl {
  /// Σ-optimizer (reason/sigma_optimizer.h): kNever runs Σ verbatim (the
  /// default and the equivalence oracle); kAlways/kAuto detect against the
  /// implication-minimized rule set — dropped rules spawn no work — and
  /// remap violation indices back to Σ. Kept-rule violations are preserved
  /// exactly; dropped (implied) rules report none — any graph violating
  /// them also violates a kept rule.
  MinimizeMode minimize_sigma = MinimizeMode::kNever;
  SigmaOptimizerOptions sigma_optimizer = {};
  /// Graceful degradation: an externally cancellable run and/or a time
  /// budget. When either trips mid-sweep the engine stops expanding,
  /// returns the violations found so far, and reports the partial-result
  /// shape through `run_info`: a rule is complete when every one of its
  /// units of work finished. The process never aborts.
  CancelToken* cancel = nullptr;
  Deadline deadline = {};
  /// Optional out-param (must outlive the call): filled on every run,
  /// truncated or not. Engines re-entering under Σ-minimization remap it.
  DetectRunInfo* run_info = nullptr;
  /// Streaming results: when set, the result spills sorted checksummed
  /// segments under spill->path_prefix past spill->budget_bytes instead
  /// of holding everything resident; read it back with VioSet::OpenCursor
  /// (the checked/whole-set surface is then off limits — see
  /// detect/vio_stream.h).
  const VioSpillOptions* spill = nullptr;
};

struct DectOptions : RunControl {
  GraphView view = GraphView::kNew;
  /// Safety valve for adversarial rule sets: stop collecting per NGD after
  /// this many violations (0 = unlimited).
  size_t max_violations_per_ngd = 0;
  SnapshotMode snapshot_mode = SnapshotMode::kAuto;
  /// Pre-built CSR snapshot to match against — e.g. loaded from a binary
  /// snapshot file (graph/snapshot_io.h) or reused across calls. Must
  /// describe `view` of `g`. When set it overrides snapshot_mode: the
  /// engine skips its own build and never falls back to the live graph.
  const GraphSnapshot* snapshot = nullptr;
};

/// Shared engine boilerplate: resolves the RunControl's Σ-minimization
/// and — when detection should run the minimized set — fills *inner with
/// a copy of `opts` whose mode is cleared, so the engine can re-enter
/// itself once and apply its type-specific remap. Keeping this in ONE
/// place means a change to the resolve contract cannot drift across the
/// engines.
template <typename Options>
bool BeginMinimizedDetection(const NgdSet& sigma, const SchemaPtr& schema,
                             const Options& opts, Options* inner,
                             MinimizedSigma* minimized) {
  const RunControl& run = opts;
  if (run.minimize_sigma == MinimizeMode::kNever) return false;
  if (!ResolveMinimizedSigma(sigma, schema, run.minimize_sigma,
                             run.sigma_optimizer, minimized)) {
    return false;
  }
  *inner = opts;
  inner->minimize_sigma = MinimizeMode::kNever;
  return true;
}

/// Remaps a DetectRunInfo produced against a minimized Σ back to the
/// caller's catalog: kept rules copy their marks; a dropped (implied)
/// rule is complete iff every rule on its implication cover
/// (OptimizeReport::implied_by, followed transitively to kept rules)
/// completed — its violations are covered by exactly those rules, so a
/// truncation elsewhere in the sweep does not poison its mark. Reports
/// without a recorded cover (e.g. served from a pre-upgrade cache entry)
/// fall back to the conservative whole-run mark.
void RemapRunInfo(const DetectRunInfo& inner, const OptimizeReport& report,
                  size_t original_rules, DetectRunInfo* out);

/// The kAuto cost model, evaluated on `view` — the view detection will
/// actually match (a pending-heavy overlay graph must not be judged by the
/// other view's edges): build the snapshot when the seed-candidate volume
/// of Σ (the adjacency the live engine would stream) reaches 8|V|, enough
/// to amortize the O(|E|) build within this one call.
bool WantSnapshot(const Graph& g, const NgdSet& sigma,
                  GraphView view = GraphView::kNew);

/// Resolves a SnapshotMode to a concrete build-the-snapshot decision
/// (kAuto defers to WantSnapshot on `view`). Shared by Dect,
/// FindAnyViolation and PDect so all engines make the same choice for the
/// same options.
bool ResolveSnapshot(const Graph& g, const NgdSet& sigma, SnapshotMode mode,
                     GraphView view = GraphView::kNew);

/// Vio(Σ, G): all violations of all NGDs in Σ.
VioSet Dect(const Graph& g, const NgdSet& sigma, const DectOptions& opts = {});

/// First violation found, or nullopt if G |= Σ (early exit). Honors
/// opts.snapshot_mode (kNever skips the snapshot build callers who expect
/// an early witness would waste) and opts.minimize_sigma — minimization
/// preserves emptiness exactly, which makes it a pure win for validation:
/// the full sweep over a clean graph shrinks to the kept rules.
std::optional<Violation> FindAnyViolation(const Graph& g, const NgdSet& sigma,
                                          const DectOptions& opts);

inline std::optional<Violation> FindAnyViolation(
    const Graph& g, const NgdSet& sigma, GraphView view = GraphView::kNew,
    SnapshotMode mode = SnapshotMode::kAuto) {
  DectOptions opts;
  opts.view = view;
  opts.snapshot_mode = mode;
  return FindAnyViolation(g, sigma, opts);
}

/// The validation problem: G |= Σ.
inline bool Validate(const Graph& g, const NgdSet& sigma,
                     GraphView view = GraphView::kNew,
                     SnapshotMode mode = SnapshotMode::kAuto) {
  return !FindAnyViolation(g, sigma, view, mode).has_value();
}

}  // namespace ngd

#endif  // NGD_DETECT_DECT_H_
