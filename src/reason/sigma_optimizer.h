// Σ-optimizer: implication-driven rule-set minimization (paper §4 made
// load-bearing for detection).
//
// Heavy rule catalogs accumulate redundancy — weakened copies of a rule,
// exact duplicates from merged sources, consequences of rule pairs. Every
// redundant φ costs a full homomorphism sweep in Dect/PDect and spawns
// pivot tasks in IncDect/PIncDect, yet changes nothing about which graphs
// are clean: if Σ∖{φ} |= φ, any violation of φ is accompanied by a
// violation of some kept rule. MinimizeSigma computes a GREEDY IMPLICATION
// COVER: scan Σ in index order and drop φ whenever CheckImplication finds
// the remaining alive rules imply it, under a per-rule solver budget.
//
// Soundness: a rule is dropped only on an exact kYes (budget exhaustion
// keeps it), and implication is monotone in Σ, so by reverse induction on
// drop order the final kept set implies every dropped rule. Detection on
// the minimized set therefore preserves (a) graph cleanliness
// (FindAnyViolation(G, Σ) empty ⟺ empty on Minimize(Σ)) and (b) the
// violations of every kept rule, exactly. kYes carries the same
// canonical-model-family caveat as the implication checker itself
// (satisfiability.h); the randomized differential harness
// (tests/sigma_optimizer_test.cc) locks the end-to-end equivalence down
// against all four detection engines.
//
// Cost control: the Σᵖ₂-flavoured solver only runs on PLAUSIBLE pairs.
//   - exact structural duplicates are dropped with no solver call at all;
//   - a structural pre-filter keeps, per candidate φ, only helper rules
//     whose pattern can embed into φ's canonical pattern graph (per-edge
//     label compatibility, wildcards one-sided: a helper wildcard matches
//     anything, a helper constant never matches φ's wildcard nodes — those
//     become fresh labels in the canonical model) and whose literals share
//     an attribute with φ's;
//   - helpers are ranked same-bucket-first (pattern-isomorphism-modulo-
//     constants bucketing over a shape key with literal constants wiped)
//     and capped, bounding the obligation blow-up per check.
// Restricting helpers is sound: implication is monotone, so a kYes from a
// subset is a kYes from Σ∖{φ}; the pre-filter can only miss drops.
//
// Engines consume the optimizer through the tri-state `minimize_sigma`
// in DectOptions/IncDectOptions/PDectOptions/PIncDectOptions:
//   kNever  — detection runs Σ verbatim (the default and the oracle);
//   kAlways — minimize, run the kept rules, remap indices back to Σ;
//   kAuto   — minimize only when |Σ| ≥ auto_min_rules; below the
//             threshold the call does nothing at all (no serialization,
//             no cache probe — small catalogs are the per-call hot
//             path), at or above it the kept-set cache makes repeat
//             calls pay a serialization and a lookup only.
// The cache keys on a schema-independent structural serialization of Σ
// (label/attr NAMES, not interned ids), so production callers that detect
// per request against a stable catalog pay the solver once per catalog
// version and reuse the kept-set thereafter.

#ifndef NGD_REASON_SIGMA_OPTIMIZER_H_
#define NGD_REASON_SIGMA_OPTIMIZER_H_

#include <string>
#include <vector>

#include "core/ngd.h"
#include "detect/violation.h"
#include "reason/implication.h"

namespace ngd {

/// When detection engines minimize Σ before running.
enum class MinimizeMode : uint8_t {
  kNever = 0,  ///< run Σ verbatim (default; the equivalence oracle)
  kAlways,     ///< always minimize (first call pays, cache reuses)
  kAuto,       ///< minimize when |Σ| ≥ auto_min_rules (cache reused there)
};

struct SigmaOptimizerOptions {
  /// Per-rule solver budget for each implication check. Deliberately far
  /// below the ReasonOptions defaults: one stubborn pair must not stall a
  /// detection call, and kUnknown just keeps the rule.
  ReasonOptions reason = {{/*domain_bound=*/1000000,
                           /*max_branch_nodes=*/2000},
                          /*max_branches=*/4000,
                          /*max_obligations=*/64};
  /// Cap on helper rules passed to one implication check (obligations grow
  /// with every helper's matches on the canonical model).
  size_t max_helpers = 6;
  /// kAuto threshold on |Σ|.
  size_t auto_min_rules = 12;
  /// Consult / fill the process-wide fingerprint cache (ResolveMinimizedSigma).
  bool use_cache = true;
};

struct OptimizeReport {
  /// Original Σ indices of kept rules, ascending. Detection remaps the
  /// minimized set's rule indices through this table.
  std::vector<int> kept;
  /// Original Σ indices of dropped (implied) rules, ascending.
  std::vector<int> dropped;
  /// The implication cover, indexed by ORIGINAL Σ index: for each dropped
  /// rule d, implied_by[d] lists the original indices of the rules whose
  /// conjunction implied it (the single earlier copy for a duplicate
  /// drop; the helper set that produced the solver's kYes otherwise).
  /// Kept rules have empty lists. Edges always point to rules alive at
  /// drop time, so following them transitively from any dropped rule
  /// terminates in kept rules (a DAG ordered by drop order). Empty
  /// when the report came from a cache entry predating this field.
  /// RemapRunInfo walks it to propagate per-rule completion honestly.
  std::vector<std::vector<int>> implied_by;
  /// Implication checks that exhausted the budget (rule kept — an
  /// honest kUnknown is never treated as implied).
  size_t unknown = 0;
  /// Exact-duplicate drops (no solver run).
  size_t duplicate_drops = 0;
  /// Solver-backed implication checks actually run.
  size_t implication_checks = 0;
  /// Candidates resolved by the structural pre-filter alone (no helper
  /// survived, rule kept without a solver call).
  size_t prefilter_skips = 0;
  /// Wall-clock spent inside CheckImplication.
  double solver_seconds = 0.0;
  /// True when ResolveMinimizedSigma served the kept-set from the cache.
  bool from_cache = false;
};

struct MinimizedSigma {
  NgdSet sigma;  ///< the kept rules, in original relative order
  OptimizeReport report;
};

/// Computes the greedy implication cover of `sigma`. Always runs the
/// optimizer (no cache); engines go through ResolveMinimizedSigma instead.
/// Rules that fail Validate() are kept unconditionally.
MinimizedSigma MinimizeSigma(const NgdSet& sigma, const SchemaPtr& schema,
                             const SigmaOptimizerOptions& opts = {});

/// 64-bit digest of Σ's schema-independent structural serialization
/// (label/attr names, shapes, constants — not interned ids and not rule
/// names). Equal serializations ⟹ equal fingerprints ⟹ detection-
/// equivalent rule sets. The kept-set cache keys on the full
/// serialization (collision-free); this digest is the compact identity
/// for logs, reports and tests.
uint64_t FingerprintSigma(const NgdSet& sigma, const SchemaPtr& schema);

/// Engine entry point: resolves a MinimizeMode against |Σ| and the
/// process-wide cache. Returns true and fills *out when detection should
/// run the minimized set (something was actually dropped); false when Σ
/// should run verbatim (mode kNever, kAuto below threshold — which skips
/// even the cache probe — invalid Σ, or nothing droppable; the no-op
/// case skips the copy).
bool ResolveMinimizedSigma(const NgdSet& sigma, const SchemaPtr& schema,
                           MinimizeMode mode,
                           const SigmaOptimizerOptions& opts,
                           MinimizedSigma* out);

/// Test hook: drops every cached kept-set.
void ClearSigmaOptimizerCache();

/// Remaps rule indices of violations found against a minimized Σ back to
/// the original catalog via OptimizeReport::kept.
VioSet RemapViolations(VioSet vio, const std::vector<int>& kept);
DeltaVio RemapDelta(DeltaVio delta, const std::vector<int>& kept);

}  // namespace ngd

#endif  // NGD_REASON_SIGMA_OPTIMIZER_H_
