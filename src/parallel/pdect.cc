#include "parallel/pdect.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>

#include "util/thread_annotations.h"
#include "util/timer.h"

namespace ngd {

namespace {

/// One PDect work unit. Three kinds, discriminated by depth/slice:
///   - seed chunk (depth < 0): candidates [chunk_begin, chunk_end) of the
///     rule's start label among fragment `home`'s OWNED nodes;
///   - forwarded partial match (depth >= 0, no slice): binding expanded
///     through step `depth-1`, shipped to the owner of step `depth`'s
///     anchor;
///   - slice unit (depth >= 0, slice set): same, but scanning only
///     [slice_begin, slice_end) of the anchor adjacency (hybrid split).
/// Units always expand against fragment `home`'s CSR; a thief reads the
/// victim's fragment, paid for by the steal message.
struct PUnit {
  int32_t ngd = -1;
  int32_t home = 0;
  int32_t depth = -1;
  uint32_t chunk_begin = 0;
  uint32_t chunk_end = 0;
  int32_t slice_begin = -1;
  int32_t slice_end = -1;
  bool y_false = false;
  uint32_t y_ready = 0;
  Binding binding;
};

class FragmentDectEngine {
 public:
  FragmentDectEngine(const NgdSet& sigma, const PDectOptions& opts,
                     const FragmentRuntime& rt)
      : sigma_(sigma),
        opts_(opts),
        rt_(rt),
        p_(rt.num_fragments()),
        pool_(p_, &metrics_, opts.enable_steal && p_ > 1,
              opts.max_queue_depth),
        local_(p_) {
    // Streaming results: each worker-local set spills under its own
    // prefix with an equal share of the budget; the merged result set
    // adopts all worker segments and keeps spilling under the main
    // prefix (EnableSpill before the merge in Run()).
    if (opts.spill != nullptr) {
      VioSpillOptions wopts = *opts.spill;
      wopts.budget_bytes = opts.spill->budget_bytes / static_cast<size_t>(p_);
      for (int i = 0; i < p_; ++i) {
        wopts.path_prefix = opts.spill->path_prefix + ".w" + std::to_string(i);
        local_[i].EnableSpill(wopts);
      }
    }
    // Cancellation: every worker polls one shared token so a deadline
    // tripped by any worker (or an external Cancel) stops all of them.
    // When only a deadline is given the engine owns the broadcast token.
    if (opts.cancel != nullptr || opts.deadline.armed()) {
      token_ = opts.cancel != nullptr ? opts.cancel : &owned_token_;
      checks_.reserve(p_);
      for (int i = 0; i < p_; ++i) checks_.emplace_back(token_, opts.deadline);
    }
    pending_ = std::make_unique<std::atomic<uint32_t>[]>(sigma.size());
    for (size_t r = 0; r < sigma.size(); ++r) {
      pending_[r].store(0, std::memory_order_relaxed);
    }
  }

  PDectResult Run(const GraphAccessor& global) {
    metrics_.replicated_nodes.fetch_add(rt_.total_halo_nodes(),
                                        std::memory_order_relaxed);

    // One start node + plan per rule, chosen against the global graph so
    // every fragment agrees (owner-computes seeding needs one well-defined
    // owner per match).
    start_of_.resize(sigma_.size());
    start_label_.resize(sigma_.size());
    plans_.reserve(sigma_.size());
    for (size_t r = 0; r < sigma_.size(); ++r) {
      const Pattern& pattern = sigma_[r].pattern();
      start_of_[r] = ChooseStartNode(pattern, global);
      start_label_[r] = pattern.node(start_of_[r]).label;
      plans_.push_back(BuildMatchPlan(pattern, {start_of_[r]}, &sigma_[r].X(),
                                      &sigma_[r].Y()));
    }

    // Owner-computes seeding: fragment f expands exactly the candidates
    // it owns, in kSeedChunk-sized units (the steal granularity).
    constexpr size_t kSeedChunk = 256;
    for (int f = 0; f < p_; ++f) {
      const FragmentSnapshot& frag = rt_.fragment(f);
      for (size_t r = 0; r < sigma_.size(); ++r) {
        const size_t count = frag.candidates.Count(start_label_[r]);
        for (size_t b = 0; b < count; b += kSeedChunk) {
          PUnit u;
          u.ngd = static_cast<int32_t>(r);
          u.home = f;
          u.chunk_begin = static_cast<uint32_t>(b);
          u.chunk_end =
              static_cast<uint32_t>(std::min(b + kSeedChunk, count));
          pending_[r].fetch_add(1, std::memory_order_relaxed);
          pool_.Seed(f, std::move(u));
        }
      }
    }

    // Each worker hands its local set to the guarded merge list on its
    // own thread as it exits the pool — an explicit critical section the
    // thread-safety analysis can check, instead of an implicit reliance
    // on join-order visibility of local_[i].
    pool_.Run([this](int worker, PUnit& unit) { ProcessUnit(worker, unit); },
              []() {}, token_, [this](int worker) { RetireWorker(worker); });

    PDectResult result;
    // Owner-computes seeding keeps per-worker sets globally disjoint, so
    // the merge is a rehash-free arena concatenation. Enabling spill on
    // the result first keeps the merged set under the caller's prefix and
    // full budget (rather than inheriting worker 0's ".w0" share).
    if (opts_.spill != nullptr) result.vio.EnableSpill(*opts_.spill);
    {
      MutexLock lock(&merge_mu_);
      // Worker completion order is nondeterministic; merging in worker
      // order keeps the result arena layout identical run to run.
      std::sort(finished_.begin(), finished_.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (auto& f : finished_) {
        result.vio.MergeDisjointUnchecked(std::move(f.second));
      }
      finished_.clear();
    }
    result.crossing_edges = rt_.partition().crossing_edges;
    result.fragments = p_;
    result.metrics = SnapshotOf(metrics_);
    // Per-rule completion: a unit retires its pending count only when it
    // was processed to the end, so any unit drained unprocessed by the
    // cancelled pool — or aborted mid-expansion — leaves its rule marked
    // incomplete.
    DetectRunInfo local_info;
    DetectRunInfo* info =
        opts_.run_info != nullptr ? opts_.run_info : &local_info;
    info->StartFull(sigma_.size());
    for (size_t r = 0; r < sigma_.size(); ++r) {
      if (pending_[r].load(std::memory_order_relaxed) != 0) {
        info->rule_completed[r] = 0;
        info->truncated = true;
      }
    }
    result.truncated = info->truncated;
    return result;
  }

 private:
  void ProcessUnit(int worker, PUnit& unit) {
    CancelCheck* check = token_ != nullptr ? &checks_[worker] : nullptr;
    if (check != nullptr && check->ShouldStop()) {
      return;  // dropped: the unit's pending count keeps its rule incomplete
    }
    metrics_.work_units.fetch_add(1, std::memory_order_relaxed);
    const FragmentSnapshot& frag = rt_.fragment(unit.home);
    const GraphAccessor acc(*frag.csr);
    uint64_t halo_scans = 0;
    if (unit.depth < 0) {
      const Ngd& ngd = sigma_[unit.ngd];
      const int start = start_of_[unit.ngd];
      GraphSnapshot::IdRange range =
          frag.candidates.Range(start_label_[unit.ngd]);
      Binding binding(ngd.pattern().NumNodes(), kInvalidNode);
      const uint32_t end =
          std::min(unit.chunk_end, static_cast<uint32_t>(range.size()));
      for (uint32_t i = unit.chunk_begin; i < end; ++i) {
        if (check != nullptr && check->ShouldStop()) break;
        std::fill(binding.begin(), binding.end(), kInvalidNode);
        binding[start] = range.ptr[i];
        bool y_false = false;
        uint32_t y_ready = 0;
        if (!ValidateSeed(unit.ngd, acc, binding, &y_false, &y_ready)) {
          continue;
        }
        Expand(worker, unit.ngd, frag, acc, 0, binding, y_false, y_ready, -1,
               -1, &halo_scans, check);
      }
    } else {
      Expand(worker, unit.ngd, frag, acc, unit.depth, unit.binding,
             unit.y_false, unit.y_ready, unit.slice_begin, unit.slice_end,
             &halo_scans, check);
    }
    if (halo_scans > 0) {
      metrics_.messages.fetch_add(halo_scans, std::memory_order_relaxed);
    }
    if (check == nullptr || !check->Stopped()) {
      // Fully processed (spawned children carry their own pending counts).
      pending_[unit.ngd].fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Seed edges (self-loops on the start node) and seed-ready literals;
  /// the candidate's label is right by FragmentCandidates construction.
  bool ValidateSeed(int r, const GraphAccessor& acc, const Binding& binding,
                    bool* y_false, uint32_t* y_ready) const {
    const Ngd& ngd = sigma_[r];
    const MatchPlan& plan = plans_[r];
    const Pattern& pattern = ngd.pattern();
    for (int ce : plan.seed_check_edges) {
      const PatternEdge& pe = pattern.edge(ce);
      if (!acc.HasEdge(binding[pe.src], binding[pe.dst], pe.label)) {
        return false;
      }
    }
    for (int i : plan.seed_ready_x) {
      if (EvalLiteral(acc, ngd.X()[i], binding) == Truth::kFalse) {
        return false;
      }
    }
    for (int i : plan.seed_ready_y) {
      ++*y_ready;
      if (EvalLiteral(acc, ngd.Y()[i], binding) == Truth::kFalse) {
        *y_false = true;
      }
    }
    if (!*y_false && *y_ready == ngd.Y().size()) return false;
    return true;
  }

  /// Recursive plan walk from step `depth` with in-place binding + undo.
  /// slice_begin >= 0 restricts the entry step's anchor scan (slice
  /// units); deeper steps always scan fully or re-split.
  void Expand(int worker, int r, const FragmentSnapshot& frag,
              const GraphAccessor& acc, int depth, Binding& binding,
              bool y_false, uint32_t y_ready, int64_t slice_begin,
              int64_t slice_end, uint64_t* halo_scans, CancelCheck* check) {
    if (check != nullptr && check->ShouldStop()) return;
    const Ngd& ngd = sigma_[r];
    const MatchPlan& plan = plans_[r];
    if (static_cast<size_t>(depth) == plan.steps.size()) {
      // A full-depth branch has every X literal admitted and Y violated
      // (the all-Y-true case is pruned when the last Y literal binds).
      // Owner-computes seeding plus disjoint slice splits make the
      // per-worker sets globally duplicate-free, so the append skips
      // the hash probe.
      local_[worker].AppendUnchecked(r, binding.data(), binding.size());
      return;
    }
    const Pattern& pattern = ngd.pattern();
    const ExpansionStep& step = plan.steps[depth];
    const PatternEdge& anchor_edge = pattern.edge(step.anchor_edge);
    const NodeId anchor = binding[step.anchor_node];
    const size_t seq_len =
        acc.NeighborSeqLen(anchor, step.anchor_out, anchor_edge.label);
    const bool anchor_owned = frag.Owns(anchor);

    size_t begin = 0;
    size_t end = seq_len;
    if (slice_begin >= 0) {
      begin = static_cast<size_t>(slice_begin);
      end = std::min(static_cast<size_t>(slice_end), seq_len);
    } else if (p_ > 1 && seq_len > 0) {
      // Hybrid cost model (paper §6.3 / §7): sequential |adj| vs
      // C·(k+1) + |adj|/p for k already-matched pattern nodes.
      const double k = static_cast<double>(plan.seeds.size() + depth);
      const double seq_cost = static_cast<double>(seq_len);
      const double par_cost =
          opts_.latency_c * (k + 1.0) + seq_cost / static_cast<double>(p_);
      if (!anchor_owned && opts_.enable_forward &&
          seq_len >= opts_.min_forward_adjacency && par_cost < seq_cost) {
        // Boundary-crossing match: ship the k+1 bound nodes to the
        // anchor's owner, which scans its own (owned) adjacency. Exact:
        // all nodes of any completion are within d_Σ of the anchor, so
        // they lie inside the owner's members ∪ halo.
        PUnit u;
        u.ngd = r;
        u.home = frag.halo_owner[HaloIndexOf(frag, anchor)];
        u.depth = depth;
        u.y_false = y_false;
        u.y_ready = y_ready;
        u.binding = binding;
        pending_[r].fetch_add(1, std::memory_order_relaxed);
        pool_.Forward(worker, u.home, std::move(u));
        return;
      }
      if (opts_.enable_split && seq_len >= opts_.min_split_adjacency &&
          par_cost < seq_cost) {
        // Work-unit splitting: broadcast p slice units of the anchor
        // adjacency (p messages, as in PIncDect).
        metrics_.splits.fetch_add(1, std::memory_order_relaxed);
        metrics_.messages.fetch_add(p_, std::memory_order_relaxed);
        const size_t share = (seq_len + p_ - 1) / p_;
        for (int i = 0; i < p_; ++i) {
          const size_t b = static_cast<size_t>(i) * share;
          if (b >= seq_len) break;
          PUnit s;
          s.ngd = r;
          s.home = frag.fragment_id;
          s.depth = depth;
          s.slice_begin = static_cast<int32_t>(b);
          s.slice_end =
              static_cast<int32_t>(std::min(b + share, seq_len));
          s.y_false = y_false;
          s.y_ready = y_ready;
          s.binding = binding;
          pending_[r].fetch_add(1, std::memory_order_relaxed);
          pool_.Spawn(worker, i, std::move(s));
        }
        return;
      }
    }
    if (!anchor_owned) ++*halo_scans;  // local read of a replica

    const LabelId want_label = pattern.node(step.node).label;
    acc.ForEachNeighborSlice(
        anchor, step.anchor_out, anchor_edge.label, begin, end,
        [&](NodeId cand) {
          // Bounded response even on a hub anchor's long adjacency scan.
          if (check != nullptr && check->ShouldStop()) return false;
          if (!acc.NodeMatchesLabel(cand, want_label)) return true;
          for (int ce : step.check_edges) {
            const PatternEdge& pe = pattern.edge(ce);
            const NodeId s = pe.src == step.node ? cand : binding[pe.src];
            const NodeId d = pe.dst == step.node ? cand : binding[pe.dst];
            if (!acc.HasEdge(s, d, pe.label)) return true;
          }
          binding[step.node] = cand;
          bool child_y_false = y_false;
          uint32_t child_y_ready = y_ready;
          bool prune = false;
          for (int i : step.ready_x) {
            if (EvalLiteral(acc, ngd.X()[i], binding) == Truth::kFalse) {
              prune = true;
              break;
            }
          }
          if (!prune) {
            for (int i : step.ready_y) {
              ++child_y_ready;
              if (EvalLiteral(acc, ngd.Y()[i], binding) == Truth::kFalse) {
                child_y_false = true;
              }
            }
            if (!child_y_false && child_y_ready == ngd.Y().size()) {
              prune = true;
            }
          }
          if (!prune) {
            Expand(worker, r, frag, acc, depth + 1, binding, child_y_false,
                   child_y_ready, -1, -1, halo_scans, check);
          }
          binding[step.node] = kInvalidNode;
          return true;
        });
  }

  /// Index of halo node v in frag.halo (v MUST be a halo node: callers
  /// check !frag.Owns(v), and every non-owned node reachable during
  /// expansion is replicated — see parallel/fragment.h).
  static size_t HaloIndexOf(const FragmentSnapshot& frag, NodeId v) {
    const auto it = std::lower_bound(frag.halo.begin(), frag.halo.end(), v);
    return static_cast<size_t>(it - frag.halo.begin());
  }

  /// Pool-exit handoff: worker `w` moves its finished local set into the
  /// guarded merge list. local_[w] is written only by worker w's thread
  /// (backpressured inline runs execute on the producing worker, so
  /// confinement holds), making the move race-free by construction.
  void RetireWorker(int worker) NGD_EXCLUDES(merge_mu_) {
    MutexLock lock(&merge_mu_);
    finished_.emplace_back(worker, std::move(local_[worker]));
  }

  const NgdSet& sigma_;
  const PDectOptions& opts_;
  const FragmentRuntime& rt_;
  const int p_;
  ClusterMetrics metrics_;
  WorkStealingPool<PUnit> pool_;
  /// Worker-local result sets: slot i is thread-confined to worker i
  /// while the pool runs, then handed off via RetireWorker.
  std::vector<VioSet> local_;
  Mutex merge_mu_;
  std::vector<std::pair<int, VioSet>> finished_ NGD_GUARDED_BY(merge_mu_);
  std::vector<int> start_of_;
  std::vector<LabelId> start_label_;
  std::vector<MatchPlan> plans_;
  /// Cancellation state: null token_ = not cancellable (zero-option runs
  /// never touch the checks). Deadline trips broadcast through the token.
  CancelToken owned_token_;
  CancelToken* token_ = nullptr;
  std::vector<CancelCheck> checks_;  // one per worker
  /// Per-rule outstanding work units; nonzero after the pool drains means
  /// some unit of that rule was dropped or aborted → rule incomplete.
  std::unique_ptr<std::atomic<uint32_t>[]> pending_;
};

}  // namespace

PDectResult PDect(const Graph& g, const NgdSet& sigma,
                  const PDectOptions& opts) {
  // Σ-optimizer wiring: minimize before fragment seeding, so dropped
  // rules never spawn work units. elapsed_seconds of the re-entry covers
  // the parallel detection itself; the (cached, amortized) minimization
  // cost is the caller's setup, as with runtime builds.
  PDectOptions inner;
  MinimizedSigma m;
  if (BeginMinimizedDetection(sigma, g.schema(), opts, &inner, &m)) {
    DetectRunInfo inner_info;
    inner.run_info = &inner_info;
    PDectResult result = PDect(g, m.sigma, inner);
    result.vio = RemapViolations(std::move(result.vio), m.report.kept);
    if (opts.run_info != nullptr) {
      RemapRunInfo(inner_info, m.report, sigma.size(), opts.run_info);
    }
    return result;
  }

  WallTimer timer;
  const int p = std::max(1, opts.num_processors);
  const int d_sigma = sigma.MaxDiameter();

  // Reuse a caller-supplied runtime when it matches; otherwise fragment
  // here (the clock includes it — a cold start really pays it; callers
  // that care pre-build and pass opts.runtime).
  std::optional<FragmentRuntime> owned_rt;
  const FragmentRuntime* rt = opts.runtime;
  if (rt == nullptr || rt->num_fragments() != p || rt->view() != opts.view ||
      rt->halo_hops() < d_sigma) {
    owned_rt.emplace(g, p, opts.view, d_sigma);
    rt = &*owned_rt;
  }

  FragmentDectEngine engine(sigma, opts, *rt);
  PDectResult result = engine.Run(GraphAccessor(g, opts.view));
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ngd
