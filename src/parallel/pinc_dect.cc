#include "parallel/pinc_dect.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "graph/neighborhood.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace ngd {

namespace {

class PIncDectEngine {
 public:
  PIncDectEngine(const Graph& g, const NgdSet& sigma,
                 const UpdateBatch& batch, const PIncDectOptions& opts)
      : g_(g),
        sigma_(sigma),
        batch_(batch),
        opts_(opts),
        p_(std::max(1, opts.num_processors)),
        index_(g, batch),
        pool_(p_, &metrics_, /*enable_steal=*/false, opts.max_queue_depth),
        local_added_(p_),
        local_removed_(p_) {
    // Streaming results: each worker-local delta half spills under its
    // own prefix with an equal share of the budget; the merged delta
    // adopts the segments under ".add"/".rem" (see Run()).
    if (opts.spill != nullptr) {
      VioSpillOptions wopts = *opts.spill;
      wopts.budget_bytes = opts.spill->budget_bytes / static_cast<size_t>(p_);
      for (int i = 0; i < p_; ++i) {
        wopts.path_prefix =
            opts.spill->path_prefix + ".add.w" + std::to_string(i);
        local_added_[i].EnableSpill(wopts);
        wopts.path_prefix =
            opts.spill->path_prefix + ".rem.w" + std::to_string(i);
        local_removed_[i].EnableSpill(wopts);
      }
    }
    // Cancellation: one shared broadcast token (engine-owned when only a
    // deadline is given), one CancelCheck per worker.
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

  StatusOr<PIncDectResult> Run() {
    NGD_RETURN_IF_ERROR(ValidateForIncremental(sigma_));
    WallTimer timer;

    // Step 1: pivots, prefiltered by the per-rule affected area (rules
    // whose d_Q-ball cannot supply every pattern-node label spawn no
    // work units at all).
    std::vector<PivotTask> tasks = EnumeratePivotTasks(g_, sigma_, index_);
    if (opts_.affected_area_prefilter) {
      area_.emplace(g_, sigma_, index_);
      tasks.erase(std::remove_if(tasks.begin(), tasks.end(),
                                 [&](const PivotTask& t) {
                                   return !area_->RuleCanMatch(t.ngd_index);
                                 }),
                  tasks.end());
    }

    // Backend: the same resolution as IncDect. The base snapshot (and
    // the DeltaView over it) is immutable, so all p processors share it
    // read-only — it counts as replicated state, like N_C below.
    if (ResolveDeltaView(g_, index_, tasks, opts_.snapshot_mode,
                         opts_.base_snapshot != nullptr)) {
      const GraphSnapshot* base = opts_.base_snapshot;
      if (base == nullptr) {
        owned_base_.emplace(g_, GraphView::kOld);
        base = &*owned_base_;
      }
      dv_.emplace(*base, g_, batch_);
      acc_old_ = GraphAccessor(*dv_, GraphView::kOld);
      acc_new_ = GraphAccessor(*dv_, GraphView::kNew);
    } else {
      acc_old_ = GraphAccessor(g_, GraphView::kOld);
      acc_new_ = GraphAccessor(g_, GraphView::kNew);
    }

    // Step 2: candidate neighborhood N_C(ΔG, Σ), replicated at all
    // processors. A unit is scoped as IncDect scopes a pivot task: by its
    // rule's affected-area ball, unscoped when that ball saturated or the
    // prefilter is off. |N_C| is the largest scope (|V| if any unscoped).
    size_t nc_size = area_.has_value() ? 0 : g_.NumNodes();
    for (size_t r = 0; area_.has_value() && r < sigma_.size(); ++r) {
      const NodeSet* scope = area_->ScopeOf(static_cast<int>(r));
      nc_size = scope == nullptr ? g_.NumNodes()
                                 : std::max(nc_size, scope->size());
    }
    metrics_.replicated_nodes +=
        static_cast<uint64_t>(nc_size) * (p_ > 1 ? p_ - 1 : 0);
    metrics_.messages += p_ > 1 ? p_ : 0;  // one broadcast round

    // Plans per (NGD, pattern edge).
    for (const PivotTask& t : tasks) {
      int64_t key = PlanKey(t.ngd_index, t.pattern_edge);
      if (plans_.count(key) > 0) continue;
      const Ngd& ngd = sigma_[t.ngd_index];
      const PatternEdge& pe = ngd.pattern().edge(t.pattern_edge);
      std::vector<int> plan_seeds{pe.src};
      if (pe.dst != pe.src) plan_seeds.push_back(pe.dst);
      plans_.emplace(key, BuildMatchPlan(ngd.pattern(), std::move(plan_seeds),
                                         &ngd.X(), &ngd.Y()));
    }

    // Step 3: partition the pivots across BVio_i — fragment-affine when a
    // matching runtime is supplied (the unit starts where its pivot's
    // source lives), round-robin otherwise. Both are free initial
    // placements (seeds are born, not sent).
    {
      const FragmentRuntime* rt =
          opts_.runtime != nullptr && opts_.runtime->num_fragments() == p_
              ? opts_.runtime
              : nullptr;
      size_t i = 0;
      for (const PivotTask& t : tasks) {
        const Ngd& ngd = sigma_[t.ngd_index];
        const EffectiveUpdate& u = index_.updates()[t.update_index];
        const PatternEdge& pe = ngd.pattern().edge(t.pattern_edge);
        PWorkUnit unit;
        unit.ngd_index = t.ngd_index;
        unit.pattern_edge = t.pattern_edge;
        unit.update_index = t.update_index;
        unit.depth = 0;
        unit.binding.assign(ngd.pattern().NumNodes(), kInvalidNode);
        unit.binding[pe.src] = u.edge.src;
        unit.binding[pe.dst] = u.edge.dst;
        int target = static_cast<int>(i % p_);
        // New nodes created by ΔG postdate the partition; they fall back
        // to round-robin.
        if (rt != nullptr &&
            u.edge.src < rt->partition().fragment_of.size()) {
          target = rt->OwnerOf(u.edge.src);
        }
        pending_[t.ngd_index].fetch_add(1, std::memory_order_relaxed);
        pool_.Seed(target, std::move(unit));
        ++i;
      }
    }

    // Step 4+5: workers expand; the caller thread runs the skew balancer
    // at its interval via the pool tick.
    {
      using namespace std::chrono;
      auto last_balance = steady_clock::now();
      // Workers hand their local delta halves to the guarded merge list
      // on their own threads as they exit the pool — an explicit critical
      // section instead of join-order visibility (see PDect).
      pool_.Run(
          [this](int worker, PWorkUnit& unit) { ProcessUnit(worker, unit); },
          [&]() {
            if (!opts_.enable_balance) return;
            auto now = steady_clock::now();
            if (duration_cast<milliseconds>(now - last_balance).count() <
                opts_.balance_interval_ms) {
              return;
            }
            last_balance = now;
            BalanceOnce();
          },
          token_, [this](int worker) { RetireWorker(worker); });
    }

    PIncDectResult result;
    // Per-worker deltas are globally disjoint (exactly-once canonical
    // emission), so the merges are rehash-free arena concatenations.
    // Result-side spill first, so the merged halves keep the caller's
    // ".add"/".rem" prefixes and full budget shares.
    if (opts_.spill != nullptr) {
      VioSpillOptions side = *opts_.spill;
      side.path_prefix = opts_.spill->path_prefix + ".add";
      result.delta.added.EnableSpill(side);
      side.path_prefix = opts_.spill->path_prefix + ".rem";
      result.delta.removed.EnableSpill(side);
    }
    {
      MutexLock lock(&merge_mu_);
      // Worker-order merge keeps the result arenas deterministic.
      std::sort(finished_.begin(), finished_.end(),
                [](const FinishedDelta& a, const FinishedDelta& b) {
                  return a.worker < b.worker;
                });
      for (auto& f : finished_) {
        result.delta.added.MergeDisjointUnchecked(std::move(f.added));
        result.delta.removed.MergeDisjointUnchecked(std::move(f.removed));
      }
      finished_.clear();
    }
    result.candidate_neighborhood_nodes = nc_size;
    result.messages = metrics_.messages.load();
    result.replicated_nodes = metrics_.replicated_nodes.load();
    result.work_units = metrics_.work_units.load();
    result.splits = metrics_.splits.load();
    result.balance_moves = metrics_.balance_moves.load();
    result.elapsed_seconds = timer.ElapsedSeconds();
    // Per-rule completion: units retire their pending count only when
    // fully processed, so anything drained unprocessed by a cancelled
    // pool — or aborted mid-expansion — leaves its rule incomplete.
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
  static int64_t PlanKey(int ngd_index, int pattern_edge) {
    return (static_cast<int64_t>(ngd_index) << 32) |
           static_cast<uint32_t>(pattern_edge);
  }

  const GraphAccessor& AccessorFor(GraphView view) const {
    return view == GraphView::kNew ? acc_new_ : acc_old_;
  }

  /// Moves half the queue of every processor whose skewness exceeds η to
  /// the processors below η'.
  void BalanceOnce() {
    constexpr double kSkewThreshold = 3.0;      // η
    constexpr double kReceiverThreshold = 0.7;  // η'
    std::vector<size_t> sizes = pool_.QueueSizes();
    std::vector<double> skew = ComputeSkewness(sizes);
    std::vector<int> receivers;
    for (int i = 0; i < p_; ++i) {
      if (skew[i] < kReceiverThreshold) receivers.push_back(i);
    }
    if (receivers.empty()) return;
    for (int i = 0; i < p_; ++i) {
      if (skew[i] <= kSkewThreshold) continue;
      std::vector<PWorkUnit> moved = pool_.HarvestFront(i, sizes[i] / 2);
      if (moved.empty()) continue;
      metrics_.balance_moves += moved.size();
      metrics_.messages += moved.size();
      // Distribute round-robin over the lightly loaded processors.
      std::vector<std::vector<PWorkUnit>> shares(receivers.size());
      for (size_t k = 0; k < moved.size(); ++k) {
        shares[k % receivers.size()].push_back(std::move(moved[k]));
      }
      for (size_t r = 0; r < receivers.size(); ++r) {
        if (!shares[r].empty()) {
          pool_.PushMany(receivers[r], std::move(shares[r]));
        }
      }
    }
  }

  void ProcessUnit(int worker, PWorkUnit& unit) {
    CancelCheck* check = token_ != nullptr ? &checks_[worker] : nullptr;
    if (check != nullptr && check->ShouldStop()) {
      return;  // dropped: the unit's pending count keeps its rule incomplete
    }
    metrics_.work_units.fetch_add(1, std::memory_order_relaxed);
    const Ngd& ngd = sigma_[unit.ngd_index];
    const Pattern& pattern = ngd.pattern();
    const MatchPlan& plan =
        plans_.at(PlanKey(unit.ngd_index, unit.pattern_edge));
    const EffectiveUpdate& u = index_.updates()[unit.update_index];
    const GraphView view =
        u.kind == UpdateKind::kInsert ? GraphView::kNew : GraphView::kOld;
    // The DeltaView backend gets the span-check filter (base edges admit
    // without a hash probe); the live backend keeps the classic one.
    PivotEdgeFilter live_filter(&index_, u.kind, unit.update_index);
    DeltaViewPivotEdgeFilter dv_filter(dv_.has_value() ? &*dv_ : nullptr,
                                       &index_, u.kind, unit.update_index);
    const EdgeFilter& filter =
        dv_.has_value() ? static_cast<const EdgeFilter&>(dv_filter)
                        : static_cast<const EdgeFilter&>(live_filter);

    // Seed validation for fresh pivot units (split/child units have
    // already passed it).
    if (unit.depth == 0 && unit.slice_begin < 0) {
      if (!ValidateSeeds(plan, pattern, unit, view, filter)) {
        Retire(unit);  // fully processed: the pivot never matched
        return;
      }
    }
    ExpandUnit(worker, unit, plan, pattern, ngd, u.kind, view, filter, check);
    if (check == nullptr || !check->Stopped()) Retire(unit);
  }

  /// A unit retires only on full processing; dropped or aborted units
  /// leave their rule's pending count nonzero → incomplete.
  void Retire(const PWorkUnit& unit) {
    pending_[unit.ngd_index].fetch_sub(1, std::memory_order_relaxed);
  }

  bool ValidateSeeds(const MatchPlan& plan, const Pattern& pattern,
                     PWorkUnit& unit, GraphView view,
                     const EdgeFilter& filter) {
    const GraphAccessor& acc = AccessorFor(view);
    for (int s : plan.seeds) {
      const NodeId v = unit.binding[s];
      if (!acc.NodeMatchesLabel(v, pattern.node(s).label)) return false;
    }
    for (int ce : plan.seed_check_edges) {
      const PatternEdge& pe = pattern.edge(ce);
      const NodeId s = unit.binding[pe.src];
      const NodeId d = unit.binding[pe.dst];
      if (!acc.HasEdge(s, d, pe.label)) return false;
      if (!filter.Admit(ce, s, d, pe.label)) return false;
    }
    const Ngd& ngd = sigma_[unit.ngd_index];
    for (int i : plan.seed_ready_x) {
      if (EvalLiteral(acc, ngd.X()[i], unit.binding) == Truth::kFalse) {
        return false;
      }
    }
    for (int i : plan.seed_ready_y) {
      ++unit.y_ready;
      if (EvalLiteral(acc, ngd.Y()[i], unit.binding) == Truth::kFalse) {
        unit.y_false = true;
      }
    }
    if (!unit.y_false && unit.y_ready == ngd.Y().size()) return false;
    return true;
  }

  void ExpandUnit(int worker, PWorkUnit& unit, const MatchPlan& plan,
                  const Pattern& pattern, const Ngd& ngd, UpdateKind kind,
                  GraphView view, const EdgeFilter& filter,
                  CancelCheck* check) {
    if (check != nullptr && check->ShouldStop()) return;
    if (static_cast<size_t>(unit.depth) == plan.steps.size()) {
      EmitIfCanonical(worker, unit, pattern, kind);
      return;
    }
    const GraphAccessor& acc = AccessorFor(view);
    const ExpansionStep& step = plan.steps[unit.depth];
    const PatternEdge& anchor_edge = pattern.edge(step.anchor_edge);
    const NodeId anchor = unit.binding[step.anchor_node];
    // The logical adjacency list being partitioned: the raw overlay
    // adjacency on the live backend, the base label range plus delta
    // entries on the DeltaView (see GraphAccessor::NeighborSeqLen).
    const size_t seq_len =
        acc.NeighborSeqLen(anchor, step.anchor_out, anchor_edge.label);

    size_t begin = 0;
    size_t end = seq_len;
    if (unit.slice_begin >= 0) {
      begin = static_cast<size_t>(unit.slice_begin);
      end = std::min(static_cast<size_t>(unit.slice_end), seq_len);
    } else if (opts_.enable_split && p_ > 1 &&
               seq_len >= opts_.min_split_adjacency) {
      // Hybrid cost model: sequential |adj| vs C·(k+1) + |adj|/p, where k
      // is the number of already-matched pattern nodes.
      const double k = static_cast<double>(plan.seeds.size() + unit.depth);
      const double seq_cost = static_cast<double>(seq_len);
      const double par_cost =
          opts_.latency_c * (k + 1.0) +
          static_cast<double>(seq_len) / static_cast<double>(p_);
      if (par_cost < seq_cost) {
        SplitUnit(worker, unit, seq_len);
        return;
      }
    }

    const LabelId want_label = pattern.node(step.node).label;
    const NodeSet* scope =
        area_.has_value() ? area_->ScopeOf(unit.ngd_index) : nullptr;
    acc.ForEachNeighborSlice(
        anchor, step.anchor_out, anchor_edge.label, begin, end,
        [&](NodeId cand) {
          // Bounded response even on a hub anchor's long adjacency scan.
          if (check != nullptr && check->ShouldStop()) return false;
          if (!acc.NodeMatchesLabel(cand, want_label)) return true;
          if (scope != nullptr && !scope->Contains(cand)) return true;
          {
            const NodeId src = step.anchor_out ? anchor : cand;
            const NodeId dst = step.anchor_out ? cand : anchor;
            if (!filter.Admit(step.anchor_edge, src, dst,
                              anchor_edge.label)) {
              return true;
            }
          }
          for (int ce : step.check_edges) {
            const PatternEdge& pe = pattern.edge(ce);
            const NodeId s =
                pe.src == step.node ? cand : unit.binding[pe.src];
            const NodeId d =
                pe.dst == step.node ? cand : unit.binding[pe.dst];
            if (!acc.HasEdge(s, d, pe.label) ||
                !filter.Admit(ce, s, d, pe.label)) {
              return true;
            }
          }

          PWorkUnit child;
          child.ngd_index = unit.ngd_index;
          child.pattern_edge = unit.pattern_edge;
          child.update_index = unit.update_index;
          child.depth = unit.depth + 1;
          child.y_false = unit.y_false;
          child.y_ready = unit.y_ready;
          child.binding = unit.binding;
          child.binding[step.node] = cand;

          bool prune = false;
          for (int i : step.ready_x) {
            if (EvalLiteral(acc, ngd.X()[i], child.binding) ==
                Truth::kFalse) {
              prune = true;
              break;
            }
          }
          if (!prune) {
            for (int i : step.ready_y) {
              ++child.y_ready;
              if (EvalLiteral(acc, ngd.Y()[i], child.binding) ==
                  Truth::kFalse) {
                child.y_false = true;
              }
            }
            if (!child.y_false && child.y_ready == ngd.Y().size()) {
              prune = true;
            }
          }
          if (prune) return true;

          if (static_cast<size_t>(child.depth) == plan.steps.size()) {
            EmitIfCanonical(worker, child, pattern, kind);
          } else {
            pending_[child.ngd_index].fetch_add(1, std::memory_order_relaxed);
            pool_.SpawnLocal(worker, std::move(child));
          }
          return true;
        });
  }

  void SplitUnit(int worker, const PWorkUnit& unit, size_t seq_len) {
    metrics_.splits.fetch_add(1, std::memory_order_relaxed);
    metrics_.messages.fetch_add(p_, std::memory_order_relaxed);
    const size_t chunk = (seq_len + p_ - 1) / p_;
    for (int i = 0; i < p_; ++i) {
      const size_t b = static_cast<size_t>(i) * chunk;
      if (b >= seq_len) break;
      PWorkUnit slice = unit;
      slice.slice_begin = static_cast<int32_t>(b);
      slice.slice_end = static_cast<int32_t>(std::min(b + chunk, seq_len));
      pending_[slice.ngd_index].fetch_add(1, std::memory_order_relaxed);
      // Spawn, not Seed: mid-run broadcasts respect the depth bound, so a
      // saturated receiver's slice runs inline here (N_C is replicated —
      // any worker can expand any unit).
      pool_.Spawn(worker, i, std::move(slice));
    }
  }

  /// Emits a full-depth unit's binding into the worker-local delta.
  void EmitIfCanonical(int worker, PWorkUnit& unit, const Pattern& pattern,
                       UpdateKind kind) {
    const bool canonical =
        dv_.has_value()
            ? IsCanonicalPivot(*dv_, pattern, unit.binding, index_, kind,
                               unit.update_index, unit.pattern_edge)
            : IsCanonicalPivot(g_, pattern, unit.binding, index_, kind,
                               unit.update_index, unit.pattern_edge);
    if (!canonical) {
      return;
    }
    // Minimal-pivot canonicality emits each match exactly once per
    // update kind, and disjoint slice splits keep that one emission on a
    // single worker — the append never needs the hash probe.
    VioSet& target = kind == UpdateKind::kInsert ? local_added_[worker]
                                                 : local_removed_[worker];
    target.AppendUnchecked(unit.ngd_index, unit.binding.data(),
                           unit.binding.size());
  }

  /// Pool-exit handoff (see PDect's RetireWorker): worker `w` moves both
  /// halves of its finished delta into the guarded merge list.
  void RetireWorker(int worker) NGD_EXCLUDES(merge_mu_) {
    MutexLock lock(&merge_mu_);
    finished_.push_back(FinishedDelta{worker, std::move(local_added_[worker]),
                                      std::move(local_removed_[worker])});
  }

  const Graph& g_;
  const NgdSet& sigma_;
  const UpdateBatch& batch_;
  const PIncDectOptions opts_;
  const int p_;
  UpdateIndex index_;
  std::optional<GraphSnapshot> owned_base_;
  std::optional<DeltaView> dv_;
  GraphAccessor acc_old_;
  GraphAccessor acc_new_;
  /// Per-rule work-unit scopes (absent when the prefilter is off).
  std::optional<AffectedArea> area_;
  std::unordered_map<int64_t, MatchPlan> plans_;
  WorkStealingPool<PWorkUnit> pool_;
  /// Worker-local delta halves: slot i is thread-confined to worker i
  /// while the pool runs (inline runs execute on the producing worker),
  /// then handed off via RetireWorker.
  std::vector<VioSet> local_added_;
  std::vector<VioSet> local_removed_;
  /// One finished worker's delta, moved under merge_mu_ at pool exit.
  struct FinishedDelta {
    int worker;
    VioSet added;
    VioSet removed;
  };
  Mutex merge_mu_;
  std::vector<FinishedDelta> finished_ NGD_GUARDED_BY(merge_mu_);
  ClusterMetrics metrics_;
  /// Cancellation state (null token_ = not cancellable) and per-rule
  /// outstanding work-unit counts (see PDect for the accounting scheme).
  CancelToken owned_token_;
  CancelToken* token_ = nullptr;
  std::vector<CancelCheck> checks_;  // one per worker
  std::unique_ptr<std::atomic<uint32_t>[]> pending_;
};

}  // namespace

StatusOr<PIncDectResult> PIncDect(const Graph& g, const NgdSet& sigma,
                                  const UpdateBatch& batch,
                                  const PIncDectOptions& opts) {
  // Σ-optimizer wiring: validate the full Σ first (rejection behavior
  // matches the oracle), then run the whole pivot/replicate/balance
  // pipeline on the minimized set and remap ΔVio back to Σ.
  if (opts.minimize_sigma != MinimizeMode::kNever) {
    NGD_RETURN_IF_ERROR(ValidateForIncremental(sigma));
    PIncDectOptions inner;
    MinimizedSigma m;
    if (BeginMinimizedDetection(sigma, g.schema(), opts, &inner, &m)) {
      DetectRunInfo inner_info;
      inner.run_info = &inner_info;
      auto result = PIncDect(g, m.sigma, batch, inner);
      if (!result.ok()) return result;
      result->delta = RemapDelta(std::move(result->delta), m.report.kept);
      if (opts.run_info != nullptr) {
        RemapRunInfo(inner_info, m.report, sigma.size(), opts.run_info);
      }
      return result;
    }
  }

  PIncDectEngine engine(g, sigma, batch, opts);
  return engine.Run();
}

}  // namespace ngd
