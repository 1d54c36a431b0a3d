#include "parallel/cluster.h"

#include <algorithm>
#include <thread>
#include <utility>

namespace ngd {

namespace {

/// Builds all p FragmentSnapshots, one thread per fragment — the "deploy
/// the fragments" phase of a cluster, parallel by construction.
std::vector<FragmentSnapshot> BuildAllFragments(const Graph& g,
                                                const Partition& part,
                                                GraphView view,
                                                int halo_hops) {
  const int p = part.num_fragments;
  std::vector<FragmentSnapshot> fragments(p);
  if (p == 1) {
    fragments[0] = BuildFragmentSnapshot(g, part, 0, view, halo_hops);
    return fragments;
  }
  std::vector<std::thread> builders;
  builders.reserve(p);
  for (int f = 0; f < p; ++f) {
    builders.emplace_back([&, f]() {
      fragments[f] = BuildFragmentSnapshot(g, part, f, view, halo_hops);
    });
  }
  for (auto& b : builders) b.join();
  return fragments;
}

}  // namespace

FragmentRuntime::FragmentRuntime(const Graph& g, int p, GraphView view,
                                 int halo_hops,
                                 const PartitionOptions& popts)
    : FragmentRuntime(g, PartitionGraph(g, std::max(1, p), view, popts), view,
                      halo_hops) {}

FragmentRuntime::FragmentRuntime(const Graph& g, Partition part,
                                 GraphView view, int halo_hops)
    : partition_(std::move(part)) {
  fragments_ =
      BuildAllFragments(g, partition_, view, std::max(0, halo_hops));
}

uint64_t FragmentRuntime::total_halo_nodes() const {
  uint64_t total = 0;
  for (const FragmentSnapshot& f : fragments_) total += f.halo.size();
  return total;
}

}  // namespace ngd
