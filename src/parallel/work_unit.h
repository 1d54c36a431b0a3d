// Work units for PIncDect (paper §6.3).
//
// A work unit is a partial solution hup(u0..uk) awaiting expansion: the
// pivot identity (NGD, pattern edge, update index), the partial binding,
// the literal bookkeeping, and — for units produced by hybrid splitting —
// the slice [slice_begin, slice_end) of the anchor adjacency list this
// processor is responsible for (its "partial copy v.adj_i").

#ifndef NGD_PARALLEL_WORK_UNIT_H_
#define NGD_PARALLEL_WORK_UNIT_H_

#include <cstdint>
#include <vector>

#include "core/expr.h"

namespace ngd {

struct PWorkUnit {
  int32_t ngd_index = -1;
  int32_t pattern_edge = -1;
  int32_t update_index = -1;
  /// Number of plan steps already applied (the unit expands step `depth`).
  int32_t depth = 0;
  /// Slice of the anchor adjacency to scan; (-1,-1) means the full list.
  int32_t slice_begin = -1;
  int32_t slice_end = -1;
  /// Literal bookkeeping mirrored from the sequential engine.
  bool y_false = false;
  uint32_t y_ready = 0;
  Binding binding;

  /// Rough serialized size for communication accounting (bytes).
  size_t WireSize() const { return 32 + binding.size() * sizeof(NodeId); }
};

/// ||BVio_i|| / avg_t ||BVio_t|| — the skewness measure of paper §6.3.
std::vector<double> ComputeSkewness(const std::vector<size_t>& queue_sizes);

}  // namespace ngd

#endif  // NGD_PARALLEL_WORK_UNIT_H_
