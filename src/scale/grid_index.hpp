// Uniform-grid spatial index over the tag population.
//
// Beam-scan discovery, nearest-reader handoff and interference queries are
// all "who is near this point" questions; answered by scanning every tag
// they cost O(N) per reader per epoch, which is what caps deploy at a few
// thousand tags. The grid buckets slots by floor(position / cell) so those
// queries cost O(occupancy of the touched cells) instead.
//
// Two disciplines make the index safe for the determinism bar:
//
//   * Every cell bucket is kept sorted by slot id (insertion via
//     lower_bound, removal via binary search). Iteration order is then a
//     pure function of the *current* population — never of the history of
//     moves that produced it — so a mobile run queried after k epochs
//     yields the same candidate order as a fresh build of the same
//     positions.
//   * Queries are coarse by design: they return every slot in the cells
//     intersecting the query shape, and the caller (the metro epoch's
//     service shard) does the exact filtering in the squared-distance
//     domain. The index never touches a coordinate, so it cannot
//     introduce floating-point divergence.
//
// Mobility is batched: the caller computes each mover's cell before and
// after its step with cell_of() and hands the records whose cell changed
// to rebucket(), which applies them in parallel over at most 64 ranges of
// consecutive cells (fixed by the grid, not by the pool). Buckets are
// sorted sets, so the result cannot depend on the order in which the
// moves are applied.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/scale/tag_store.hpp"

namespace mmtag::sim {
class ThreadPool;
}

namespace mmtag::scale {

class GridIndex {
 public:
  /// One slot's move between cells, both as cell_of() computed them.
  struct CellMove {
    TagSlot slot;
    std::size_t from;
    std::size_t to;
  };

  /// A `width_m` x `height_m` world bucketed into square cells of
  /// `cell_m` (the last row/column absorbs the remainder). Positions
  /// outside the rectangle clamp to the border cells, so a slightly
  /// out-of-bounds mover never corrupts the index. Throws
  /// std::invalid_argument unless all three are > 0 and the grid has
  /// fewer than 2^31 columns and rows.
  GridIndex(double width_m, double height_m, double cell_m);

  void insert(TagSlot slot, double x, double y);

  /// Move every record's slot from cell `from` to cell `to`; a record
  /// whose cells are equal is a no-op. `from` must be the cell the slot is
  /// in, and a slot may appear in at most one record. Each side of a
  /// record is scattered to its range of consecutive cells (at most 64
  /// ranges), and the ranges apply their removals and insertions on
  /// `pool`. Returns the number of records whose cell changed.
  std::size_t rebucket(const std::vector<CellMove>& moves,
                       sim::ThreadPool& pool);

  /// Append every slot whose cell intersects the closed disc of
  /// `radius_m` about (cx, cy), in cell row-major order, ascending slot
  /// order within a cell, and return the number of cells visited (the
  /// query's cost; `out` grows by its candidate count). Coarse: slots up
  /// to one cell diagonal outside the disc are included; exact filtering
  /// is the caller's job.
  std::size_t gather_disc(double cx, double cy, double radius_m,
                          std::vector<TagSlot>& out) const;

  /// Bucket holding (x, y); inline for the mobility loop.
  [[nodiscard]] std::size_t cell_of(double x, double y) const {
    return static_cast<std::size_t>(row_of(y)) *
               static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(col_of(x));
  }

 private:
  // Clamped in the double domain, so any finite coordinate maps to a
  // border cell without an out-of-range conversion.
  [[nodiscard]] int col_of(double x) const {
    return static_cast<int>(std::clamp(std::floor(x / cell_m_), 0.0,
                                       static_cast<double>(cols_ - 1)));
  }
  [[nodiscard]] int row_of(double y) const {
    return static_cast<int>(std::clamp(std::floor(y / cell_m_), 0.0,
                                       static_cast<double>(rows_ - 1)));
  }

  double cell_m_;
  int cols_;
  int rows_;
  std::vector<std::vector<TagSlot>> cells_;
};

}  // namespace mmtag::scale
