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
//     intersecting the query shape, and the caller (the epoch batcher)
//     does the exact distance filtering in the SIMD squared-distance
//     domain. The index never touches a coordinate, so it cannot
//     introduce floating-point divergence.
//
// Mobility is incremental: move() rebuckets a slot only when its cell
// actually changed (the common case at realistic speeds is a no-op).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/scale/tag_store.hpp"

namespace mmtag::scale {

class GridIndex {
 public:
  /// Work performed by queries, for the O(tags)-vs-indexed margin the
  /// metro bench enforces. Counters accumulate across queries; queries
  /// run concurrently from epoch shards, so the live tallies are relaxed
  /// atomics (sums of per-query deltas commute — totals are exact and
  /// thread-count invariant) and cost() returns a plain snapshot.
  struct QueryCost {
    std::uint64_t queries = 0;
    std::uint64_t cells_visited = 0;
    /// Candidate slots handed to the caller (the exact filter's input
    /// size — the honest cost of answering through the index).
    std::uint64_t candidates = 0;
  };

  /// A `width_m` x `height_m` world bucketed into square cells of
  /// `cell_m` (the last row/column absorbs the remainder). Positions
  /// outside the rectangle clamp to the border cells, so a slightly
  /// out-of-bounds mover never corrupts the index.
  GridIndex(double width_m, double height_m, double cell_m);

  void insert(TagSlot slot, double x, double y);

  /// Rebucket `slot` after a move from (old_x, old_y) to (new_x, new_y).
  /// Returns true when the slot actually changed cells (the caller's old
  /// coordinates must be the ones insert()/move() last saw).
  bool move(TagSlot slot, double old_x, double old_y, double new_x,
            double new_y);

  /// Append every slot whose cell intersects the closed disc of
  /// `radius_m` about (cx, cy), in cell row-major order, ascending slot
  /// order within a cell. Coarse: slots up to one cell diagonal outside
  /// the disc are included; exact filtering is the batcher's job.
  void gather_disc(double cx, double cy, double radius_m,
                   std::vector<TagSlot>& out) const;

  [[nodiscard]] QueryCost cost() const {
    return {queries_.load(std::memory_order_relaxed),
            cells_visited_.load(std::memory_order_relaxed),
            candidates_.load(std::memory_order_relaxed)};
  }
  void reset_cost() {
    queries_.store(0, std::memory_order_relaxed);
    cells_visited_.store(0, std::memory_order_relaxed);
    candidates_.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] double cell_m() const { return cell_m_; }
  [[nodiscard]] std::size_t occupancy() const { return occupancy_; }

  /// Bucket holding (x, y) — exposed for tests and occupancy stats.
  [[nodiscard]] std::size_t cell_of(double x, double y) const;

 private:
  [[nodiscard]] int col_of(double x) const;
  [[nodiscard]] int row_of(double y) const;

  double cell_m_;
  int cols_;
  int rows_;
  std::vector<std::vector<TagSlot>> cells_;
  std::size_t occupancy_ = 0;
  mutable std::atomic<std::uint64_t> queries_{0};
  mutable std::atomic<std::uint64_t> cells_visited_{0};
  mutable std::atomic<std::uint64_t> candidates_{0};
};

}  // namespace mmtag::scale
