// Uniform-grid spatial index (src/scale/grid_index): bucketing, batched
// rebucketing, coarse gathers, determinism of iteration order, query-cost
// accounting, constructor checks, and the canonical slot sort.
#include "src/scale/grid_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/sim/parallel.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::scale {
namespace {

TEST(GridIndex, DimensionsAndCellMapping) {
  GridIndex index(100.0, 50.0, 10.0);
  EXPECT_EQ(index.cols(), 10);
  EXPECT_EQ(index.rows(), 5);
  EXPECT_EQ(index.cell_of(0.0, 0.0), 0u);
  EXPECT_EQ(index.cell_of(15.0, 0.0), 1u);
  EXPECT_EQ(index.cell_of(0.0, 15.0), static_cast<std::size_t>(10));
  // Out-of-rectangle positions clamp to border cells.
  EXPECT_EQ(index.cell_of(-5.0, -5.0), 0u);
  EXPECT_EQ(index.cell_of(1000.0, 1000.0), 49u);
}

TEST(GridIndex, GatherDiscFindsExactlyTheNearbySlots) {
  GridIndex index(100.0, 100.0, 5.0);
  index.insert(1, 10.0, 10.0);
  index.insert(2, 12.0, 11.0);
  index.insert(3, 90.0, 90.0);
  std::vector<TagSlot> out;
  index.gather_disc(11.0, 10.0, 4.0, out);
  std::sort(out.begin(), out.end());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 2u);
}

TEST(GridIndex, GatherIsCoarseNeverLossy) {
  // Everything within the radius must be returned (possibly with extras
  // up to one cell out): the exact filter is the caller's job.
  GridIndex index(50.0, 50.0, 7.0);
  std::uint64_t base = sim::derive_seed(42, 0);
  std::vector<double> xs, ys;
  for (TagSlot s = 0; s < 200; ++s) {
    const std::uint64_t bits = sim::derive_seed(base, s);
    const double x =
        static_cast<double>(bits & 0xFFFFFFFFULL) * 0x1.0p-32 * 50.0;
    const double y = static_cast<double>(bits >> 32) * 0x1.0p-32 * 50.0;
    xs.push_back(x);
    ys.push_back(y);
    index.insert(s, x, y);
  }
  const double cx = 25.0, cy = 25.0, r = 9.0;
  std::vector<TagSlot> out;
  index.gather_disc(cx, cy, r, out);
  for (TagSlot s = 0; s < 200; ++s) {
    const double dx = xs[s] - cx, dy = ys[s] - cy;
    if (dx * dx + dy * dy <= r * r) {
      EXPECT_NE(std::find(out.begin(), out.end(), s), out.end())
          << "slot " << s << " inside the disc but not gathered";
    }
  }
}

TEST(GridIndex, GatherCoversClampedBorderRemainder) {
  // 53 / 10 -> 5 columns; positions past 50 clamp into the last column.
  // A disc near the border must still find them.
  GridIndex index(53.0, 53.0, 10.0);
  index.insert(1, 52.5, 52.5);  // Lives in the remainder strip.
  std::vector<TagSlot> out;
  index.gather_disc(52.0, 52.0, 1.0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1u);
}

/// A record moving `slot` from (x0, y0) to (x1, y1) in `index`.
GridIndex::CellMove move_of(const GridIndex& index, TagSlot slot, double x0,
                            double y0, double x1, double y1) {
  return {slot, index.cell_of(x0, y0), index.cell_of(x1, y1)};
}

TEST(GridIndex, GatherWithARadiusBeyondAnIntFindsEverySlot) {
  // cx +- radius / cell leaves the int range; the cell bounds clamp to
  // the grid instead of converting out of range.
  GridIndex index(100.0, 100.0, 10.0);
  index.insert(1, 5.0, 5.0);
  index.insert(2, 95.0, 5.0);
  index.insert(3, 55.0, 95.0);
  std::vector<TagSlot> out;
  index.gather_disc(50.0, 50.0, 1e12, out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<TagSlot>{1, 2, 3}));
}

TEST(GridIndex, MoveRebucketsOnlyOnCellChange) {
  GridIndex index(100.0, 100.0, 10.0);
  sim::ThreadPool pool(2);
  index.insert(5, 12.0, 12.0);
  // Within-cell jiggle: no rebucket.
  EXPECT_EQ(index.rebucket({move_of(index, 5, 12.0, 12.0, 13.0, 11.0)}, pool),
            0u);
  // Cross-cell step: rebucketed, discoverable at the new location only.
  EXPECT_EQ(index.rebucket({move_of(index, 5, 13.0, 11.0, 25.0, 12.0)}, pool),
            1u);
  std::vector<TagSlot> out;
  index.gather_disc(13.0, 11.0, 2.0, out);
  EXPECT_TRUE(out.empty());
  index.gather_disc(25.0, 12.0, 2.0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 5u);
  EXPECT_EQ(index.occupancy(), 1u);
}

TEST(GridIndex, IterationOrderIsPureFunctionOfPopulation) {
  // Two indexes holding the same final population — one built fresh, one
  // arrived at through a history of moves — must gather identical
  // sequences (sorted buckets erase history).
  GridIndex fresh(60.0, 60.0, 6.0);
  GridIndex moved(60.0, 60.0, 6.0);
  fresh.insert(3, 10.0, 10.0);
  fresh.insert(8, 11.0, 10.5);
  fresh.insert(5, 9.0, 11.0);

  moved.insert(5, 40.0, 40.0);
  moved.insert(8, 11.0, 10.5);
  moved.insert(3, 50.0, 20.0);
  sim::ThreadPool pool(2);
  EXPECT_EQ(moved.rebucket({move_of(moved, 5, 40.0, 40.0, 9.0, 11.0),
                            move_of(moved, 3, 50.0, 20.0, 10.0, 10.0)},
                           pool),
            2u);

  std::vector<TagSlot> a, b;
  fresh.gather_disc(10.0, 10.0, 5.0, a);
  moved.gather_disc(10.0, 10.0, 5.0, b);
  EXPECT_EQ(a, b);
}

TEST(GridIndex, QueryCostCountsCellsAndCandidates) {
  GridIndex index(100.0, 100.0, 10.0);
  for (TagSlot s = 0; s < 10; ++s) {
    index.insert(s, 5.0 + static_cast<double>(s) * 0.1, 5.0);
  }
  std::vector<TagSlot> out;
  index.gather_disc(5.0, 5.0, 4.0, out);
  const GridIndex::QueryCost& cost = index.cost();
  EXPECT_EQ(cost.queries, 1u);
  EXPECT_EQ(cost.cells_visited, 1u);
  EXPECT_EQ(cost.candidates, 10u);
  index.reset_cost();
  EXPECT_EQ(index.cost().queries, 0u);
  EXPECT_EQ(index.cost().candidates, 0u);
}

TEST(GridIndex, DiscCullSkipsFarCells) {
  // A small disc in a big world touches a handful of cells, not the grid.
  GridIndex index(1000.0, 1000.0, 10.0);
  std::vector<TagSlot> out;
  index.gather_disc(500.0, 500.0, 12.0, out);
  EXPECT_LE(index.cost().cells_visited, 16u);
}

TEST(GridIndex, BatchedRebucketMatchesAFreshBuildAtAnyPoolSize) {
  // 2000 slots in a 25 x 25 grid: 400 jump anywhere, so cells see several
  // leavers and arrivals at once, and 200 jiggle, mostly within their
  // cell. Every pool size must leave the buckets a fresh build of the
  // final positions has.
  constexpr TagSlot kSlots = 2000;
  const std::uint64_t base = sim::derive_seed(9, 0);
  std::vector<double> x0, y0, x1, y1;
  for (TagSlot s = 0; s < kSlots; ++s) {
    const std::uint64_t a = sim::derive_seed(base, s);
    const std::uint64_t b = sim::derive_seed(a, 1);
    x0.push_back(static_cast<double>(a & 0xFFFFFFFFULL) * 0x1.0p-32 * 100.0);
    y0.push_back(static_cast<double>(a >> 32) * 0x1.0p-32 * 100.0);
    const bool jumps = s % 10 == 1 || s % 10 == 2;
    const double jiggle = s % 10 == 0 ? 0.3 : 0.0;
    x1.push_back(jumps ? static_cast<double>(b & 0xFFFFFFFFULL) * 0x1.0p-32 * 100.0
                       : std::min(x0.back() + jiggle, 100.0));
    y1.push_back(jumps ? static_cast<double>(b >> 32) * 0x1.0p-32 * 100.0
                       : y0.back());
  }
  GridIndex fresh(100.0, 100.0, 4.0);
  for (TagSlot s = 0; s < kSlots; ++s) fresh.insert(s, x1[s], y1[s]);
  for (const int threads : {1, 4}) {
    GridIndex index(100.0, 100.0, 4.0);
    for (TagSlot s = 0; s < kSlots; ++s) index.insert(s, x0[s], y0[s]);
    std::vector<GridIndex::CellMove> moves;
    std::size_t changed = 0;
    for (TagSlot s = 0; s < kSlots; ++s) {
      if (x0[s] == x1[s] && y0[s] == y1[s]) continue;
      moves.push_back(move_of(index, s, x0[s], y0[s], x1[s], y1[s]));
      if (moves.back().from != moves.back().to) ++changed;
    }
    ASSERT_GT(changed, 0u);
    ASSERT_LT(changed, moves.size());  // Some moves stay in their cell.
    sim::ThreadPool pool(threads);
    EXPECT_EQ(index.rebucket(moves, pool), changed);
    EXPECT_EQ(index.occupancy(), std::size_t{kSlots});
    for (double cy = 0.0; cy <= 100.0; cy += 12.5) {
      for (double cx = 0.0; cx <= 100.0; cx += 12.5) {
        std::vector<TagSlot> a, b;
        fresh.gather_disc(cx, cy, 9.0, a);
        index.gather_disc(cx, cy, 9.0, b);
        EXPECT_EQ(a, b) << "threads " << threads << " at " << cx << ", " << cy;
      }
    }
  }
}

TEST(GridIndex, RejectsNonPositiveAndIntOverflowingGrids) {
  EXPECT_THROW(GridIndex(0.0, 10.0, 1.0), std::invalid_argument);
  EXPECT_THROW(GridIndex(10.0, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(GridIndex(10.0, 10.0, 0.0), std::invalid_argument);
  // 1e10 columns do not fit an int.
  EXPECT_THROW(GridIndex(1e10, 10.0, 1.0), std::invalid_argument);
  EXPECT_THROW(GridIndex(10.0, 1e10, 1.0), std::invalid_argument);
}

TEST(SortSlots, EqualsStdSort) {
  // Random keys at sizes 0 to 10,007, some of them >= 2^22 so all three
  // digit passes run; then keys sharing every digit, only the high
  // digits, and only the low digit.
  const std::uint64_t base = sim::derive_seed(17, 0);
  std::vector<std::vector<TagSlot>> inputs;
  for (const std::size_t n : {0u, 1u, 2u, 1000u, 10007u}) {
    std::vector<TagSlot> keys;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t bits = sim::derive_seed(base, i);
      keys.push_back(i % 7 == 0 ? static_cast<TagSlot>(bits)
                                : static_cast<TagSlot>(bits & 0xFFFFF));
    }
    inputs.push_back(keys);
  }
  inputs.emplace_back(1000, 0xABCDEF12u);
  std::vector<TagSlot> high, low;
  for (TagSlot i = 0; i < 3000; ++i) {
    high.push_back((3000 - i) * 7 % 2048 + (5u << 22));
    low.push_back(((i * 2654435761u) >> 11) << 11 | 0x155u);
  }
  inputs.push_back(high);
  inputs.push_back(low);
  for (std::vector<TagSlot>& keys : inputs) {
    std::vector<TagSlot> expected = keys;
    std::sort(expected.begin(), expected.end());
    sort_slots(keys);
    EXPECT_EQ(keys, expected) << "size " << keys.size();
  }
}

}  // namespace
}  // namespace mmtag::scale
