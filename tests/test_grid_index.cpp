// Uniform-grid spatial index (src/scale/grid_index): bucketing,
// incremental moves, coarse gathers, determinism of iteration order, and
// query-cost accounting.
#include "src/scale/grid_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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

TEST(GridIndex, MoveRebucketsOnlyOnCellChange) {
  GridIndex index(100.0, 100.0, 10.0);
  index.insert(5, 12.0, 12.0);
  // Within-cell jiggle: no rebucket.
  EXPECT_FALSE(index.move(5, 12.0, 12.0, 13.0, 11.0));
  // Cross-cell step: rebucketed, discoverable at the new location only.
  EXPECT_TRUE(index.move(5, 13.0, 11.0, 25.0, 12.0));
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
  EXPECT_TRUE(moved.move(5, 40.0, 40.0, 9.0, 11.0));
  EXPECT_TRUE(moved.move(3, 50.0, 20.0, 10.0, 10.0));

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

}  // namespace
}  // namespace mmtag::scale
