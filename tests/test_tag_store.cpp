// SoA tag store (src/scale/tag_store): column layout, dense slots and
// zeroed service state.
#include "src/scale/tag_store.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace mmtag::scale {
namespace {

TEST(TagStore, DenseCreationAssignsSequentialSlots) {
  TagStore store;
  store.reserve(4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    const TagSlot slot = store.create(1.0 * i, 2.0 * i);
    EXPECT_EQ(slot, i);
  }
  EXPECT_EQ(store.size(), 4u);
  EXPECT_DOUBLE_EQ(store.xs()[3], 3.0);
  EXPECT_DOUBLE_EQ(store.ys()[3], 6.0);
}

TEST(TagStore, ServiceColumnsStartZeroedWithInfiniteFirstRead) {
  TagStore store;
  const TagSlot slot = store.create(0.0, 0.0, 5e-6);
  EXPECT_TRUE(std::isinf(store.first_read_s()[slot]));
  EXPECT_DOUBLE_EQ(store.delivered_bits()[slot], 0.0);
  EXPECT_EQ(store.polls()[slot], 0L);
  EXPECT_DOUBLE_EQ(store.energies()[slot], 5e-6);
}

TEST(TagStore, SetPositionWritesColumns) {
  TagStore store;
  const TagSlot slot = store.create(0.0, 0.0, 1.25e-6);
  store.set_position(slot, 10.0, 20.0);
  EXPECT_DOUBLE_EQ(store.xs()[slot], 10.0);
  EXPECT_DOUBLE_EQ(store.ys()[slot], 20.0);
  EXPECT_DOUBLE_EQ(store.energies()[slot], 1.25e-6);
}

}  // namespace
}  // namespace mmtag::scale
