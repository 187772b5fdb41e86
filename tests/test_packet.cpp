// PacketPool / Packet: zero-copy headroom arithmetic, slot recycling,
// exhaustion-as-backpressure accounting.
#include "src/net/packet.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

namespace mmtag::net {
namespace {

TEST(PacketPool, AllocatesUpToCapacityThenBackpressures) {
  PacketPool pool(3, 32, 8);
  EXPECT_EQ(pool.capacity(), 3u);
  EXPECT_EQ(pool.available(), 3u);

  std::vector<Packet> held;
  for (int i = 0; i < 3; ++i) {
    Packet pkt = pool.alloc();
    ASSERT_TRUE(pkt.valid());
    held.push_back(std::move(pkt));
  }
  EXPECT_EQ(pool.available(), 0u);
  EXPECT_EQ(pool.in_use(), 3u);

  // A dry pool is backpressure, not an error: invalid handle, counted.
  Packet overflow = pool.alloc();
  EXPECT_FALSE(overflow.valid());
  EXPECT_EQ(pool.stats().exhaustions, 1u);
  EXPECT_EQ(pool.stats().peak_in_use, 3u);

  held.pop_back();  // Destructor returns the slot.
  EXPECT_EQ(pool.available(), 1u);
  Packet again = pool.alloc();
  EXPECT_TRUE(again.valid());
  EXPECT_EQ(pool.stats().allocs, 4u);
}

TEST(PacketPool, HeadroomReservesPrependSpace) {
  PacketPool pool(1, 32, 8);
  Packet pkt = pool.alloc();
  ASSERT_TRUE(pkt.valid());
  // A fresh packet is empty, parked after the reserved headroom.
  EXPECT_EQ(pkt.size(), 0u);
  EXPECT_EQ(pkt.headroom(), 8u);
  EXPECT_EQ(pkt.tailroom(), 32u);
  EXPECT_EQ(pkt.capacity(), 40u);
}

TEST(Packet, PrependDoesNotMovePayloadBytes) {
  PacketPool pool(1, 32, 8);
  Packet pkt = pool.alloc();
  ASSERT_TRUE(pkt.valid());

  std::uint8_t* payload = pkt.append(16);
  ASSERT_NE(payload, nullptr);
  for (int i = 0; i < 16; ++i) payload[i] = static_cast<std::uint8_t>(i);

  // The zero-copy claim itself: prepending a header must hand back bytes
  // directly in front of the payload, leaving the payload in place.
  std::uint8_t* header = pkt.prepend(8);
  ASSERT_NE(header, nullptr);
  EXPECT_EQ(header + 8, payload);
  EXPECT_EQ(pkt.data(), header);
  EXPECT_EQ(pkt.size(), 24u);
  EXPECT_EQ(pkt.headroom(), 0u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(payload[i], static_cast<std::uint8_t>(i));
  }

  // Headroom is spent: a second prepend has nowhere to go.
  EXPECT_EQ(pkt.prepend(1), nullptr);
  // And the window math stays honest on the other end.
  EXPECT_EQ(pkt.append(17), nullptr);
  ASSERT_NE(pkt.append(16), nullptr);
  EXPECT_EQ(pkt.tailroom(), 0u);
}

TEST(Packet, MoveTransfersOwnershipExactlyOnce) {
  PacketPool pool(2, 16, 4);
  Packet a = pool.alloc();
  ASSERT_TRUE(a.valid());
  ASSERT_NE(a.append(4), nullptr);

  Packet b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(pool.in_use(), 1u);

  // Move-assign over a live packet releases the old slot first.
  Packet c = pool.alloc();
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(pool.in_use(), 2u);
  c = std::move(b);
  EXPECT_EQ(pool.in_use(), 1u);
  c.release();
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.available(), 2u);
  c.release();  // Idempotent.
  EXPECT_EQ(pool.available(), 2u);
}

TEST(PacketPool, OccupancyAndPeakTrackTheHighWaterMark) {
  PacketPool pool(4, 16, 0);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_DOUBLE_EQ(pool.peak_occupancy(), 0.0);
  Packet a = pool.alloc();
  Packet b = pool.alloc();
  Packet c = pool.alloc();
  EXPECT_EQ(pool.in_use(), 3u);
  EXPECT_DOUBLE_EQ(pool.peak_occupancy(), 0.75);
  b.release();
  c.release();
  // Occupancy falls with releases; the high-water mark is sticky.
  EXPECT_EQ(pool.in_use(), 1u);
  EXPECT_DOUBLE_EQ(pool.peak_occupancy(), 0.75);
  EXPECT_EQ(pool.stats().peak_in_use, 3u);
}

TEST(Packet, SlotsAreRecycledLifo) {
  PacketPool pool(2, 16, 0);
  Packet a = pool.alloc();
  Packet b = pool.alloc();
  ASSERT_TRUE(a.valid() && b.valid());
  std::uint8_t* a_data = a.append(1);
  ASSERT_NE(a_data, nullptr);
  a.release();
  Packet c = pool.alloc();
  ASSERT_TRUE(c.valid());
  // LIFO free list: the most recently released slot is reused first.
  EXPECT_EQ(c.append(1), a_data);
}

}  // namespace
}  // namespace mmtag::net
