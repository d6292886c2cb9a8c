// Packet arena, flit buffers, arbiters and route computation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "noc/arbiter.hpp"
#include "noc/buffer.hpp"
#include "noc/packet.hpp"
#include "noc/routing.hpp"

namespace arinoc {
namespace {

// ---------------------------------------------------------------- Packets

TEST(PacketArena, CreateInitializesFields) {
  PacketArena arena;
  const PacketId id =
      arena.create(PacketType::kReadReply, 3, 7, 5, 1, 42, 100);
  const Packet& p = arena.at(id);
  EXPECT_EQ(p.type, PacketType::kReadReply);
  EXPECT_EQ(p.src, 3);
  EXPECT_EQ(p.dest, 7);
  EXPECT_EQ(p.num_flits, 5);
  EXPECT_EQ(p.priority, 1);
  EXPECT_EQ(p.txn, 42u);
  EXPECT_EQ(p.created, 100u);
}

TEST(PacketArena, RetireRecyclesSlots) {
  PacketArena arena;
  const PacketId a = arena.create(PacketType::kReadRequest, 0, 1, 1, 0, 0, 0);
  arena.retire(a);
  const PacketId b = arena.create(PacketType::kWriteReply, 1, 2, 1, 0, 0, 0);
  EXPECT_EQ(a, b);  // Slot reused.
  EXPECT_EQ(arena.live(), 1u);
  EXPECT_EQ(arena.capacity(), 1u);
}

TEST(PacketArena, LiveCountTracksCreateRetire) {
  PacketArena arena;
  std::vector<PacketId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(arena.create(PacketType::kReadRequest, 0, 1, 1, 0, 0, 0));
  }
  EXPECT_EQ(arena.live(), 10u);
  for (auto id : ids) arena.retire(id);
  EXPECT_EQ(arena.live(), 0u);
}

TEST(PacketArena, FlitSequenceHeadAndTail) {
  const Flit head = PacketArena::flit_of(9, 0, 5);
  const Flit body = PacketArena::flit_of(9, 2, 5);
  const Flit tail = PacketArena::flit_of(9, 4, 5);
  EXPECT_TRUE(head.head);
  EXPECT_FALSE(head.tail);
  EXPECT_FALSE(body.head);
  EXPECT_FALSE(body.tail);
  EXPECT_FALSE(tail.head);
  EXPECT_TRUE(tail.tail);
}

TEST(PacketArena, SingleFlitPacketIsHeadAndTail) {
  const Flit f = PacketArena::flit_of(1, 0, 1);
  EXPECT_TRUE(f.head);
  EXPECT_TRUE(f.tail);
}

TEST(PacketTypes, LongShortClassification) {
  EXPECT_FALSE(is_long_packet(PacketType::kReadRequest));
  EXPECT_TRUE(is_long_packet(PacketType::kWriteRequest));
  EXPECT_TRUE(is_long_packet(PacketType::kReadReply));
  EXPECT_FALSE(is_long_packet(PacketType::kWriteReply));
}

TEST(PacketTypes, ReplyClassification) {
  EXPECT_FALSE(is_reply(PacketType::kReadRequest));
  EXPECT_FALSE(is_reply(PacketType::kWriteRequest));
  EXPECT_TRUE(is_reply(PacketType::kReadReply));
  EXPECT_TRUE(is_reply(PacketType::kWriteReply));
}

// ---------------------------------------------------------------- Buffers

TEST(FlitBuffer, FifoOrder) {
  FlitBuffer buf(4);
  for (std::uint16_t s = 0; s < 3; ++s) {
    buf.push(PacketArena::flit_of(1, s, 3));
  }
  EXPECT_EQ(buf.pop().seq, 0);
  EXPECT_EQ(buf.pop().seq, 1);
  EXPECT_EQ(buf.pop().seq, 2);
  EXPECT_TRUE(buf.empty());
}

TEST(FlitBuffer, CapacityAccounting) {
  FlitBuffer buf(5);
  EXPECT_TRUE(buf.fits(5));
  buf.push(PacketArena::flit_of(1, 0, 1));
  EXPECT_EQ(buf.free_space(), 4u);
  EXPECT_TRUE(buf.fits(4));
  EXPECT_FALSE(buf.fits(5));
}

TEST(FlitBuffer, OccupancySampling) {
  FlitBuffer buf(10);
  buf.push(PacketArena::flit_of(1, 0, 1));
  buf.sample();
  buf.push(PacketArena::flit_of(2, 0, 1));
  buf.push(PacketArena::flit_of(3, 0, 1));
  buf.sample();
  EXPECT_DOUBLE_EQ(buf.mean_occupancy(), 2.0);  // (1 + 3) / 2.
  EXPECT_EQ(buf.peak_occupancy(), 3u);
}

TEST(FlitBuffer, RingWrapsInOrder) {
  // Interleaved push/pop walks the head around the ring many times; order
  // and at() indexing must hold across the wrap point.
  FlitBuffer buf(3);
  PacketId next_in = 0, next_out = 0;
  for (int round = 0; round < 20; ++round) {
    while (!buf.full()) buf.push(PacketArena::flit_of(next_in++, 0, 1));
    for (std::size_t i = 0; i < buf.size(); ++i) {
      EXPECT_EQ(buf.at(i).pkt, next_out + i);
    }
    const int pops = 1 + round % 3;
    for (int k = 0; k < pops; ++k) EXPECT_EQ(buf.pop().pkt, next_out++);
  }
}

// ---------------------------------------------------------------- Arbiters

TEST(RoundRobinArbiter, GrantsRotate) {
  RoundRobinArbiter arb(3);
  const std::uint64_t all = 0b111;
  EXPECT_EQ(arb.pick(&all), 0);
  EXPECT_EQ(arb.pick(&all), 1);
  EXPECT_EQ(arb.pick(&all), 2);
  EXPECT_EQ(arb.pick(&all), 0);
}

TEST(RoundRobinArbiter, SkipsNonRequesters) {
  RoundRobinArbiter arb(4);
  const std::uint64_t only2 = 0b0100;
  const std::uint64_t zero_and_2 = 0b0101;
  EXPECT_EQ(arb.pick(&only2), 2);
  EXPECT_EQ(arb.pick(&zero_and_2), 0);  // Pointer is past 2.
}

TEST(RoundRobinArbiter, NoRequestsReturnsMinusOne) {
  RoundRobinArbiter arb(2);
  const std::uint64_t none = 0;
  EXPECT_EQ(arb.pick(&none), -1);
}

TEST(RoundRobinArbiter, EmptyPickLeavesPointer) {
  RoundRobinArbiter arb(4);
  const std::uint64_t all = 0b1111;
  const std::uint64_t none = 0;
  EXPECT_EQ(arb.pick(&all), 0);
  EXPECT_EQ(arb.pick(&none), -1);
  EXPECT_EQ(arb.pick(&all), 1);
}

TEST(RoundRobinArbiter, FairUnderSaturation) {
  RoundRobinArbiter arb(4);
  int grants[4] = {0, 0, 0, 0};
  const std::uint64_t all = 0b1111;
  for (int i = 0; i < 400; ++i) ++grants[arb.pick(&all)];
  for (int g : grants) EXPECT_EQ(g, 100);
}

TEST(RoundRobinArbiter, MultiWordWrapsAround) {
  // 130 inputs span three words; the pointer crosses word boundaries and
  // wraps from the last word back into the low bits of its start word.
  RoundRobinArbiter arb(130);
  ASSERT_EQ(request_words(130), 3u);
  std::uint64_t req[3] = {};
  auto set = [&](int i) { req[i / 64] |= std::uint64_t{1} << (i % 64); };
  set(5);
  set(70);
  set(129);
  EXPECT_EQ(arb.pick(req), 5);
  EXPECT_EQ(arb.pick(req), 70);
  EXPECT_EQ(arb.pick(req), 129);
  EXPECT_EQ(arb.pick(req), 5);  // Wrapped.
  std::uint64_t low_only[3] = {std::uint64_t{1} << 3, 0, 0};
  EXPECT_EQ(arb.pick(low_only), 3);  // Pointer at 6: wraps to bit 3.
}

TEST(RoundRobinArbiter, MatchesReferenceScan) {
  // Property: the bitset scan equals the obvious modular scan over random
  // request patterns, including multi-word widths.
  for (const std::size_t n : {1u, 7u, 20u, 64u, 65u, 148u}) {
    RoundRobinArbiter arb(n);
    std::size_t ptr = 0;
    std::vector<std::uint64_t> req(request_words(n));
    std::uint64_t state = 0x9e3779b97f4a7c15ull + n;
    for (int trial = 0; trial < 300; ++trial) {
      std::fill(req.begin(), req.end(), 0);
      std::vector<char> bits(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        if ((state >> 61) == 0) {
          bits[i] = 1;
          req[i / 64] |= std::uint64_t{1} << (i % 64);
        }
      }
      int want = -1;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t idx = (ptr + k) % n;
        if (bits[idx]) {
          want = static_cast<int>(idx);
          ptr = (idx + 1) % n;
          break;
        }
      }
      ASSERT_EQ(arb.pick(req.data()), want) << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(PriorityArbiter, HighestKeyWins) {
  PriorityArbiter arb(3);
  const std::uint64_t all = 0b111;
  const std::uint32_t key[3] = {0, 2, 1};
  EXPECT_EQ(arb.pick(&all, key), 1);
}

TEST(PriorityArbiter, TieBrokenRoundRobin) {
  PriorityArbiter arb(3);
  const std::uint64_t req = 0b011;
  const std::uint32_t key[3] = {1, 1, 0};
  const int first = arb.pick(&req, key);
  const int second = arb.pick(&req, key);
  EXPECT_NE(first, second);  // Rotates among equal-priority requesters.
}

TEST(PriorityArbiter, IgnoresKeysOfNonRequesters) {
  PriorityArbiter arb(3);
  const std::uint64_t req = 0b001;
  const std::uint32_t key[3] = {0, 9, 9};
  EXPECT_EQ(arb.pick(&req, key), 0);
}

TEST(PriorityArbiter, TieBreakStartsAtPointer) {
  // After granting input 1 the pointer sits at 2: among the equal top keys
  // {0, 3}, input 3 comes first in round-robin order.
  PriorityArbiter arb(4);
  const std::uint64_t only1 = 0b0010;
  const std::uint32_t key[4] = {5, 0, 1, 5};
  EXPECT_EQ(arb.pick(&only1, key), 1);
  const std::uint64_t all = 0b1111;
  EXPECT_EQ(arb.pick(&all, key), 3);
  EXPECT_EQ(arb.pick(&all, key), 0);
}

// ---------------------------------------------------------------- Routing

TEST(Routing, XYGoesEastFirst) {
  Mesh m(6, 6, 8);
  const auto rc = compute_route(m, m.node_at(0, 0), m.node_at(3, 3),
                                RoutingAlgo::kXY);
  ASSERT_EQ(rc.minimal.size(), 1u);
  EXPECT_EQ(rc.minimal[0], kEast);
  EXPECT_EQ(rc.xy, kEast);
}

TEST(Routing, XYGoesVerticalWhenAligned) {
  Mesh m(6, 6, 8);
  const auto rc = compute_route(m, m.node_at(3, 0), m.node_at(3, 4),
                                RoutingAlgo::kXY);
  EXPECT_EQ(rc.xy, kSouth);
}

TEST(Routing, ArrivalIsLocal) {
  Mesh m(6, 6, 8);
  const auto rc =
      compute_route(m, m.node_at(2, 2), m.node_at(2, 2), RoutingAlgo::kXY);
  ASSERT_EQ(rc.minimal.size(), 1u);
  EXPECT_EQ(rc.minimal[0], kLocal);
}

TEST(Routing, AdaptiveOffersBothMinimalDirections) {
  Mesh m(6, 6, 8);
  const auto rc = compute_route(m, m.node_at(0, 0), m.node_at(3, 3),
                                RoutingAlgo::kMinAdaptive);
  ASSERT_EQ(rc.minimal.size(), 2u);
  EXPECT_EQ(rc.minimal[0], kEast);
  EXPECT_EQ(rc.minimal[1], kSouth);
  EXPECT_EQ(rc.xy, kEast);  // Escape direction stays dimension-ordered.
}

TEST(Routing, AdaptiveSingleDirectionWhenAligned) {
  Mesh m(6, 6, 8);
  const auto rc = compute_route(m, m.node_at(5, 2), m.node_at(1, 2),
                                RoutingAlgo::kMinAdaptive);
  ASSERT_EQ(rc.minimal.size(), 1u);
  EXPECT_EQ(rc.minimal[0], kWest);
}

// Property: for every (src, dst) pair, repeatedly following the XY
// direction reaches the destination in exactly hops(src, dst) steps.
TEST(Routing, XYAlwaysReachesDestination) {
  Mesh m(6, 6, 8);
  for (NodeId s = 0; s < 36; ++s) {
    for (NodeId d = 0; d < 36; ++d) {
      NodeId cur = s;
      std::uint32_t steps = 0;
      while (cur != d) {
        const auto rc = compute_route(m, cur, d, RoutingAlgo::kXY);
        ASSERT_NE(rc.xy, kLocal);
        cur = m.neighbor(cur, rc.xy);
        ASSERT_NE(cur, kInvalidNode);
        ASSERT_LE(++steps, 10u);
      }
      EXPECT_EQ(steps, m.hops(s, d));
    }
  }
}

// Property: every adaptive candidate strictly reduces distance (minimal).
TEST(Routing, AdaptiveCandidatesAreAllMinimal) {
  Mesh m(6, 6, 8);
  for (NodeId s = 0; s < 36; ++s) {
    for (NodeId d = 0; d < 36; ++d) {
      if (s == d) continue;
      const auto rc = compute_route(m, s, d, RoutingAlgo::kMinAdaptive);
      for (int dir : rc.minimal) {
        const NodeId next = m.neighbor(s, dir);
        ASSERT_NE(next, kInvalidNode);
        EXPECT_EQ(m.hops(next, d) + 1, m.hops(s, d));
      }
    }
  }
}

}  // namespace
}  // namespace arinoc
