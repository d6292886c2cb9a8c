// Zero-allocation invariant of the NoC and DRAM hot paths.
//
// This executable replaces the global operator new/delete with counting
// wrappers, which is why it is built separately from arinoc_tests. After a
// warm-up that lets every reusable buffer reach its working size, a
// steady-state simulated cycle of a saturated network (routers, injection
// and ejection NIs, link pipelines) and of the DRAM model must not touch the
// heap at all.
//
// Under AddressSanitizer the loops still run, but the zero-count assertions
// are skipped: the sanitizer runtime allocates on its own behalf.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "core/gpgpu_sim.hpp"
#include "mem/dram.hpp"
#include "noc/network.hpp"
#include "noc/ni.hpp"
#include "noc/topology.hpp"
#include "obs/attr.hpp"
#include "topo/fabric.hpp"
#include "workloads/benchmark.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define ARINOC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ARINOC_ASAN 1
#endif
#endif

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

// The array and nothrow forms of the standard library forward to these.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace arinoc;

constexpr int kWarmupCycles = 3000;
constexpr int kMeasuredCycles = 2000;

/// Allocations made by `fn`.
template <typename Fn>
std::uint64_t count_allocs(Fn&& fn) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

void expect_no_allocs(std::uint64_t allocs, const char* what) {
#ifdef ARINOC_ASAN
  std::printf("[alloc] %s: %llu allocations (not gated under ASan)\n", what,
              static_cast<unsigned long long>(allocs));
#else
  EXPECT_EQ(allocs, 0u) << what << ": heap allocations in "
                        << kMeasuredCycles << " steady-state cycles";
#endif
}

class CountingSink : public PacketSink {
 public:
  void deliver(const Packet&, Cycle) override { ++delivered; }
  std::uint64_t delivered = 0;
};

/// A reply network driven the way GpgpuSim drives it: every MC offers a
/// read reply to a random CC each cycle (saturating the network), the
/// scheme's injection NIs feed the routers, and ejection NIs reassemble
/// and deliver at every CC.
class SaturatedReplyNet {
 public:
  SaturatedReplyNet(const Config& cfg, const topo::Fabric& fabric)
      : cfg_(cfg), fabric_(fabric), net_(params(cfg), &fabric), rng_(7) {
    for (const NodeId mc : fabric.mc_nodes()) {
      inject_.push_back(make_inject_ni(cfg.reply_ni, &net_, mc, cfg));
    }
    for (const NodeId cc : fabric.cc_nodes()) {
      eject_.push_back(std::make_unique<EjectNi>(&net_, cc, &sink_));
    }
  }

  void cycle() {
    const auto prio = static_cast<std::uint8_t>(cfg_.priority_levels - 1);
    const auto& ccs = fabric_.cc_nodes();
    for (std::size_t i = 0; i < inject_.size(); ++i) {
      const NodeId dst = ccs[rng_.next_below(ccs.size())];
      const PacketId id = net_.make_packet(
          PacketType::kReadReply, fabric_.mc_nodes()[i], dst, prio, 0, now_);
      if (!inject_[i]->try_accept(id, now_)) net_.abandon_packet(id);
      inject_[i]->cycle(now_);
    }
    net_.step(now_);
    for (auto& ni : eject_) ni->cycle(now_);
    ++now_;
  }

  std::uint64_t delivered() const { return sink_.delivered; }

 private:
  /// The reply-network parameters GpgpuSim derives from a Config.
  static NetworkParams params(const Config& cfg) {
    NetworkParams p;
    p.activity_driven = cfg.activity_driven;
    p.link_width_bits = cfg.link_width_bits_reply;
    p.num_vcs = cfg.num_vcs;
    p.vc_depth_flits = cfg.vc_depth_flits_reply();
    p.link_latency = cfg.link_latency + cfg.router_pipeline_stages - 1;
    p.routing = cfg.routing;
    p.non_atomic_vc = cfg.non_atomic_vc;
    p.priority_levels = cfg.priority_levels;
    p.starvation_threshold = cfg.starvation_threshold;
    p.mc_injection_speedup = cfg.injection_speedup;
    p.mc_injection_ports =
        cfg.reply_ni == NiArch::kMultiPort ? cfg.multiport_ports : 1;
    p.treat_mcs_specially = true;
    return p;
  }

  Config cfg_;
  const topo::Fabric& fabric_;
  Network net_;
  Xoshiro256 rng_;
  CountingSink sink_;
  std::vector<std::unique_ptr<InjectNi>> inject_;
  std::vector<std::unique_ptr<EjectNi>> eject_;
  Cycle now_ = 0;
};

void check_steady_state(const Config& cfg, const char* what) {
  const topo::Fabric fabric = topo::make_fabric(cfg);
  SaturatedReplyNet net(cfg, fabric);
  for (int i = 0; i < kWarmupCycles; ++i) net.cycle();
  const std::uint64_t delivered_before = net.delivered();
  const std::uint64_t allocs = count_allocs([&] {
    for (int i = 0; i < kMeasuredCycles; ++i) net.cycle();
  });
  // The window must really carry traffic, or zero would prove nothing.
  EXPECT_GT(net.delivered() - delivered_before,
            static_cast<std::uint64_t>(kMeasuredCycles))
      << what;
  expect_no_allocs(allocs, what);
}

class MeshNetwork : public ::testing::TestWithParam<Scheme> {};

TEST_P(MeshNetwork, SaturatedStepDoesNotAllocate) {
  const Config cfg = apply_scheme(Config{}, GetParam());
  check_steady_state(cfg, scheme_name(GetParam()));
}

// XY and min-adaptive routing, with and without ARI (split-queue NIs,
// injection speedup, multi-level priorities).
INSTANTIATE_TEST_SUITE_P(
    Schemes, MeshNetwork,
    ::testing::Values(Scheme::kXYBaseline, Scheme::kXYARI,
                      Scheme::kAdaBaseline, Scheme::kAdaARI),
    [](const ::testing::TestParamInfo<Scheme>& info) {
      std::string name = scheme_name(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(TableRoutedNetwork, SaturatedChipletStepDoesNotAllocate) {
  Config cfg = apply_scheme(Config{}, Scheme::kAdaARI);
  cfg.fabric = "chiplet";  // 2x2 dies of 3x3 routers, serdes boundaries.
  cfg.mesh_width = 3;
  cfg.mesh_height = 3;
  cfg.chiplets_x = 2;
  cfg.chiplets_y = 2;
  ASSERT_EQ(topo::make_fabric(cfg).mesh_view(), nullptr);
  check_steady_state(cfg, "chiplet Ada-ARI");
}

TEST(Dram, TickAndDrainDoNotAllocate) {
  GddrDram dram(16, DramTimings{}, 64);
  Xoshiro256 rng(11);
  TxnId id = 0;
  std::uint64_t completed = 0;
  auto tick = [&](int i) {
    if (dram.can_enqueue()) {
      dram.enqueue({id++, static_cast<std::uint32_t>(rng.next_below(16)),
                    rng.next_below(64), rng.next_below(4) == 0, 0});
    }
    // Periodic reply-stage backpressure: reads wait, writes still drain.
    dram.tick(/*output_blocked=*/i % 97 < 10);
    completed += dram.drain_completed().size();
  };
  for (int i = 0; i < kWarmupCycles; ++i) tick(i);
  const std::uint64_t completed_before = completed;
  const std::uint64_t allocs = count_allocs([&] {
    for (int i = 0; i < kMeasuredCycles; ++i) tick(i);
  });
  EXPECT_GT(completed - completed_before, 100u);
  expect_no_allocs(allocs, "GddrDram tick + drain");
}

// A harness may construct an attributor it never attaches; that must not
// cost the 5 MiB packet ring, which is sized by the first delivery instead.
TEST(LatencyAttributor, UnattachedHoldsNoPacketRing) {
  const std::uint64_t before = g_alloc_bytes.load(std::memory_order_relaxed);
  const obs::LatencyAttributor attr;
  const std::uint64_t bytes =
      g_alloc_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_LT(bytes, 64u * 1024u);
  EXPECT_TRUE(attr.packets().empty());
}

// Informational, not gated: the full system still allocates in the MC/MSHR
// maps and the core front end.
TEST(FullSystem, ReportsAllocationsPerStep) {
  const Config cfg = apply_scheme(Config{}, Scheme::kAdaARI);
  GpgpuSim sim(cfg, *find_benchmark("bfs"));
  sim.run(2000);
  constexpr int kSteps = 1000;
  const std::uint64_t allocs = count_allocs([&] {
    for (int i = 0; i < kSteps; ++i) sim.step();
  });
  std::printf("[alloc] GpgpuSim::step on saturated bfs (Ada-ARI): %.2f "
              "allocations per step\n",
              static_cast<double>(allocs) / kSteps);
}

}  // namespace
