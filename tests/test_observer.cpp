// The per-network packet observer (obs/observer) is the one hook every NoC
// event site calls; it fans each event out to the attached tracer and
// attributor. These tests pin what the two sinks see:
//
//  * golden digests of the Chrome trace JSON, the tracer breakdown text and
//    the attribution JSON on three cells (a plain mesh, a fault campaign
//    that fires Corrupt/Drop/Retransmit and the retx stage, and a chiplet
//    fabric with serdes links), recorded from a build that predates the
//    observer — a change in event order or content shows up here even when
//    the build is self-consistent;
//  * fan-out: tracer and attributor attached together see exactly what each
//    sees alone;
//  * attach-time serial fallback: attaching and detaching mid-run under a
//    thread team leaves the run identical to a serial one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/config.hpp"
#include "core/experiment.hpp"
#include "core/gpgpu_sim.hpp"
#include "core/report.hpp"
#include "exec/result_cache.hpp"
#include "obs/attr.hpp"
#include "obs/trace.hpp"
#include "workloads/benchmark.hpp"

namespace arinoc {
namespace {

enum class Cell { kMesh, kFaults, kChiplet };

const char* cell_name(Cell c) {
  switch (c) {
    case Cell::kMesh: return "mesh4x4-ada-ari-bfs";
    case Cell::kFaults: return "mesh4x4-ada-ari-bfs-faults";
    case Cell::kChiplet: return "chiplet2x2-serdes-ada-ari-hotspot";
  }
  return "?";
}

const char* cell_benchmark(Cell c) {
  return c == Cell::kChiplet ? "hotspot" : "bfs";
}

Config cell_config(Cell c, std::uint32_t threads) {
  Config cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.num_mcs = 4;
  cfg.warmup_cycles = 300;
  cfg.run_cycles = 1500;
  cfg.threads = threads;
  if (c == Cell::kFaults) {
    cfg.fault_corrupt_rate = 2e-3;
    cfg.fault_credit_loss_rate = 5e-4;
  } else if (c == Cell::kChiplet) {
    cfg.fabric = "chiplet";
    cfg.mesh_width = 2;
    cfg.mesh_height = 2;
    cfg.chiplets_x = 2;
    cfg.chiplets_y = 2;
    cfg.serdes_latency = 4;
  }
  return resolve_cell_config(cfg, Scheme::kAdaARI, cell_benchmark(c));
}

struct Observed {
  std::string trace_json;
  std::string breakdown;
  std::string attr_json;
  std::string metrics_json;
  obs::PacketTracer tracer;
  obs::LatencyAttributor attr;
};

/// Runs one cell with the requested sinks attached for the whole run.
void run_cell(Cell c, std::uint32_t threads, bool trace, bool attribute,
              Observed& out) {
  GpgpuSim sim(cell_config(c, threads), *find_benchmark(cell_benchmark(c)));
  if (trace) sim.attach_tracer(&out.tracer);
  if (attribute) sim.attach_attributor(&out.attr);
  sim.run_with_warmup();
  out.metrics_json = metrics_to_json(sim.collect());
  if (trace) {
    out.trace_json = out.tracer.to_chrome_json();
    out.breakdown = out.tracer.breakdown_report();
  }
  if (attribute) out.attr_json = out.attr.to_json();
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool saw_kind(const obs::PacketTracer& t, obs::TraceEventKind k) {
  for (const obs::TraceEvent& e : t.events()) {
    if (e.kind == k) return true;
  }
  return false;
}

struct Golden {
  Cell cell;
  std::uint64_t trace_json;
  std::uint64_t breakdown;
  std::uint64_t attr_json;
};

// FNV-1a-64 of each artifact, recorded from the build before the observer
// replaced the per-component tracer/attributor hooks.
constexpr Golden kGolden[] = {
    {Cell::kMesh, 0xdb0b6c7203862ed2ull, 0x82c09c4e8901d660ull,
     0x9744319b121d8254ull},
    {Cell::kFaults, 0x8ce23b67df532c93ull, 0x68bb6831cf38b955ull,
     0x0782d256844579ceull},
    {Cell::kChiplet, 0x4ab9b26bfddeb8b4ull, 0x9dec756940a3592aull,
     0x9416d7b0a48543deull},
};

TEST(ObserverGolden, ArtifactsMatchDigestsRecordedBeforeTheObserver) {
  for (const Golden& g : kGolden) {
    for (const std::uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(cell_name(g.cell)) +
                   " threads=" + std::to_string(threads));
      Observed o;
      run_cell(g.cell, threads, true, true, o);
      EXPECT_EQ(hex(exec::fnv1a64(o.trace_json)), hex(g.trace_json));
      EXPECT_EQ(hex(exec::fnv1a64(o.breakdown)), hex(g.breakdown));
      EXPECT_EQ(hex(exec::fnv1a64(o.attr_json)), hex(g.attr_json));
      EXPECT_EQ(o.attr.conservation_violations(), 0u);
      if (g.cell == Cell::kFaults) {
        // The fault cell must exercise the recovery-path events, or its
        // digests pin nothing the plain cell does not.
        EXPECT_TRUE(saw_kind(o.tracer, obs::TraceEventKind::kCorrupt));
        EXPECT_TRUE(saw_kind(o.tracer, obs::TraceEventKind::kDrop));
        EXPECT_TRUE(saw_kind(o.tracer, obs::TraceEventKind::kRetransmit));
        EXPECT_GT(o.attr.stage_total(0, obs::AttrStage::kRetx) +
                      o.attr.stage_total(1, obs::AttrStage::kRetx),
                  0u);
      }
    }
  }
}

TEST(ObserverFanOut, BothSinksTogetherMatchEachSinkAlone) {
  for (const Cell c : {Cell::kFaults, Cell::kChiplet}) {
    SCOPED_TRACE(cell_name(c));
    Observed trace_only, attr_only, both;
    run_cell(c, 1, true, false, trace_only);
    run_cell(c, 1, false, true, attr_only);
    run_cell(c, 1, true, true, both);
    EXPECT_GT(trace_only.tracer.recorded(), 0u);
    EXPECT_GT(attr_only.attr.delivered(), 0u);
    EXPECT_EQ(both.trace_json, trace_only.trace_json);
    EXPECT_EQ(both.breakdown, trace_only.breakdown);
    EXPECT_EQ(both.attr_json, attr_only.attr_json);
    EXPECT_EQ(both.metrics_json, attr_only.metrics_json);
    EXPECT_EQ(both.tracer.recorded(), trace_only.tracer.recorded());
  }
}

TEST(ObserverFallback, MidRunAttachAndDetachStayIdenticalAcrossThreads) {
  // Attach flips the networks to serial stepping and detach flips them back,
  // migrating in-flight link and activity state both ways; neither flip may
  // change a single event or metric.
  const auto run = [](std::uint32_t threads, std::string* trace) {
    GpgpuSim sim(cell_config(Cell::kFaults, threads),
                 *find_benchmark(cell_benchmark(Cell::kFaults)));
    obs::PacketTracer tracer;
    obs::LatencyAttributor attr;
    sim.run(400);
    sim.attach_tracer(&tracer);
    sim.run(300);
    sim.attach_attributor(&attr);
    sim.run(300);
    sim.attach_tracer(nullptr);
    sim.run(300);
    sim.attach_attributor(nullptr);
    sim.run(400);
    *trace = tracer.to_chrome_json() + attr.to_json();
    return metrics_to_json(sim.collect());
  };
  std::string t1, t4;
  const std::string m1 = run(1, &t1);
  const std::string m4 = run(4, &t4);
  EXPECT_EQ(m1, m4);
  EXPECT_EQ(t1, t4);
}

}  // namespace
}  // namespace arinoc
