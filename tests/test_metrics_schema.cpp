// Format pin for every consumer of the Metrics field table
// (core/metrics_schema.hpp). A Metrics record with a distinct value in every
// field must render to exactly the report JSON, sweep CSV and baseline
// snapshot text recorded below, and must survive a result-cache round trip
// unchanged. Any refactor of the table or its consumers that moves a key,
// changes a number's spelling or drops a field fails here.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics_schema.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "exec/result_cache.hpp"
#include "obs/regress/baseline.hpp"

namespace arinoc {
namespace {

// Every field gets a distinct value; counts are >= 1e6 so a u64 printed as
// a double would show up as 1.23457e+06.
Metrics filled_metrics(bool attr) {
  Metrics m;
  m.cycles = 1234567;
  m.warp_instructions = 98765432;
  m.ipc = 79.99913;
  m.request_latency = 21.5;
  m.reply_latency = 143.25;
  m.request_latency_p50 = 17.0;
  m.request_latency_p95 = 40.5;
  m.request_latency_p99 = 61.125;
  m.reply_latency_p50 = 120.0;
  m.reply_latency_p95 = 280.75;
  m.reply_latency_p99 = 402.0625;
  m.latency_p99_by_type = {55.5, 66.25, 410.875, 390.0};
  m.mc_stall_cycles = 2000003;
  m.flits_by_type = {3000001, 3000002, 3000003, 3000004};
  m.packets_by_type = {4000001, 4000002, 4000003, 4000004};
  m.reply_injection_util = 0.8125;
  m.reply_internal_util = 0.3046875;
  m.request_injection_util = 0.21875;
  m.request_internal_util = 0.109375;
  m.ni_occupancy_pkts = 7.0625;
  m.l1_hit_rate = 0.4375;
  m.l2_hit_rate = 0.6640625;
  m.dram_row_hit_rate = 0.5234375;
  m.flits_corrupted = 5000001;
  m.packets_corrupted = 5000002;
  m.packets_retransmitted = 5000003;
  m.packets_recovered = 5000000;
  m.packets_lost = 3;
  m.duplicates_dropped = 5000004;
  m.credits_lost = 5000005;
  m.link_stall_events = 5000006;
  m.port_failures = 5000007;
  m.requests_offered = 6000001;
  m.requests_completed = 6000002;
  m.requests_shed = 6000003;
  m.requests_deferred = 6000004;
  m.queue_drops = 6000005;
  m.offered_rate = 0.0703125;
  m.goodput = 0.0625;
  m.e2e_latency_p50 = 250.5;
  m.e2e_latency_p99 = 1900.25;
  m.e2e_latency_p999 = 4100.125;
  m.request_latency_p999 = 88.5;
  m.reply_latency_p999 = 777.75;
  m.degrade_transitions = 7000001;
  m.cycles_normal = 7000002;
  m.cycles_throttled = 7000003;
  m.cycles_shedding = 7000004;
  m.watchdog_pre_trips = 7000005;
  m.attr_enabled = attr;
  m.request_stage_share = {0.015625, 0.03125, 0.046875, 0.0625, 0.078125,
                           0.09375};
  m.reply_stage_share = {0.109375, 0.125, 0.140625, 0.15625, 0.171875,
                         0.1875};
  m.attr_violations = 8000001;
  m.bottleneck = "reply ni_queue at \"mc21\", 61.0% \\ tail";
  m.activity.noc_link_flits = 9000001;
  m.activity.noc_buffer_ops = 9000002;
  m.activity.noc_crossbar = 9000003;
  m.activity.noc_retx_flits = 9000004;
  m.activity.dram_activates = 9000005;
  m.activity.dram_accesses = 9000006;
  m.activity.l2_accesses = 9000007;
  m.activity.l1_accesses = 9000008;
  m.activity.core_instructions = 9000009;
  m.activity.cycles = 18446744073709551615ull;  // Cache-only: UINT64_MAX.
  m.energy.dynamic_noc_nj = 12345.6789;
  m.energy.dynamic_mem_nj = 23456.789;
  m.energy.dynamic_core_nj = 3456.78901;
  m.energy.static_nj = 1.5e16;
  return m;
}

constexpr const char kJsonAttrOff[] = R"({
  "cycles": 1234567,
  "warp_instructions": 98765432,
  "ipc": 79.9991,
  "request_latency": 21.5,
  "reply_latency": 143.25,
  "request_latency_p50": 17,
  "request_latency_p95": 40.5,
  "request_latency_p99": 61.125,
  "reply_latency_p50": 120,
  "reply_latency_p95": 280.75,
  "reply_latency_p99": 402.062,
  "latency_p99_read_request": 55.5,
  "latency_p99_write_request": 66.25,
  "latency_p99_read_reply": 410.875,
  "latency_p99_write_reply": 390,
  "mc_stall_cycles": 2000003,
  "flits_read_request": 3000001,
  "flits_write_request": 3000002,
  "flits_read_reply": 3000003,
  "flits_write_reply": 3000004,
  "reply_injection_util": 0.8125,
  "reply_internal_util": 0.304688,
  "request_injection_util": 0.21875,
  "request_internal_util": 0.109375,
  "ni_occupancy_pkts": 7.0625,
  "l1_hit_rate": 0.4375,
  "l2_hit_rate": 0.664062,
  "dram_row_hit_rate": 0.523438,
  "flits_corrupted": 5000001,
  "packets_corrupted": 5000002,
  "packets_retransmitted": 5000003,
  "packets_recovered": 5000000,
  "packets_lost": 3,
  "duplicates_dropped": 5000004,
  "credits_lost": 5000005,
  "link_stall_events": 5000006,
  "port_failures": 5000007,
  "requests_offered": 6000001,
  "requests_completed": 6000002,
  "requests_shed": 6000003,
  "requests_deferred": 6000004,
  "queue_drops": 6000005,
  "offered_rate": 0.0703125,
  "goodput": 0.0625,
  "e2e_latency_p50": 250.5,
  "e2e_latency_p99": 1900.25,
  "e2e_latency_p999": 4100.12,
  "request_latency_p999": 88.5,
  "reply_latency_p999": 777.75,
  "degrade_transitions": 7000001,
  "cycles_normal": 7000002,
  "cycles_throttled": 7000003,
  "cycles_shedding": 7000004,
  "watchdog_pre_trips": 7000005,
  "retx_flits": 9000004,
  "energy_dynamic_nj": 39259.3,
  "energy_static_nj": 1.5e+16,
  "energy_total_nj": 1.5e+16
})";

constexpr const char kJsonAttrOn[] = R"({
  "cycles": 1234567,
  "warp_instructions": 98765432,
  "ipc": 79.9991,
  "request_latency": 21.5,
  "reply_latency": 143.25,
  "request_latency_p50": 17,
  "request_latency_p95": 40.5,
  "request_latency_p99": 61.125,
  "reply_latency_p50": 120,
  "reply_latency_p95": 280.75,
  "reply_latency_p99": 402.062,
  "latency_p99_read_request": 55.5,
  "latency_p99_write_request": 66.25,
  "latency_p99_read_reply": 410.875,
  "latency_p99_write_reply": 390,
  "mc_stall_cycles": 2000003,
  "flits_read_request": 3000001,
  "flits_write_request": 3000002,
  "flits_read_reply": 3000003,
  "flits_write_reply": 3000004,
  "reply_injection_util": 0.8125,
  "reply_internal_util": 0.304688,
  "request_injection_util": 0.21875,
  "request_internal_util": 0.109375,
  "ni_occupancy_pkts": 7.0625,
  "l1_hit_rate": 0.4375,
  "l2_hit_rate": 0.664062,
  "dram_row_hit_rate": 0.523438,
  "flits_corrupted": 5000001,
  "packets_corrupted": 5000002,
  "packets_retransmitted": 5000003,
  "packets_recovered": 5000000,
  "packets_lost": 3,
  "duplicates_dropped": 5000004,
  "credits_lost": 5000005,
  "link_stall_events": 5000006,
  "port_failures": 5000007,
  "requests_offered": 6000001,
  "requests_completed": 6000002,
  "requests_shed": 6000003,
  "requests_deferred": 6000004,
  "queue_drops": 6000005,
  "offered_rate": 0.0703125,
  "goodput": 0.0625,
  "e2e_latency_p50": 250.5,
  "e2e_latency_p99": 1900.25,
  "e2e_latency_p999": 4100.12,
  "request_latency_p999": 88.5,
  "reply_latency_p999": 777.75,
  "degrade_transitions": 7000001,
  "cycles_normal": 7000002,
  "cycles_throttled": 7000003,
  "cycles_shedding": 7000004,
  "watchdog_pre_trips": 7000005,
  "retx_flits": 9000004,
  "energy_dynamic_nj": 39259.3,
  "energy_static_nj": 1.5e+16,
  "energy_total_nj": 1.5e+16,
  "attr_request_ni_queue": 0.015625,
  "attr_request_vc_wait": 0.03125,
  "attr_request_sw_wait": 0.046875,
  "attr_request_link": 0.0625,
  "attr_request_eject": 0.078125,
  "attr_request_retx": 0.09375,
  "attr_reply_ni_queue": 0.109375,
  "attr_reply_vc_wait": 0.125,
  "attr_reply_sw_wait": 0.140625,
  "attr_reply_link": 0.15625,
  "attr_reply_eject": 0.171875,
  "attr_reply_retx": 0.1875,
  "attr_violations": 8000001,
  "bottleneck": "reply ni_queue at \"mc21\", 61.0% \\ tail"
})";

constexpr const char kSweepCsv[] = R"(point,scheme,benchmark,cycles,ipc,request_latency,reply_latency,mc_stall_cycles,reply_injection_util,reply_internal_util,l1_hit_rate,l2_hit_rate,dram_row_hit_rate,energy_total_nj,reply_latency_p50,reply_latency_p95,reply_latency_p99,reply_latency_p999,offered_rate,goodput,requests_shed,e2e_latency_p99,cycles_degraded,fabric,bottleneck,error
S=1,Ada-ARI,bfs,1234567,79.9991,21.5,143.25,2000003,0.8125,0.304688,0.4375,0.664062,0.523438,1.5e+16,120,280.75,402.062,777.75,0.0703125,0.0625,6000003,1900.25,14000007,mesh,"reply ni_queue at ""mc21"", 61.0% \ tail",
"load 0.5, ""hot""",XY-Baseline,hotspot,1234567,79.9991,21.5,143.25,2000003,0.8125,0.304688,0.4375,0.664062,0.523438,1.5e+16,120,280.75,402.062,777.75,0.0703125,0.0625,6000003,1900.25,14000007,file:0011,"reply ni_queue at ""mc21"", 61.0% \ tail",
S=2,Ada-ARI,kmeans,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,torus,,"deadlock: cycle 42: stuck, ""vc"" 3"
)";

constexpr const char kSnapshotAttrOff[] = R"(cycles=1234567
warp_instructions=98765432
ipc=79.999129999999994
request_latency=21.5
reply_latency=143.25
request_latency_p50=17
request_latency_p95=40.5
request_latency_p99=61.125
request_latency_p999=88.5
reply_latency_p50=120
reply_latency_p95=280.75
reply_latency_p99=402.0625
reply_latency_p999=777.75
e2e_latency_p50=250.5
e2e_latency_p99=1900.25
e2e_latency_p999=4100.125
mc_stall_cycles=2000003
energy_total_nj=15000000000039260
goodput=0.0625
offered_rate=0.0703125
recovery_rate=0.99999940000036003
)";

constexpr const char kSnapshotAttrOn[] = R"(cycles=1234567
warp_instructions=98765432
ipc=79.999129999999994
request_latency=21.5
reply_latency=143.25
request_latency_p50=17
request_latency_p95=40.5
request_latency_p99=61.125
request_latency_p999=88.5
reply_latency_p50=120
reply_latency_p95=280.75
reply_latency_p99=402.0625
reply_latency_p999=777.75
e2e_latency_p50=250.5
e2e_latency_p99=1900.25
e2e_latency_p999=4100.125
mc_stall_cycles=2000003
energy_total_nj=15000000000039260
goodput=0.0625
offered_rate=0.0703125
recovery_rate=0.99999940000036003
attr_request_ni_queue=0.015625
attr_request_vc_wait=0.03125
attr_request_sw_wait=0.046875
attr_request_link=0.0625
attr_request_eject=0.078125
attr_request_retx=0.09375
attr_reply_ni_queue=0.109375
attr_reply_vc_wait=0.125
attr_reply_sw_wait=0.140625
attr_reply_link=0.15625
attr_reply_eject=0.171875
attr_reply_retx=0.1875
)";

std::string render_snapshot(const Metrics& m) {
  std::string out;
  for (const auto& [name, value] : obs::regress::snapshot_metrics(m)) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += name + "=" + buf + "\n";
  }
  return out;
}

TEST(MetricsSchema, ReportJsonMatchesRecordedFormat) {
  EXPECT_EQ(metrics_to_json(filled_metrics(false)), kJsonAttrOff);
  EXPECT_EQ(metrics_to_json(filled_metrics(true)), kJsonAttrOn);
}

SweepCell sweep_cell(std::string point, std::string benchmark,
                     std::string fabric, Metrics m) {
  SweepCell c;
  c.point = std::move(point);
  c.scheme = "Ada-ARI";
  c.benchmark = std::move(benchmark);
  c.fabric = std::move(fabric);
  c.metrics = std::move(m);
  return c;
}

TEST(MetricsSchema, SweepCsvMatchesRecordedFormat) {
  std::vector<SweepCell> cells = {
      sweep_cell("S=1", "bfs", "mesh", filled_metrics(false)),
      sweep_cell("load 0.5, \"hot\"", "hotspot", "file:0011",
                 filled_metrics(true)),
      sweep_cell("S=2", "kmeans", "torus", Metrics{}),
  };
  cells[1].scheme = "XY-Baseline";
  cells[2].error = "cycle 42: stuck, \"vc\" 3";
  cells[2].error_kind = "deadlock";
  EXPECT_EQ(Sweep::to_csv(cells), kSweepCsv);
}

TEST(MetricsSchema, BaselineSnapshotMatchesRecordedFormat) {
  EXPECT_EQ(render_snapshot(filled_metrics(false)), kSnapshotAttrOff);
  EXPECT_EQ(render_snapshot(filled_metrics(true)), kSnapshotAttrOn);
}

TEST(MetricsSchema, FillerCoversEveryStoredRow) {
  // Guards the pins above: a row the filler leaves at its default would
  // hide a wrong accessor behind two equal zeros.
  const Metrics filled = filled_metrics(true);
  const Metrics blank;
  for (const MetricField& f : metric_fields()) {
    if (f.stored()) {
      EXPECT_NE(f.get(filled), f.get(blank)) << f.name;
    }
  }
}

TEST(MetricsSchema, CacheRoundTripIsLosslessForEveryStoredRow) {
  for (const bool attr : {false, true}) {
    const Metrics m = filled_metrics(attr);
    const std::string text = exec::serialize_metrics(m);
    const auto back = exec::deserialize_metrics(text);
    ASSERT_TRUE(back.has_value());
    for (const MetricField& f : metric_fields()) {
      EXPECT_EQ(f.get(*back), f.get(m)) << f.name;
    }
    EXPECT_EQ(exec::serialize_metrics(*back), text);
  }
}

TEST(MetricsSchema, RowNamesAreUniqueAndValuesMatchTheirKind) {
  std::set<std::string> names;
  const Metrics m = filled_metrics(true);
  for (const MetricField& f : metric_fields()) {
    EXPECT_TRUE(names.insert(f.name).second) << "duplicate row " << f.name;
    EXPECT_EQ(f.get(m).index(), static_cast<std::size_t>(f.kind)) << f.name;
    EXPECT_EQ(find_metric_field(f.name), &f);
  }
  EXPECT_EQ(find_metric_field("no_such_metric"), nullptr);
}

}  // namespace
}  // namespace arinoc
