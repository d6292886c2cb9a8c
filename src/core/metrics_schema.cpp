#include "core/metrics_schema.hpp"

#include <type_traits>

namespace arinoc {

namespace {

template <class T, class U = std::remove_cvref_t<T>>
constexpr MetricKind kind_of() {
  if constexpr (std::is_same_v<U, bool>) return MetricKind::kBool;
  if constexpr (std::is_same_v<U, double>) return MetricKind::kDouble;
  if constexpr (std::is_same_v<U, std::string>) return MetricKind::kString;
  return MetricKind::kU64;  // Any other type fails std::get in the setter.
}

constexpr std::uint8_t kJson = kMetricJson;
constexpr std::uint8_t kAttr = kMetricJson | kMetricAttr;  // Reported too.

// A stored row: `member` is the field's path inside Metrics, nested members
// and array slots included; its declared type sets the kind.
#define STORED(name, flags, member)                                       \
  MetricField{name, kind_of<decltype(Metrics{}.member)>(), flags,         \
              [](const Metrics& m) -> MetricValue { return m.member; },   \
              [](Metrics& m, const MetricValue& v) {                      \
                m.member = std::get<std::decay_t<decltype(m.member)>>(v); \
              }}

// A derived row: `expr` computes a `type` value from Metrics `m`.
#define DERIVED(name, flags, type, expr)                                  \
  MetricField{name, kind_of<type>(), flags,                               \
              [](const Metrics& m) -> MetricValue { return type(expr); }, \
              nullptr}

constexpr MetricField kFields[] = {
    STORED("cycles", kJson, cycles),
    STORED("warp_instructions", kJson, warp_instructions),
    STORED("ipc", kJson, ipc),
    STORED("request_latency", kJson, request_latency),
    STORED("reply_latency", kJson, reply_latency),
    STORED("request_latency_p50", kJson, request_latency_p50),
    STORED("request_latency_p95", kJson, request_latency_p95),
    STORED("request_latency_p99", kJson, request_latency_p99),
    STORED("reply_latency_p50", kJson, reply_latency_p50),
    STORED("reply_latency_p95", kJson, reply_latency_p95),
    STORED("reply_latency_p99", kJson, reply_latency_p99),
    // Per-PacketType slots, in PacketType order.
    STORED("latency_p99_read_request", kJson, latency_p99_by_type[0]),
    STORED("latency_p99_write_request", kJson, latency_p99_by_type[1]),
    STORED("latency_p99_read_reply", kJson, latency_p99_by_type[2]),
    STORED("latency_p99_write_reply", kJson, latency_p99_by_type[3]),
    STORED("mc_stall_cycles", kJson, mc_stall_cycles),
    STORED("flits_read_request", kJson, flits_by_type[0]),
    STORED("flits_write_request", kJson, flits_by_type[1]),
    STORED("flits_read_reply", kJson, flits_by_type[2]),
    STORED("flits_write_reply", kJson, flits_by_type[3]),
    STORED("packets_read_request", 0, packets_by_type[0]),
    STORED("packets_write_request", 0, packets_by_type[1]),
    STORED("packets_read_reply", 0, packets_by_type[2]),
    STORED("packets_write_reply", 0, packets_by_type[3]),
    STORED("reply_injection_util", kJson, reply_injection_util),
    STORED("reply_internal_util", kJson, reply_internal_util),
    STORED("request_injection_util", kJson, request_injection_util),
    STORED("request_internal_util", kJson, request_internal_util),
    STORED("ni_occupancy_pkts", kJson, ni_occupancy_pkts),
    STORED("l1_hit_rate", kJson, l1_hit_rate),
    STORED("l2_hit_rate", kJson, l2_hit_rate),
    STORED("dram_row_hit_rate", kJson, dram_row_hit_rate),
    STORED("flits_corrupted", kJson, flits_corrupted),
    STORED("packets_corrupted", kJson, packets_corrupted),
    STORED("packets_retransmitted", kJson, packets_retransmitted),
    STORED("packets_recovered", kJson, packets_recovered),
    STORED("packets_lost", kJson, packets_lost),
    STORED("duplicates_dropped", kJson, duplicates_dropped),
    STORED("credits_lost", kJson, credits_lost),
    STORED("link_stall_events", kJson, link_stall_events),
    STORED("port_failures", kJson, port_failures),
    STORED("requests_offered", kJson, requests_offered),
    STORED("requests_completed", kJson, requests_completed),
    STORED("requests_shed", kJson, requests_shed),
    STORED("requests_deferred", kJson, requests_deferred),
    STORED("queue_drops", kJson, queue_drops),
    STORED("offered_rate", kJson, offered_rate),
    STORED("goodput", kJson, goodput),
    STORED("e2e_latency_p50", kJson, e2e_latency_p50),
    STORED("e2e_latency_p99", kJson, e2e_latency_p99),
    STORED("e2e_latency_p999", kJson, e2e_latency_p999),
    STORED("request_latency_p999", kJson, request_latency_p999),
    STORED("reply_latency_p999", kJson, reply_latency_p999),
    STORED("degrade_transitions", kJson, degrade_transitions),
    STORED("cycles_normal", kJson, cycles_normal),
    STORED("cycles_throttled", kJson, cycles_throttled),
    STORED("cycles_shedding", kJson, cycles_shedding),
    DERIVED("cycles_degraded", 0, std::uint64_t,
            m.cycles_throttled + m.cycles_shedding),
    STORED("watchdog_pre_trips", kJson, watchdog_pre_trips),
    // Activity counters (energy-model inputs); only retx is reported.
    STORED("act_noc_link_flits", 0, activity.noc_link_flits),
    STORED("act_noc_buffer_ops", 0, activity.noc_buffer_ops),
    STORED("act_noc_crossbar", 0, activity.noc_crossbar),
    STORED("retx_flits", kJson, activity.noc_retx_flits),
    STORED("act_dram_activates", 0, activity.dram_activates),
    STORED("act_dram_accesses", 0, activity.dram_accesses),
    STORED("act_l2_accesses", 0, activity.l2_accesses),
    STORED("act_l1_accesses", 0, activity.l1_accesses),
    STORED("act_core_instructions", 0, activity.core_instructions),
    STORED("act_cycles", 0, activity.cycles),
    STORED("energy_dynamic_noc_nj", 0, energy.dynamic_noc_nj),
    STORED("energy_dynamic_mem_nj", 0, energy.dynamic_mem_nj),
    STORED("energy_dynamic_core_nj", 0, energy.dynamic_core_nj),
    DERIVED("energy_dynamic_nj", kJson, double, m.energy.dynamic_nj()),
    STORED("energy_static_nj", kJson, energy.static_nj),
    DERIVED("energy_total_nj", kJson, double, m.energy.total_nj()),
    // Share of retransmitted packets that made it; 1.0 ("nothing lost")
    // when no faults fired, so a fault-campaign cell can't drop the metric.
    DERIVED("recovery_rate", 0, double,
            m.packets_retransmitted == 0
                ? 1.0
                : static_cast<double>(m.packets_recovered) /
                      static_cast<double>(m.packets_retransmitted)),
    // Latency attribution: per-stage shares of delivered latency, per
    // fabric, in stage order (ni_queue, vc_wait, sw_wait, link, eject, retx).
    STORED("attr_enabled", 0, attr_enabled),
    STORED("attr_request_ni_queue", kAttr, request_stage_share[0]),
    STORED("attr_request_vc_wait", kAttr, request_stage_share[1]),
    STORED("attr_request_sw_wait", kAttr, request_stage_share[2]),
    STORED("attr_request_link", kAttr, request_stage_share[3]),
    STORED("attr_request_eject", kAttr, request_stage_share[4]),
    STORED("attr_request_retx", kAttr, request_stage_share[5]),
    STORED("attr_reply_ni_queue", kAttr, reply_stage_share[0]),
    STORED("attr_reply_vc_wait", kAttr, reply_stage_share[1]),
    STORED("attr_reply_sw_wait", kAttr, reply_stage_share[2]),
    STORED("attr_reply_link", kAttr, reply_stage_share[3]),
    STORED("attr_reply_eject", kAttr, reply_stage_share[4]),
    STORED("attr_reply_retx", kAttr, reply_stage_share[5]),
    STORED("attr_violations", kAttr, attr_violations),
    STORED("bottleneck", kAttr, bottleneck),
};

#undef STORED
#undef DERIVED

}  // namespace

std::span<const MetricField> metric_fields() { return kFields; }

const MetricField* find_metric_field(std::string_view name) {
  for (const MetricField& f : kFields) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

double metric_number(const MetricValue& v) {
  const auto* u = std::get_if<std::uint64_t>(&v);
  return u ? static_cast<double>(*u) : std::get<double>(v);
}

}  // namespace arinoc
