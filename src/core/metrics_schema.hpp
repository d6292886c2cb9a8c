// The Metrics field table: one row per field with its name, kind and
// accessor. Report JSON, the result cache, sweep CSV and baseline snapshots
// read fields through it (docs/observability.md, "Adding a metric").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "core/gpgpu_sim.hpp"

namespace arinoc {

/// Value kind of a row, in the order of MetricValue's alternatives.
enum class MetricKind : std::uint8_t { kU64, kDouble, kBool, kString };
using MetricValue = std::variant<std::uint64_t, double, bool, std::string>;

inline constexpr std::uint8_t kMetricJson = 1;  ///< A metrics_to_json key.
inline constexpr std::uint8_t kMetricAttr = 2;  ///< Only if attr_enabled.

struct MetricField {
  const char* name;
  MetricKind kind;
  std::uint8_t flags;
  MetricValue (*get)(const Metrics&);
  /// Null for derived rows, which are computed from stored fields.
  void (*set)(Metrics&, const MetricValue&);

  bool stored() const { return set != nullptr; }
};

/// Every row. Report-JSON rows are in their key order; rows the report
/// leaves out sit next to their siblings.
std::span<const MetricField> metric_fields();

/// The row named `name`, or null.
const MetricField* find_metric_field(std::string_view name);

/// A u64 or double value as a double (throws on the other kinds).
double metric_number(const MetricValue& v);

}  // namespace arinoc
