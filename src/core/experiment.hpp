// Experiment driver helpers shared by the bench binaries: building the
// Table-I base configuration, running (scheme x benchmark) combinations and
// collecting metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "core/gpgpu_sim.hpp"
#include "workloads/benchmark.hpp"

namespace arinoc {

/// The paper's Table-I configuration. `run_cycles`/`warmup_cycles` default
/// to values that keep the full-suite benches minutes-fast; individual
/// benches may lengthen them.
Config make_base_config();

/// Simulation length override honoured by every bench binary:
/// ARINOC_RUN_CYCLES / ARINOC_WARMUP_CYCLES environment variables. A
/// malformed value exits 2 with a message naming the variable.
Config apply_env_overrides(Config cfg);

struct RunResult {
  std::string benchmark;
  Scheme scheme;
  Metrics metrics;
};

/// Deterministic per-cell RNG seed: SplitMix64 over seed ^ FNV-1a(benchmark).
/// Different workloads get decorrelated streams; every scheme/point
/// comparison on the same benchmark stays seed-paired. This is the single
/// seeding discipline for run_scheme, run_suite, Sweep, and exec — results
/// depend only on (config, workload), never on thread count or scheduling.
std::uint64_t derive_cell_seed(std::uint64_t seed, std::string_view benchmark);

/// Resolves the full config for one simulation cell: scheme preset, then
/// the optional tweak, then per-cell seed derivation. Throws
/// std::invalid_argument when the result fails Config::validate().
Config resolve_cell_config(const Config& base, Scheme scheme,
                           const std::string& benchmark,
                           const std::function<void(Config&)>& tweak =
                               nullptr);

/// Runs one benchmark under one scheme (with optional config tweaking after
/// the scheme preset is applied) and returns the measured metrics.
Metrics run_scheme(const Config& base, Scheme scheme,
                   const std::string& benchmark,
                   const std::function<void(Config&)>& tweak = nullptr,
                   bool da2mesh = false);

/// Runs a list of benchmarks under one scheme.
std::vector<RunResult> run_suite(const Config& base, Scheme scheme,
                                 const std::vector<std::string>& benchmarks,
                                 bool da2mesh = false);

}  // namespace arinoc
