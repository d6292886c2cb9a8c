#include "core/experiment.hpp"

#include <cstdint>
#include <stdexcept>

#include "common/numparse.hpp"
#include "exec/runner.hpp"

namespace arinoc {

Config make_base_config() {
  Config cfg;  // Defaults already encode Table I.
  cfg.warmup_cycles = 2000;
  cfg.run_cycles = 8000;  // Keeps full-suite benches minutes-fast; export
                          // ARINOC_RUN_CYCLES for higher-fidelity runs.
  return apply_env_overrides(cfg);
}

Config apply_env_overrides(Config cfg) {
  if (const auto rc = env_uint("ARINOC_RUN_CYCLES", UINT64_MAX)) {
    cfg.run_cycles = *rc;
  }
  if (const auto wc = env_uint("ARINOC_WARMUP_CYCLES", UINT64_MAX)) {
    cfg.warmup_cycles = *wc;
  }
  return cfg;
}

std::uint64_t derive_cell_seed(std::uint64_t seed,
                               std::string_view benchmark) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the workload name.
  for (const unsigned char c : benchmark) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  std::uint64_t z = (seed ^ h) + 0x9e3779b97f4a7c15ull;  // SplitMix64 mix.
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Config resolve_cell_config(const Config& base, Scheme scheme,
                           const std::string& benchmark,
                           const std::function<void(Config&)>& tweak) {
  Config cfg = apply_scheme(base, scheme);
  if (tweak) tweak(cfg);
  cfg.seed = derive_cell_seed(cfg.seed, benchmark);
  const std::string err = cfg.validate();
  if (!err.empty()) {
    throw std::invalid_argument("invalid configuration for scheme " +
                                std::string(scheme_name(scheme)) + ": " + err);
  }
  return cfg;
}

Metrics run_scheme(const Config& base, Scheme scheme,
                   const std::string& benchmark,
                   const std::function<void(Config&)>& tweak, bool da2mesh) {
  const BenchmarkTraits* traits = find_benchmark(benchmark);
  if (traits == nullptr) {
    throw std::invalid_argument("unknown benchmark '" + benchmark + "'");
  }
  const Config cfg = resolve_cell_config(base, scheme, benchmark, tweak);
  GpgpuSim sim(cfg, *traits, da2mesh);
  sim.run_with_warmup();
  return sim.collect();
}

std::vector<RunResult> run_suite(const Config& base, Scheme scheme,
                                 const std::vector<std::string>& benchmarks,
                                 bool da2mesh) {
  // One runner per call: parallel across benchmarks, submission-ordered
  // results, no caching (callers opt into caching via exec directly).
  exec::ExperimentRunner runner(base, exec::ExecOptions{});
  std::vector<exec::CellSpec> cells;
  cells.reserve(benchmarks.size());
  for (const auto& b : benchmarks) {
    cells.push_back({"suite", scheme, b, nullptr, da2mesh});
  }
  const auto ran = runner.run(cells);

  std::vector<RunResult> results;
  results.reserve(ran.size());
  for (const auto& r : ran) {
    if (!r.ok()) {  // Preserve the historical all-or-throw contract.
      throw std::runtime_error("run_suite: " + r.scheme + "/" + r.benchmark +
                               " failed (" + r.error_kind + "): " + r.error);
    }
    results.push_back({r.benchmark, scheme, r.metrics});
  }
  return results;
}

}  // namespace arinoc
