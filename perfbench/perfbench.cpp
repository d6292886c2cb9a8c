// perfbench — host-time benchmark driver for the arinoc simulator library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Drives one workload (see README.md) from a single process through the
// library's public entry points only: GpgpuSim construction, step(),
// reset_stats(), collect(); exec::ExperimentRunner::run; topo::make_fabric,
// topo::partition_fabric; Network::step; GddrDram::tick; TraceGen::next. It
// times those calls from outside and adds no instrumentation of its own to
// the program.
//
// A run repeats *rounds* until `--seconds` of wall time have been spent
// (always at least one round). A round is
//   1. a direct pass: every direct cell (Ada-ARI on each of the workload's
//      benchmarks) constructed, stepped cycle by cycle and collected
//      in-process, one after the other;
//   2. a cold grid pass: {Ada-Baseline, Ada-ARI} x benchmarks through
//      ExperimentRunner into a fresh, empty result-cache directory;
//   3. a warm grid pass: the same grid again, which must be served entirely
//      from the cache.
// Each round starts with a few timed constructions of every direct cell
// (set-up samples). With --trace 1 every direct cell runs four times per
// round — untraced, with obs::SelfProfiler attached, with
// obs::LatencyAttributor attached, and untraced with a two-thread network
// team — back to back in rotating order, and standalone per-layer probes run
// after the rounds.
//
// Correctness: every simulation's provenance-free metrics_to_json is
// digested (FNV-1a-64). All simulations of one cell within the run — direct,
// cold, warm, traced (attribution fields scrubbed) and two-thread — must
// give one digest; run.py also compares the digests with the recorded ones
// at the default seed. A watchdog trip, an
// error cell, a cache miss on the warm pass, an attribution conservation
// violation or a digest mismatch each count as a failed simulation.
//
// Output: one JSON object on stdout (schema "arinoc-perfbench-raw-v1") with
// the attempted/failed counts, the per-cell digests, the metrics and a few
// informational values. Exit 0 when the run completed (even with failed
// simulations: run.py owns the verdict), 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/experiment.hpp"
#include "core/gpgpu_sim.hpp"
#include "core/report.hpp"
#include "exec/result_cache.hpp"
#include "exec/runner.hpp"
#include "mem/dram.hpp"
#include "noc/network.hpp"
#include "noc/ni.hpp"
#include "noc/topology.hpp"
#include "obs/attr.hpp"
#include "obs/regress/json.hpp"
#include "obs/selfprof.hpp"
#include "topo/fabric.hpp"
#include "topo/partition.hpp"
#include "workloads/benchmark.hpp"
#include "workloads/tracegen.hpp"

using namespace arinoc;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  std::vector<std::string> benchmarks;
  Cycle warmup_cycles;
  Cycle run_cycles;
};

// All on the Table-I 6x6 mesh with activity-driven stepping. myocyte runs
// ~6x cheaper per cycle than bfs, so its cells are longer for a comparable
// host time per simulation.
const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> w = {
      {"bfs-saturated", {"bfs"}, 2000, 8000},
      {"myocyte-light", {"myocyte"}, 2000, 48000},
      {"sweep-ari",
       {"bfs", "mummergpu", "hotspot", "pathfinder", "myocyte", "matrixMul"},
       2000,
       8000},
  };
  return w;
}

constexpr Scheme kGridSchemes[] = {Scheme::kAdaBaseline, Scheme::kAdaARI};
/// ExperimentRunner pool size on the grid passes.
constexpr unsigned kGridJobs = 2;
/// Network threads of the traced run's thread-team variant (<= 2 keeps the
/// benchmark within half of a 4-core host).
constexpr std::uint32_t kTeamThreads = 2;
/// Extra constructions of each direct cell just before each of its direct
/// runs (setup_s samples, spread over the run so they see the same host
/// drift as the other metrics).
constexpr int kSetupReps = 12;

// ---------------------------------------------------------------------------
// Correctness ledger
// ---------------------------------------------------------------------------

std::string digest_of(const Metrics& m) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    exec::fnv1a64(metrics_to_json(m))));
  return buf;
}

/// Removes the attribution summary an attached LatencyAttributor adds, so a
/// traced simulation digests like its untraced twin.
Metrics scrub_attr(Metrics m) {
  m.attr_enabled = false;
  m.request_stage_share = {};
  m.reply_stage_share = {};
  m.attr_violations = 0;
  m.bottleneck.clear();
  return m;
}

std::string cell_key(const std::string& benchmark, Scheme scheme,
                     const Workload& w) {
  return benchmark + "/" + scheme_name(scheme) + "/" +
         std::to_string(w.warmup_cycles) + "+" +
         std::to_string(w.run_cycles);
}

class Ledger {
 public:
  void fail(const std::string& why) {
    ++failed_;
    if (errors_.size() < 16) errors_.push_back(why);
  }
  /// One simulation of `key` finished with metrics digest `digest`.
  void record(const std::string& key, const std::string& digest) {
    ++attempted_;
    ++sims_[key];
    const auto [it, fresh] = digests_.emplace(key, digest);
    if (!fresh && it->second != digest) {
      fail("digest mismatch within the run for " + key + ": " + it->second +
           " vs " + digest);
    }
  }
  /// A simulation that produced no metrics (watchdog trip, error cell).
  void record_failure(const std::string& key, const std::string& why) {
    ++attempted_;
    ++sims_[key];
    fail(key + ": " + why);
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }
  const std::map<std::string, std::string>& digests() const {
    return digests_;
  }
  const std::map<std::string, std::uint64_t>& sims() const { return sims_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::map<std::string, std::string> digests_;
  std::map<std::string, std::uint64_t> sims_;
};

// ---------------------------------------------------------------------------
// Statistics helpers
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

/// Mean of the middle half of a sample (all of it below 4 values). Host
/// speed on a shared VM flips between fast and slow spells; a median over a
/// run's samples takes the majority spell and so jumps between runs, while
/// this blends the spells in proportion and still drops outliers.
double midmean(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t cut = xs.size() >= 4 ? xs.size() / 4 : 0;
  double sum = 0;
  for (std::size_t i = cut; i < xs.size() - cut; ++i) sum += xs[i];
  return sum / static_cast<double>(xs.size() - 2 * cut);
}

/// The tail quantile reported as "p99.9": 0.999, or the highest quantile
/// that still leaves at least 10 samples beyond it on a smaller sample.
double tail_quantile(std::size_t n) {
  if (n <= 11) return 0.5;
  return std::min(0.999, 1.0 - 10.0 / static_cast<double>(n - 1));
}

// ---------------------------------------------------------------------------
// Direct simulation
// ---------------------------------------------------------------------------

/// How a direct cell is run: untraced, with one of the library's observers
/// attached, or untraced with the network stepped by a thread team.
enum class Variant { kPlain = 0, kSelfProfile, kAttribution, kTeam };
constexpr std::size_t kNumVariants = 4;

struct DirectSim {
  bool ok = false;
  Metrics metrics;  ///< Attribution fields intact (scrub before digesting).
  double step_s = 0;  ///< Summed step() time, warmup + measured window.
  /// Quantiles of this simulation's step() times, in us.
  double step_p50_us = 0;
  double step_p99_us = 0;
  double step_tail_us = 0;  ///< At tail_quantile(cycles).
  double collect_us = 0;
  Cycle cycles = 0;
  /// Measured-window self-profile (Variant::kSelfProfile only).
  std::uint64_t phase_ns[obs::kNumProfPhases] = {};
  std::uint64_t awake[obs::kNumProfGroups] = {};
  std::uint64_t capacity[obs::kNumProfGroups] = {};
  /// Measured-window reply-network attribution (kAttribution only).
  std::uint64_t reply_ni_queue = 0;
  std::uint64_t reply_e2e = 0;
  std::uint64_t attr_violations = 0;
};

/// Table-I defaults with activity-driven stepping, at the workload's run
/// length and the benchmark's seed; cells derive their own seeds from it.
Config base_config(const Workload& w, std::uint64_t seed) {
  Config base;
  base.seed = seed;
  base.warmup_cycles = w.warmup_cycles;
  base.run_cycles = w.run_cycles;
  return base;
}

double time_construction(const Config& cfg, const BenchmarkTraits& traits) {
  const auto t0 = Clock::now();
  GpgpuSim sim(cfg, traits);
  return seconds_since(t0);
}

/// Constructs, steps (timing every step() call) and collects one cell, the
/// same sequence as GpgpuSim::run_with_warmup. Every variant must give the
/// same metrics digest under `key`.
DirectSim simulate(Config cfg, const BenchmarkTraits& traits, Variant variant,
                   Ledger& ledger, const std::string& key) {
  DirectSim r;
  try {
    if (variant == Variant::kTeam) cfg.threads = kTeamThreads;
    std::vector<double> step_us;
    step_us.reserve(cfg.warmup_cycles + cfg.run_cycles);
    obs::SelfProfiler prof;
    obs::LatencyAttributor attr;
    GpgpuSim sim(cfg, traits);
    if (variant == Variant::kSelfProfile) sim.attach_self_profiler(&prof);
    if (variant == Variant::kAttribution) sim.attach_attributor(&attr);

    auto step_n = [&](Cycle n) {
      for (Cycle c = 0; c < n; ++c) {
        const auto s0 = Clock::now();
        sim.step();
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - s0)
                .count();
        r.step_s += us * 1e-6;
        step_us.push_back(us);
      }
    };
    step_n(cfg.warmup_cycles);
    sim.reset_stats();
    prof.clear();  // Profile the measured window only, like the metrics.
    step_n(cfg.run_cycles);
    sim.sync_activity();
    prof.finish(sim.now());
    r.cycles = cfg.warmup_cycles + cfg.run_cycles;
    std::sort(step_us.begin(), step_us.end());
    r.step_p50_us = quantile(step_us, 0.50);
    r.step_p99_us = quantile(step_us, 0.99);
    r.step_tail_us = quantile(step_us, tail_quantile(step_us.size()));

    const auto t0 = Clock::now();
    r.metrics = sim.collect();
    r.collect_us = seconds_since(t0) * 1e6;

    for (const auto& e : prof.epochs()) {
      for (std::size_t i = 0; i < obs::kNumProfPhases; ++i) {
        r.phase_ns[i] += e.wall_ns[i];
      }
      for (std::size_t i = 0; i < obs::kNumProfGroups; ++i) {
        r.awake[i] += e.awake[i];
        r.capacity[i] += e.capacity[i];
      }
    }
    if (variant == Variant::kAttribution) {
      r.reply_ni_queue = attr.stage_total(1, obs::AttrStage::kNiQueue);
      r.reply_e2e = attr.e2e_total(1);
      r.attr_violations = attr.conservation_violations();
      if (r.attr_violations != 0) {
        ledger.fail(key + ": " + std::to_string(r.attr_violations) +
                    " attribution conservation violations");
      }
    }
    ledger.record(key, digest_of(scrub_attr(r.metrics)));
    r.ok = true;
  } catch (const std::exception& e) {
    ledger.record_failure(key, e.what());
  }
  return r;
}

/// One direct pass over the workload's Ada-ARI cells.
struct Pass {
  std::vector<DirectSim> sims;
  double step_s = 0;

  template <class F>
  double sum(F&& f) const {
    double s = 0;
    for (const auto& d : sims) s += static_cast<double>(f(d));
    return s;
  }
  /// Self-profiled host ns per measured cycle of phase `p`.
  double phase_ns_per_cycle(obs::ProfPhase p) const {
    const auto i = static_cast<std::size_t>(p);
    const double measured =
        sum([](const DirectSim& d) { return d.metrics.cycles; });
    return measured > 0
               ? sum([i](const DirectSim& d) { return d.phase_ns[i]; }) /
                     measured
               : 0.0;
  }
  double awake_frac(obs::ProfGroup g) const {
    const auto i = static_cast<std::size_t>(g);
    const double cap = sum([i](const DirectSim& d) { return d.capacity[i]; });
    return cap > 0 ? sum([i](const DirectSim& d) { return d.awake[i]; }) / cap
                   : 0.0;
  }
};

struct Cells {
  std::vector<Config> configs;  ///< Direct (Ada-ARI) cells, in order.
  std::vector<const BenchmarkTraits*> traits;
  std::vector<std::string> keys;
};

/// Untraced step timings of one direct cell, accumulated over the run: the
/// summed step() time and, per simulation, its step-time quantiles.
struct CellTiming {
  double step_s = 0;
  Cycle cycles = 0;
  std::vector<double> p50_us, p99_us, tail_us;
};

/// Simulates direct cell `i` into pass `p`; with `timing`, also adds its
/// step timings to timing[i].
void run_cell(const Cells& cells, std::size_t i, Variant variant,
              std::vector<CellTiming>* timing, Ledger& ledger, Pass& p) {
  DirectSim d = simulate(cells.configs[i], *cells.traits[i], variant, ledger,
                         cells.keys[i]);
  if (!d.ok) return;
  if (timing) {
    CellTiming& t = (*timing)[i];
    t.step_s += d.step_s;
    t.cycles += d.cycles;
    t.p50_us.push_back(d.step_p50_us);
    t.p99_us.push_back(d.step_p99_us);
    t.tail_us.push_back(d.step_tail_us);
  }
  p.step_s += d.step_s;
  p.sims.push_back(std::move(d));
}

// ---------------------------------------------------------------------------
// Grid passes through the execution engine
// ---------------------------------------------------------------------------

struct GridPass {
  double wall_s = 0;
  exec::ExperimentRunner::Stats stats;
  std::map<std::string, double> ipc;  ///< By cell key (ok cells only).
};

GridPass grid_pass(const Workload& w, std::uint64_t seed,
                   const std::string& cache_dir, bool warm, Ledger& ledger) {
  exec::ExecOptions opts;
  opts.jobs = kGridJobs;
  opts.cache_enabled = true;
  opts.cache_dir = cache_dir;

  std::vector<exec::CellSpec> specs;
  for (const auto& b : w.benchmarks) {
    for (const Scheme s : kGridSchemes) {
      specs.push_back({"perfbench", s, b, nullptr, false});
    }
  }
  GridPass g;
  exec::ExperimentRunner runner(base_config(w, seed), opts);
  const auto t0 = Clock::now();
  const auto results = runner.run(specs);
  g.wall_s = seconds_since(t0);
  g.stats = runner.stats();

  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const std::string key = cell_key(specs[i].benchmark, specs[i].scheme, w);
    if (!r.ok()) {
      ledger.record_failure(key, r.error_kind + ": " + r.error);
      continue;
    }
    if (warm && !r.from_cache) {
      ledger.fail(key + ": warm pass missed the result cache");
    }
    ledger.record(key, digest_of(r.metrics));
    g.ipc[key] = r.metrics.ipc;
  }
  return g;
}

// ---------------------------------------------------------------------------
// Standalone per-layer probes
// ---------------------------------------------------------------------------

/// Keeps `value` observable so the compiler cannot drop the work behind it.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Median over `batches` of the mean host time of one call of `f`, in ns.
template <class F>
double median_call_ns(int batches, int calls_per_batch, F&& f) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int c = 0; c < calls_per_batch; ++c) f();
    per_call.push_back(seconds_since(t0) * 1e9 / calls_per_batch);
  }
  return median(per_call);
}

/// A saturated 6x6 reply network: every MC injects a read reply to a random
/// CC each cycle; ejected flits are drained so the network stays live.
double network_step_us(std::uint64_t seed) {
  Mesh mesh(6, 6, 8);
  NetworkParams np;
  np.routing = RoutingAlgo::kMinAdaptive;
  Network net(np, &mesh);
  std::vector<std::unique_ptr<EnhancedInjectNi>> nis;
  for (const NodeId mc : mesh.mc_nodes()) {
    nis.push_back(std::make_unique<EnhancedInjectNi>(&net, mc, 36));
  }
  Xoshiro256 rng(seed);
  Cycle t = 0;
  auto cycle = [&] {
    for (std::size_t i = 0; i < nis.size(); ++i) {
      const NodeId dst =
          mesh.cc_nodes()[rng.next_below(mesh.cc_nodes().size())];
      const PacketId id = net.make_packet(PacketType::kReadReply,
                                          mesh.mc_nodes()[i], dst, 0, 0, t);
      if (!nis[i]->try_accept(id, t)) net.abandon_packet(id);
      nis[i]->cycle(t);
    }
    const auto s0 = Clock::now();
    net.step(t);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - s0).count();
    ++t;
    for (NodeId n = 0; n < static_cast<NodeId>(mesh.nodes()); ++n) {
      Router& r = net.router(n);
      while (r.has_ejected_flit()) {
        const Flit f = r.pop_ejected_flit();
        if (f.tail) net.finish_packet(f.pkt, t);
      }
    }
    return ns;
  };
  for (int i = 0; i < 1000; ++i) cycle();  // Fill the network.
  std::vector<double> batch_us;
  for (int b = 0; b < 25; ++b) {
    double ns = 0;
    for (int i = 0; i < 200; ++i) ns += cycle();
    batch_us.push_back(ns / 200 / 1000);
  }
  return median(batch_us);
}

double dram_tick_ns(std::uint64_t seed) {
  GddrDram dram(16, DramTimings{}, 64);
  Xoshiro256 rng(seed);
  TxnId id = 0;
  return median_call_ns(25, 20000, [&] {
    if (dram.can_enqueue()) {
      dram.enqueue({id++, static_cast<std::uint32_t>(rng.next_below(16)),
                    rng.next_below(1000), false, 0});
    }
    dram.tick(false);
    keep(dram.drain_completed().size());
  });
}

double tracegen_next_ns(const Config& cfg, const BenchmarkTraits& traits) {
  TraceGen gen(traits, cfg.num_ccs(), cfg.warps_per_core, cfg.line_bytes,
               cfg.seed);
  const std::uint32_t cores = cfg.num_ccs();
  const std::uint32_t warps = cfg.warps_per_core;
  std::uint32_t i = 0;
  return median_call_ns(25, 20000, [&] {
    keep(gen.next(i % cores, i % warps).lines[0]);
    ++i;
  });
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

class Emitter {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    metrics_ += (metrics_.empty() ? "" : ", ") + std::string("\"") + name +
                "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  void info(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    info_ += (info_.empty() ? "" : ", ") + std::string("\"") + name +
             "\": " + buf;
  }
  std::string metrics() const { return "{" + metrics_ + "}"; }
  std::string info() const { return "{" + info_ + "}"; }

 private:
  std::string metrics_;
  std::string info_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double geomean_of(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : geomean(xs);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string work_dir;
  std::uint64_t seed = Config{}.seed;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload_name = v;
    } else if (a == "--work-dir") {
      work_dir = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return usage("bad --seed");
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(seconds > 0 && seconds <= 3600)) {
        return usage("bad --seconds");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      trace = v == "1";
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  const Workload* wp = nullptr;
  for (const auto& w : all_workloads()) {
    if (workload_name == w.name) wp = &w;
  }
  if (wp == nullptr) return usage("unknown --workload");
  if (work_dir.empty()) return usage("--work-dir is required");
  const Workload& w = *wp;

  Ledger ledger;
  Cells cells;
  for (const auto& b : w.benchmarks) {
    cells.configs.push_back(
        resolve_cell_config(base_config(w, seed), Scheme::kAdaARI, b));
    cells.traits.push_back(find_benchmark(b));
    cells.keys.push_back(cell_key(b, Scheme::kAdaARI, w));
  }

  // ---- Measured rounds. ----
  std::vector<std::vector<double>> setup_s(cells.configs.size());
  std::vector<CellTiming> timing(cells.configs.size());
  std::vector<CellTiming> team_timing(cells.configs.size());
  std::vector<double> collect_us;
  std::vector<double> cold_s, warm_s, hit_ratio, cells_simulated;
  std::vector<Pass> plain_passes, prof_passes, attr_passes;
  std::vector<double> prof_overhead, attr_overhead, team_speedup;
  std::map<std::string, double> grid_ipc;

  const auto run_start = Clock::now();
  for (int round = 0; round == 0 || seconds_since(run_start) < seconds;
       ++round) {
    auto sample_setup = [&](std::size_t i) {
      for (int rep = 0; rep < kSetupReps; ++rep) {
        setup_s[i].push_back(
            time_construction(cells.configs[i], *cells.traits[i]));
      }
    };
    if (trace == 0) {
      Pass p;
      for (std::size_t i = 0; i < cells.configs.size(); ++i) {
        sample_setup(i);
        run_cell(cells, i, Variant::kPlain, &timing, ledger, p);
      }
      plain_passes.push_back(std::move(p));
    } else {
      // Each cell runs in every variant back to back, in rotating order, so
      // host drift hits the variants alike.
      Pass passes[kNumVariants];
      for (std::size_t i = 0; i < cells.configs.size(); ++i) {
        sample_setup(i);
        for (std::size_t k = 0; k < kNumVariants; ++k) {
          const auto v = static_cast<Variant>((round + i + k) % kNumVariants);
          std::vector<CellTiming>* t = v == Variant::kPlain  ? &timing
                                       : v == Variant::kTeam ? &team_timing
                                                             : nullptr;
          run_cell(cells, i, v, t, ledger,
                   passes[static_cast<std::size_t>(v)]);
        }
      }
      const double plain_s = passes[0].step_s;
      if (plain_s > 0 && passes[3].step_s > 0) {
        prof_overhead.push_back(passes[1].step_s / plain_s - 1.0);
        attr_overhead.push_back(passes[2].step_s / plain_s - 1.0);
        team_speedup.push_back(plain_s / passes[3].step_s);
      }
      for (const auto& d : passes[0].sims) collect_us.push_back(d.collect_us);
      plain_passes.push_back(std::move(passes[0]));
      prof_passes.push_back(std::move(passes[1]));
      attr_passes.push_back(std::move(passes[2]));
    }

    const std::string cache_dir =
        work_dir + "/cache-round" + std::to_string(round);
    std::filesystem::remove_all(cache_dir);
    const GridPass cold = grid_pass(w, seed, cache_dir, false, ledger);
    const GridPass warm = grid_pass(w, seed, cache_dir, true, ledger);
    std::filesystem::remove_all(cache_dir);
    cold_s.push_back(cold.wall_s);
    warm_s.push_back(warm.wall_s);
    cells_simulated.push_back(static_cast<double>(cold.stats.simulated));
    hit_ratio.push_back(
        warm.stats.total ? static_cast<double>(warm.stats.cache_hits) /
                               static_cast<double>(warm.stats.total)
                         : 0.0);
    if (cold.stats.simulated != cold.stats.total) {
      ledger.fail("cold pass served cells from a fresh cache directory");
    }
    grid_ipc = cold.ipc;
  }
  const double measured_s = seconds_since(run_start);

  // ARI gain: geomean over benchmarks of IPC(Ada-ARI) / IPC(Ada-Baseline).
  std::vector<double> gains;
  for (const auto& b : w.benchmarks) {
    const auto ari = grid_ipc.find(cell_key(b, Scheme::kAdaARI, w));
    const auto bas = grid_ipc.find(cell_key(b, Scheme::kAdaBaseline, w));
    if (ari != grid_ipc.end() && bas != grid_ipc.end() && bas->second > 0) {
      gains.push_back(ari->second / bas->second);
    }
  }

  Emitter out;
  // Host step figures per cell — step-time quantiles per simulation, then
  // the midmean over the run's simulations — then the geomean over cells. A
  // quantile pooled over the run would mix the host's fast and slow spells
  // (and, on sweep-ari, the step populations of different benchmarks) and
  // jump with small shifts between them.
  std::size_t n_steps = 0;
  for (const auto& t : timing) n_steps += t.cycles;
  const double q_tail = tail_quantile(w.warmup_cycles + w.run_cycles);
  auto over_cells = [](const std::vector<CellTiming>& cell_timing,
                       auto&& f) {
    std::vector<double> xs;
    for (const auto& t : cell_timing) {
      if (t.cycles > 0) xs.push_back(f(t));
    }
    return geomean_of(xs);
  };
  auto step_quantile = [&](std::vector<double> CellTiming::*q,
                           const std::vector<CellTiming>& cell_timing) {
    return over_cells(cell_timing,
                      [q](const CellTiming& t) { return midmean(t.*q); });
  };
  out.info("rounds", static_cast<double>(cold_s.size()));
  out.info("measured_s", measured_s);
  out.info("step_samples", static_cast<double>(n_steps));
  out.info("setup_samples",
           static_cast<double>(setup_s.size() * setup_s[0].size()));
  out.info("grid_cells", static_cast<double>(w.benchmarks.size() * 2));

  // Simulated outputs are exact, so any one complete pass gives them.
  const Pass* sim_pass = nullptr;
  for (const auto& p : plain_passes) {
    if (p.sims.size() == cells.configs.size()) sim_pass = &p;
  }
  if (sim_pass == nullptr) {
    ledger.fail("no complete direct pass");
  } else if (trace == 0) {
    std::vector<double> ipc;
    for (const auto& d : sim_pass->sims) ipc.push_back(d.metrics.ipc);
    out.metric("sim_cycles_per_s",
               over_cells(timing,
                          [](const CellTiming& t) {
                            return static_cast<double>(t.cycles) / t.step_s;
                          }),
               "cycles/s");
    out.metric("step_us_p50", step_quantile(&CellTiming::p50_us, timing),
               "us");
    out.metric("step_us_p99", step_quantile(&CellTiming::p99_us, timing),
               "us");
    std::vector<double> setup_per_cell;
    for (const auto& xs : setup_s) setup_per_cell.push_back(midmean(xs));
    out.metric("setup_s", geomean_of(setup_per_cell), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("sweep_s", midmean(cold_s), "s");
    out.metric("ipc", geomean_of(ipc), "instr/cycle");
    out.metric("ari_ipc_gain", geomean_of(gains), "x");
  } else {
    // Per-pass figures, then the median over rounds.
    auto med = [](const std::vector<Pass>& passes, auto&& f) {
      std::vector<double> xs;
      for (const auto& p : passes) xs.push_back(f(p));
      return median(xs);
    };
    auto phase = [&](obs::ProfPhase ph) {
      return med(prof_passes,
                 [ph](const Pass& p) { return p.phase_ns_per_cycle(ph); });
    };
    auto awake = [&](obs::ProfGroup g) {
      return med(prof_passes, [g](const Pass& p) { return p.awake_frac(g); });
    };
    const Pass& sp = *sim_pass;
    const double flits = sp.sum([](const DirectSim& d) {
      std::uint64_t f = 0;
      for (const auto v : d.metrics.flits_by_type) f += v;
      return f;
    });
    const double cells_n = static_cast<double>(sp.sims.size());

    out.metric("noc.networks_ns_per_cycle", phase(obs::ProfPhase::kNetworks),
               "ns/cycle");
    out.metric("noc.inject_ni_ns_per_cycle",
               phase(obs::ProfPhase::kInjectNi), "ns/cycle");
    out.metric("noc.eject_ni_ns_per_cycle", phase(obs::ProfPhase::kEjectNi),
               "ns/cycle");
    out.metric("noc.routers_awake_frac", awake(obs::ProfGroup::kRouters),
               "frac");
    out.metric("noc.flits", flits, "count");
    out.metric("noc.host_ns_per_flit",
               med(prof_passes,
                   [flits](const Pass& p) {
                     return flits > 0 ? p.sum([](const DirectSim& d) {
                       return d.phase_ns[static_cast<std::size_t>(
                           obs::ProfPhase::kNetworks)];
                     }) / flits
                                      : 0.0;
                   }),
               "ns/flit");
    out.metric("noc.reply_ni_queue_share",
               med(attr_passes,
                   [](const Pass& p) {
                     const double e2e = p.sum(
                         [](const DirectSim& d) { return d.reply_e2e; });
                     return e2e > 0 ? p.sum([](const DirectSim& d) {
                       return d.reply_ni_queue;
                     }) / e2e
                                    : 0.0;
                   }),
               "frac");
    out.metric("noc.reply_latency_p99_cyc",
               geomean_of([&] {
                 std::vector<double> xs;
                 for (const auto& d : sp.sims) {
                   xs.push_back(d.metrics.reply_latency_p99);
                 }
                 return xs;
               }()),
               "cycles");
    out.metric("noc.network_step_us", network_step_us(seed), "us");

    out.metric("mem.mcs_ns_per_cycle", phase(obs::ProfPhase::kMcs),
               "ns/cycle");
    out.metric("mem.mcs_awake_frac", awake(obs::ProfGroup::kMcs), "frac");
    out.metric("mem.l2_hit_rate",
               sp.sum([](const DirectSim& d) { return d.metrics.l2_hit_rate; }) /
                   cells_n,
               "frac");
    out.metric("mem.dram_row_hit_rate",
               sp.sum([](const DirectSim& d) {
                 return d.metrics.dram_row_hit_rate;
               }) / cells_n,
               "frac");
    out.metric("mem.mc_stall_cycles",
               sp.sum([](const DirectSim& d) {
                 return d.metrics.mc_stall_cycles;
               }),
               "cycles");
    out.metric("mem.dram_tick_ns", dram_tick_ns(seed), "ns");

    out.metric("gpu.cores_ns_per_cycle", phase(obs::ProfPhase::kCores),
               "ns/cycle");
    out.metric("gpu.cores_awake_frac", awake(obs::ProfGroup::kCores), "frac");
    out.metric("gpu.warp_instructions",
               sp.sum([](const DirectSim& d) {
                 return d.metrics.warp_instructions;
               }),
               "count");
    out.metric("workloads.tracegen_next_ns",
               tracegen_next_ns(cells.configs[0], *cells.traits[0]), "ns");

    out.metric("core.step_us_p999",
               step_quantile(&CellTiming::tail_us, timing), "us");
    out.metric("core.frontend_ns_per_cycle",
               phase(obs::ProfPhase::kFrontend), "ns/cycle");
    out.metric("core.sampling_ns_per_cycle",
               phase(obs::ProfPhase::kSampling), "ns/cycle");
    out.metric("core.watchdog_ns_per_cycle",
               phase(obs::ProfPhase::kWatchdog), "ns/cycle");
    out.metric("core.collect_us", median(collect_us), "us");

    const Config& c0 = cells.configs[0];
    out.metric("topo.make_fabric_us",
               median_call_ns(25, 20,
                              [&] { keep(topo::make_fabric(c0).nodes()); }) /
                   1e3,
               "us");
    const topo::Fabric fabric = topo::make_fabric(c0);
    out.metric("topo.partition_us",
               median_call_ns(25, 20,
                              [&] {
                                keep(topo::partition_fabric(fabric, 2)
                                         .num_domains);
                              }) /
                   1e3,
               "us");

    out.metric("exec.cached_sweep_s", median(warm_s), "s");
    out.metric("exec.cache_hit_ratio",
               *std::min_element(hit_ratio.begin(), hit_ratio.end()), "frac");
    out.metric("exec.cells_simulated", median(cells_simulated), "count");
    out.metric("exec.team_speedup", median(team_speedup), "x");
    out.metric("exec.team_step_us_p99",
               step_quantile(&CellTiming::p99_us, team_timing), "us");

    out.metric("obs.selfprof_overhead_frac", median(prof_overhead), "frac");
    out.metric("obs.attr_overhead_frac", median(attr_overhead), "frac");
    out.metric("obs.attr_violations",
               med(attr_passes,
                   [](const Pass& p) {
                     return p.sum([](const DirectSim& d) {
                       return d.attr_violations;
                     });
                   }),
               "count");
    out.info("step_tail_quantile", q_tail);
  }

  std::printf("{\"schema\": \"arinoc-perfbench-raw-v1\", \"workload\": \"%s\", "
              "\"seed\": %llu, \"default_seed\": %llu, \"trace\": %d, "
              "\"attempted\": %llu, \"failed\": %llu, ",
              w.name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(Config{}.seed), trace,
              static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()));
  std::string digests, errors;
  for (const auto& [key, d] : ledger.digests()) {
    digests += (digests.empty() ? "" : ", ") + std::string("\"") + key +
               "\": {\"digest\": \"" + d + "\", \"sims\": " +
               std::to_string(ledger.sims().at(key)) + "}";
  }
  for (const auto& e : ledger.errors()) {
    errors += (errors.empty() ? "\"" : ", \"") +
              obs::regress::json_escape(e) + "\"";
  }
  std::printf("\"digests\": {%s}, \"errors\": [%s], \"metrics\": %s, "
              "\"info\": %s}\n",
              digests.c_str(), errors.c_str(), out.metrics().c_str(),
              out.info().c_str());
  return 0;
}
