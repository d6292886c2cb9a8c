// Execution engine: JobPool, deterministic parallel sweeps, the on-disk
// result cache, and per-cell crash isolation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "exec/job_pool.hpp"
#include "exec/result_cache.hpp"
#include "exec/runner.hpp"

namespace arinoc {
namespace {

// Small grid cells: 4x4 mesh keeps each simulation to a few milliseconds.
Config tiny() {
  Config cfg;
  cfg.mesh_width = cfg.mesh_height = 4;
  cfg.num_mcs = 4;
  cfg.warmup_cycles = 100;
  cfg.run_cycles = 400;
  return cfg;
}

// A fresh, empty per-test cache directory under the gtest temp dir.
std::filesystem::path fresh_cache_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(JobPool, RunsEverySubmittedJob) {
  exec::JobPool pool(4);
  EXPECT_EQ(pool.jobs(), 4u);
  EXPECT_GE(exec::JobPool::hardware_jobs(), 1u);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 200; ++i) {
    pool.submit([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 200 * 201 / 2);
}

TEST(JobPool, RunsJobsConcurrently) {
  // All four jobs must be in flight at once to release each other; a serial
  // pool would leave `started` stuck below 4 until the deadline.
  exec::JobPool pool(4);
  std::atomic<int> started{0};
  std::atomic<bool> all_running{false};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (int i = 0; i < 4; ++i) {
    pool.submit([&] {
      started.fetch_add(1);
      while (started.load() < 4 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (started.load() == 4) all_running.store(true);
    });
  }
  pool.wait_idle();
  EXPECT_TRUE(all_running.load());
}

TEST(JobPool, RethrowsFirstEscapedExceptionFromWaitIdle) {
  exec::JobPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 8; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The escaped exception does not poison the pool: the other jobs still
  // ran, and the pool accepts new work.
  EXPECT_EQ(ran.load(), 8);
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 9);
}

TEST(ExecSeed, DerivationIsDeterministicAndBenchmarkSensitive) {
  const auto s1 = derive_cell_seed(1, "bfs");
  EXPECT_EQ(s1, derive_cell_seed(1, "bfs"));
  EXPECT_NE(s1, derive_cell_seed(1, "kmeans"));
  EXPECT_NE(s1, derive_cell_seed(2, "bfs"));
}

TEST(ExecRunner, ResolveAppliesSchemeTweakAndDerivedSeed) {
  const Config base = tiny();
  exec::ExperimentRunner runner(base);
  const Config cfg = runner.resolve({"p", Scheme::kAdaARI, "bfs",
                                     [](Config& c) {
                                       // Tweaks run after the scheme preset:
                                       // keep the ARI knobs within Eq.(2).
                                       c.num_vcs = 2;
                                       c.injection_speedup = 2;
                                       c.split_queues = 2;
                                     }});
  EXPECT_EQ(cfg.num_vcs, 2u);
  EXPECT_EQ(cfg.seed, derive_cell_seed(base.seed, "bfs"));
  // Same benchmark => same seed across schemes: comparisons stay seed-paired.
  const Config other =
      runner.resolve({"p", Scheme::kXYBaseline, "bfs", nullptr});
  EXPECT_EQ(cfg.seed, other.seed);
}

TEST(ExecDeterminism, CsvByteIdenticalAcrossJobCounts) {
  const std::vector<SweepPoint> points = {
      {"S=1", [](Config& c) { c.injection_speedup = 1; }},
      {"S=2", [](Config& c) { c.injection_speedup = 2; }}};
  const std::vector<Scheme> schemes = {Scheme::kAdaBaseline,
                                       Scheme::kAdaARI};
  const std::vector<std::string> benches = {"bfs", "kmeans", "hotspot",
                                            "nn"};
  auto sweep_with = [&](unsigned jobs) {
    return Sweep(tiny())
        .over(points)
        .schemes(schemes)
        .benchmarks(benches)
        .jobs(jobs)
        .run();
  };
  const auto serial = sweep_with(1);
  const auto parallel = sweep_with(8);
  ASSERT_EQ(serial.size(), 16u);  // >= 16-cell grid, per the acceptance bar.
  for (const auto& c : serial) EXPECT_TRUE(c.ok()) << c.error;
  EXPECT_EQ(Sweep::to_csv(serial), Sweep::to_csv(parallel));
}

TEST(ExecCache, HitMissAndInvalidateOnConfigChange) {
  const auto dir = fresh_cache_dir("arinoc_exec_cache");
  exec::ExecOptions opts;
  opts.jobs = 2;
  opts.cache_enabled = true;
  opts.cache_dir = dir.string();

  const std::vector<exec::CellSpec> cells = {
      {"base", Scheme::kAdaBaseline, "bfs", nullptr},
      {"base", Scheme::kAdaBaseline, "kmeans", nullptr},
      {"base", Scheme::kAdaARI, "bfs", nullptr},
      {"base", Scheme::kAdaARI, "kmeans", nullptr}};

  exec::ExperimentRunner cold(tiny(), opts);
  const auto first = cold.run(cells);
  EXPECT_EQ(cold.stats().simulated, 4u);
  EXPECT_EQ(cold.stats().cache_hits, 0u);

  exec::ExperimentRunner warm(tiny(), opts);
  const auto second = warm.run(cells);
  EXPECT_EQ(warm.stats().simulated, 0u);
  EXPECT_EQ(warm.stats().cache_hits, 4u);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(second[i].from_cache);
    // Serialization is lossless: hits give bit-identical metrics.
    EXPECT_EQ(exec::serialize_metrics(second[i].metrics),
              exec::serialize_metrics(first[i].metrics));
  }

  // Any key-material change (here: run_cycles) must miss.
  Config longer = tiny();
  longer.run_cycles += 100;
  exec::ExperimentRunner invalidated(longer, opts);
  invalidated.run(cells);
  EXPECT_EQ(invalidated.stats().simulated, 4u);
  EXPECT_EQ(invalidated.stats().cache_hits, 0u);

  std::filesystem::remove_all(dir);
}

TEST(ExecIsolation, WatchdogTripIsStructuredPerCellError) {
  // watchdog_livelock_age = 1 trips at the first poll with any packet in
  // flight — a deterministic stand-in for a real livelock.
  const std::vector<exec::CellSpec> cells = {
      {"healthy", Scheme::kAdaARI, "bfs", nullptr},
      {"tripped", Scheme::kAdaARI, "bfs",
       [](Config& c) { c.watchdog_livelock_age = 1; }},
      {"healthy", Scheme::kAdaBaseline, "bfs", nullptr}};
  exec::ExecOptions opts;
  opts.jobs = 2;
  exec::ExperimentRunner runner(tiny(), opts);
  const auto results = runner.run(cells);
  ASSERT_EQ(results.size(), 3u);

  EXPECT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].error_kind, "livelock");
  EXPECT_EQ(results[1].exit_status, 4);
  EXPECT_FALSE(results[1].error_detail.empty());  // Watchdog dump.
  EXPECT_EQ(runner.stats().errors, 1u);

  // The siblings were not taken down with it.
  EXPECT_TRUE(results[0].ok()) << results[0].error;
  EXPECT_TRUE(results[2].ok()) << results[2].error;
  EXPECT_GT(results[0].metrics.ipc, 0.0);
}

TEST(ExecIsolation, InvalidConfigIsACellErrorNotAnAbort) {
  const std::vector<exec::CellSpec> cells = {
      {"bad", Scheme::kAdaARI, "bfs", [](Config& c) { c.num_vcs = 0; }},
      {"good", Scheme::kAdaARI, "bfs", nullptr}};
  exec::ExperimentRunner runner(tiny());
  const auto results = runner.run(cells);
  EXPECT_EQ(results[0].error_kind, "config");
  EXPECT_EQ(results[0].exit_status, 2);
  EXPECT_TRUE(results[1].ok()) << results[1].error;
}

TEST(ExecIsolation, SweepRendersCellErrorsInCsv) {
  const auto cells =
      Sweep(tiny())
          .over({{"ok", nullptr},
                 {"trip", [](Config& c) { c.watchdog_livelock_age = 1; }}})
          .schemes({Scheme::kAdaARI})
          .benchmarks({"bfs"})
          .jobs(2)
          .run();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_TRUE(cells[0].ok());
  EXPECT_EQ(cells[1].error_kind, "livelock");
  const std::string csv = Sweep::to_csv(cells);
  EXPECT_NE(csv.find("livelock"), std::string::npos);
}

TEST(ResultCache, MetricsSerializationRoundTripsLosslessly) {
  Metrics m{};
  m.cycles = 12345;
  m.ipc = 0.1;                // Not exactly representable in binary.
  m.request_latency = 1e-9;
  m.reply_latency = 987.654321;
  m.flits_by_type[2] = 42;
  const std::string text = exec::serialize_metrics(m);
  const auto back = exec::deserialize_metrics(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->cycles, 12345u);
  EXPECT_EQ(back->ipc, 0.1);  // Exact: shortest round-trip spelling.
  EXPECT_EQ(back->request_latency, 1e-9);
  EXPECT_EQ(back->flits_by_type[2], 42u);
  EXPECT_EQ(exec::serialize_metrics(*back), text);

  EXPECT_FALSE(exec::deserialize_metrics("not a metrics record").has_value());
  EXPECT_FALSE(exec::deserialize_metrics("").has_value());
}

// ---- Strict entry parsing: anything serialize_metrics could not have
// written is a miss, never a silently zeroed or wrapped field. ----

/// serialize_metrics(m) for a record with a few non-zero fields.
std::string sample_record() {
  Metrics m;
  m.cycles = 8000;
  m.ipc = 1.5;
  m.bottleneck = "reply ni_queue at mc21 61.0%";
  return exec::serialize_metrics(m);
}

/// `text` with the line for field `name` replaced by `replacement` lines.
std::string with_line(const std::string& text, const std::string& name,
                      const std::string& replacement) {
  const std::size_t at = text.find(name + " ");
  EXPECT_TRUE(at == 0 || (at != std::string::npos && text[at - 1] == '\n'));
  const std::size_t end = text.find('\n', at) + 1;
  return text.substr(0, at) + replacement + text.substr(end);
}

TEST(ResultCache, RejectsDuplicatedFieldEvenWhenTheCountMatches) {
  const std::string text = sample_record();
  // Drop `ipc` and repeat `cycles`: the line count is unchanged.
  EXPECT_FALSE(exec::deserialize_metrics(
                   with_line(text, "ipc", "") + "cycles 8000\n")
                   .has_value());
  EXPECT_FALSE(exec::deserialize_metrics(text + "cycles 8000\n").has_value());
}

TEST(ResultCache, RejectsMissingField) {
  EXPECT_FALSE(exec::deserialize_metrics(with_line(sample_record(), "ipc", ""))
                   .has_value());
}

TEST(ResultCache, RejectsNegativeField) {
  const std::string text = sample_record();
  EXPECT_FALSE(exec::deserialize_metrics(
                   with_line(text, "cycles", "cycles -1\n"))
                   .has_value());
  EXPECT_FALSE(
      exec::deserialize_metrics(with_line(text, "ipc", "ipc -1.5\n"))
          .has_value());
}

TEST(ResultCache, RejectsJunkSuffixedField) {
  const std::string text = sample_record();
  for (const char* bad :
       {"cycles 10x\n", "cycles 10 x\n", "cycles \n", "ipc 1.5z\n",
        "ipc nan\n", "ipc 0x1p+0\n", "attr_enabled 2\n"}) {
    const std::string line = bad;
    const std::string name = line.substr(0, line.find(' '));
    EXPECT_FALSE(exec::deserialize_metrics(with_line(text, name, line))
                     .has_value())
        << line;
  }
  ASSERT_TRUE(exec::deserialize_metrics(text).has_value());
}

TEST(ResultCache, EntryWithTheOldFormatTagLoadsAsMiss) {
  const auto dir = fresh_cache_dir("arinoc_cache_old_tag");
  const exec::ResultCache cache(dir.string());
  const std::string key = "version=test\nscheme=Ada-ARI\n";
  Metrics m;
  m.cycles = 8000;
  cache.store(key, m);
  ASSERT_TRUE(cache.load(key).has_value());

  // Rewrite the stored entry's tag line as the pre-table layout did.
  std::filesystem::path entry;
  for (const auto& e : std::filesystem::directory_iterator(dir)) entry = e;
  std::string text;
  {
    std::ifstream in(entry, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(text.rfind("arinoc-cache-", 0), 0u);
  text = "arinoc-cache-v1" + text.substr(text.find('\n'));
  std::ofstream(entry, std::ios::binary | std::ios::trunc) << text;
  EXPECT_FALSE(cache.load(key).has_value());
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, KeyStringCoversSchemeBenchmarkFabricAndConfig) {
  const Config a = tiny();
  Config b = tiny();
  b.run_cycles += 1;
  const auto key = [](const Config& c, const char* s, const char* bench,
                      const char* fab) {
    return exec::cache_key_string(c, s, bench, fab);
  };
  EXPECT_EQ(key(a, "Ada-ARI", "bfs", "mesh"), key(a, "Ada-ARI", "bfs", "mesh"));
  EXPECT_NE(key(a, "Ada-ARI", "bfs", "mesh"), key(b, "Ada-ARI", "bfs", "mesh"));
  EXPECT_NE(key(a, "Ada-ARI", "bfs", "mesh"),
            key(a, "Ada-Baseline", "bfs", "mesh"));
  EXPECT_NE(key(a, "Ada-ARI", "bfs", "mesh"), key(a, "Ada-ARI", "nn", "mesh"));
  EXPECT_NE(key(a, "Ada-ARI", "bfs", "mesh"),
            key(a, "Ada-ARI", "bfs", "da2mesh"));
}

TEST(SweepCsv, EscapesDelimitersQuotesAndNewlines) {
  EXPECT_EQ(Sweep::csv_escape("plain"), "plain");
  EXPECT_EQ(Sweep::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(Sweep::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(Sweep::csv_escape("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(Sweep::csv_escape(""), "");
}

TEST(SweepCsv, QuotedPointLabelKeepsRowParseable) {
  const auto cells = Sweep(tiny())
                         .over({{"vc=2, fast", nullptr}})
                         .schemes({Scheme::kXYBaseline})
                         .benchmarks({"hotspot"})
                         .jobs(1)
                         .run();
  const std::string csv = Sweep::to_csv(cells);
  EXPECT_NE(csv.find("\"vc=2, fast\""), std::string::npos);
}

}  // namespace
}  // namespace arinoc
