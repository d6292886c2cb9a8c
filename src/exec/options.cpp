#include "exec/options.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/numparse.hpp"

#ifdef _WIN32
#include <io.h>
#define ARINOC_ISATTY_STDERR() (_isatty(2) != 0)
#else
#include <unistd.h>
#define ARINOC_ISATTY_STDERR() (isatty(2) != 0)
#endif

namespace arinoc::exec {

ExecOptions options_from_env(bool default_cache) {
  ExecOptions opts;
  if (const auto jobs = env_uint("ARINOC_JOBS", UINT32_MAX)) {
    opts.jobs = static_cast<unsigned>(*jobs);
  }
  if (const auto threads = env_uint("ARINOC_THREADS", UINT32_MAX)) {
    opts.threads = static_cast<unsigned>(*threads);
  }
  opts.cache_enabled = default_cache;
  if (std::getenv("ARINOC_NO_CACHE") != nullptr) opts.cache_enabled = false;
  if (const char* dir = std::getenv("ARINOC_CACHE_DIR")) opts.cache_dir = dir;
  if (const auto iv = env_uint("ARINOC_SAMPLE_INTERVAL", UINT64_MAX)) {
    opts.sample_interval = *iv;
  }
  if (const char* dir = std::getenv("ARINOC_TELEMETRY_DIR")) {
    opts.telemetry_dir = dir;
  }
  if (const char* dir = std::getenv("ARINOC_ATTR_DIR")) opts.attr_dir = dir;
  opts.progress = ARINOC_ISATTY_STDERR();
  return opts;
}

namespace {

/// Checked count flag (see common/numparse.hpp): prints a located message
/// and returns false on a malformed value.
bool count_value(const char* flag, const char* text, std::uint64_t max,
                 std::uint64_t* out) {
  std::string why;
  const auto v = parse_uint(text, max, &why);
  if (!v) {
    std::fprintf(stderr, "error: %s '%s': %s\n", flag, text, why.c_str());
    return false;
  }
  *out = *v;
  return true;
}

}  // namespace

bool parse_exec_flags(int& argc, char** argv, ExecOptions& opts) {
  int out = 1;
  std::uint64_t n = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--jobs") == 0) {
      const char* v = value("--jobs");
      if (v == nullptr || !count_value("--jobs", v, UINT32_MAX, &n)) {
        return false;
      }
      opts.jobs = static_cast<unsigned>(n);
    } else if (std::strcmp(arg, "--threads") == 0) {
      const char* v = value("--threads");
      if (v == nullptr || !count_value("--threads", v, UINT32_MAX, &n)) {
        return false;
      }
      opts.threads = static_cast<unsigned>(n);
    } else if (std::strcmp(arg, "--no-cache") == 0) {
      opts.cache_enabled = false;
    } else if (std::strcmp(arg, "--cache-dir") == 0) {
      const char* v = value("--cache-dir");
      if (v == nullptr) return false;
      opts.cache_dir = v;
      opts.cache_enabled = true;
    } else if (std::strcmp(arg, "--sample-interval") == 0) {
      const char* v = value("--sample-interval");
      if (v == nullptr ||
          !count_value("--sample-interval", v, UINT64_MAX, &n)) {
        return false;
      }
      opts.sample_interval = static_cast<Cycle>(n);
    } else if (std::strcmp(arg, "--telemetry-dir") == 0) {
      const char* v = value("--telemetry-dir");
      if (v == nullptr) return false;
      opts.telemetry_dir = v;
    } else if (std::strcmp(arg, "--attr-dir") == 0) {
      const char* v = value("--attr-dir");
      if (v == nullptr) return false;
      opts.attr_dir = v;
    } else {
      argv[out++] = argv[i];  // Not ours: keep for the caller.
    }
  }
  argc = out;
  return true;
}

ExecOptions require_exec_flags(int argc, char** argv, bool default_cache) {
  ExecOptions opts = options_from_env(default_cache);
  if (!parse_exec_flags(argc, argv, opts)) std::exit(2);
  if (argc > 1) {
    std::fprintf(stderr,
                 "unknown option '%s' (supported: --jobs N, --threads N, "
                 "--no-cache, --cache-dir D, --sample-interval N, "
                 "--telemetry-dir D, --attr-dir D)\n",
                 argv[1]);
    std::exit(2);
  }
  return opts;
}

}  // namespace arinoc::exec
