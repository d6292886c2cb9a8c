#include "exec/result_cache.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "common/numparse.hpp"
#include "common/version.hpp"
#include "core/metrics_schema.hpp"

namespace arinoc::exec {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Entry format tag: a hash of the stored rows' (name, kind) sequence, so
/// adding, dropping, renaming or retyping a Metrics row turns every entry
/// written under the old table into a miss.
const std::string& format_tag() {
  static const std::string tag = [] {
    std::string layout;
    for (const MetricField& f : metric_fields()) {
      if (!f.stored()) continue;
      layout += f.name + (" " + std::to_string(static_cast<int>(f.kind)));
      layout += '\n';
    }
    return "arinoc-cache-" + hex64(fnv1a64(layout));
  }();
  return tag;
}

/// Lossless text form of one value: numbers in decimal (doubles in their
/// shortest round-trip spelling), strings verbatim. A string holding a
/// newline would break its entry, which then loads as a miss.
std::string encode(const MetricValue& v) {
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  if (const auto* b = std::get_if<bool>(&v)) return *b ? "1" : "0";
  if (const auto* d = std::get_if<double>(&v)) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), *d).ptr);
  }
  return std::to_string(std::get<std::uint64_t>(v));
}

/// Inverse of encode() for a row of `kind`; nullopt on anything encode()
/// could not have written (a sign, junk, overflow, a non-finite real).
std::optional<MetricValue> decode(MetricKind kind, std::string_view text) {
  std::string why;
  if (kind == MetricKind::kString) return std::string(text);
  if (kind == MetricKind::kDouble) {
    if (const auto v = parse_real(text, &why)) return *v;
    return std::nullopt;
  }
  const bool flag = kind == MetricKind::kBool;
  const auto v = parse_uint(text, flag ? 1 : UINT64_MAX, &why);
  if (!v) return std::nullopt;
  if (flag) return *v != 0;
  return *v;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string fabric_cache_tag(const Config& cfg) {
  if (cfg.fabric != "file") return cfg.fabric;
  std::ifstream in(cfg.topology_file, std::ios::binary);
  if (!in) return "file:unreadable";
  std::ostringstream contents;
  contents << in.rdbuf();
  return "file:" + hex64(fnv1a64(contents.str()));
}

std::string cache_key_string(const Config& cfg, std::string_view scheme,
                             std::string_view benchmark,
                             std::string_view fabric) {
  std::ostringstream os;
  os << "version=" << kArinocVersion << '\n'
     << "scheme=" << scheme << '\n'
     << "benchmark=" << benchmark << '\n'
     << "fabric=" << fabric << '\n'
     << cfg.canonical_string();
  return os.str();
}

std::string serialize_metrics(const Metrics& m) {
  std::string out;
  for (const MetricField& f : metric_fields()) {
    if (f.stored()) out += f.name + (' ' + encode(f.get(m))) + '\n';
  }
  return out;
}

std::optional<Metrics> deserialize_metrics(const std::string& text) {
  // Rows come once each, in table order (the format tag pins it), so an
  // unknown, repeated, missing or moved field is malformed.
  Metrics m;
  std::istringstream is(text);
  std::string line;
  for (const MetricField& f : metric_fields()) {
    if (!f.stored()) continue;
    const std::string key = f.name + std::string(" ");
    if (!std::getline(is, line) || !line.starts_with(key)) return std::nullopt;
    const auto value = decode(f.kind, line.substr(key.size()));
    if (!value) return std::nullopt;
    f.set(m, *value);
  }
  if (std::getline(is, line)) return std::nullopt;  // Trailing junk.
  return m;
}

std::string ResultCache::default_dir() {
  if (const char* dir = std::getenv("ARINOC_CACHE_DIR")) return dir;
  return ".arinoc-cache";
}

std::string ResultCache::entry_path(const std::string& key_material) const {
  return dir_ + "/" + hex64(fnv1a64(key_material)) + ".cell";
}

std::optional<Metrics> ResultCache::load(
    const std::string& key_material) const {
  if (!enabled()) return std::nullopt;
  std::ifstream in(entry_path(key_material), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  // Layout: tag line, "<key bytes> <metrics bytes>" counts line, the key
  // material verbatim, then the metrics payload.
  std::istringstream header(text);
  std::string tag;
  std::size_t key_len = 0, val_len = 0;
  if (!std::getline(header, tag) || tag != format_tag()) return std::nullopt;
  if (!(header >> key_len >> val_len)) return std::nullopt;
  header.ignore(1);  // The newline after the counts.
  const auto body = static_cast<std::size_t>(header.tellg());
  if (body == static_cast<std::size_t>(-1) ||
      text.size() != body + key_len + val_len) {
    return std::nullopt;
  }
  if (text.compare(body, key_len, key_material) != 0) {
    return std::nullopt;  // Hash collision: treat as a miss.
  }
  return deserialize_metrics(text.substr(body + key_len, val_len));
}

void ResultCache::store(const std::string& key_material,
                        const Metrics& m) const {
  if (!enabled()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return;

  const std::string payload = serialize_metrics(m);
  std::ostringstream os;
  os << format_tag() << '\n'
     << key_material.size() << ' ' << payload.size() << '\n'
     << key_material << payload;

  const std::string path = entry_path(key_material);
  // Unique temp name per writer thread so concurrent stores never interleave.
  const std::string tmp =
      path + ".tmp" +
      hex64(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out << os.str();
    if (!out) {
      out.close();
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
}

}  // namespace arinoc::exec
