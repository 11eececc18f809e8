#include "obs/bench_report.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace rcarb::obs {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void json_escape(std::ostream& os, const std::string& s) {
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
}

std::string utc_timestamp() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &t);
#else
  gmtime_r(&t, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace

std::string bench_commit_id() {
  if (const char* env = std::getenv("RCARB_GIT_COMMIT"); env && *env)
    return env;
  if (const char* env = std::getenv("GITHUB_SHA"); env && *env) return env;
#if !defined(_WIN32)
  if (std::FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    const std::size_t n = std::fread(buf, 1, sizeof buf - 1, p);
    ::pclose(p);
    std::string out(buf, n);
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
      out.pop_back();
    if (!out.empty()) return out;
  }
#endif
  return "unknown";
}

BenchReporter::BenchReporter(std::string name)
    : name_(std::move(name)), start_ns_(now_ns()) {}

void BenchReporter::metric(const std::string& key, double value,
                           const std::string& unit) {
  const std::lock_guard<std::mutex> lock(mu_);
  metrics_.push_back({key, value, unit});
}

void BenchReporter::note(const std::string& key, const std::string& value) {
  const std::lock_guard<std::mutex> lock(mu_);
  notes_.emplace_back(key, value);
}

std::string BenchReporter::write(const std::string& dir) {
  std::string out_dir = dir;
  if (out_dir.empty()) {
    const char* env = std::getenv("RCARB_BENCH_DIR");
    out_dir = std::string(env != nullptr && *env != '\0' ? env : ".");
  }
  // A merely-absent directory is not an error: CI and local runs point
  // RCARB_BENCH_DIR at fresh paths.  Only an unwritable / non-directory
  // target fails, and it fails loudly below.
  std::error_code ec;
  if (!std::filesystem::exists(out_dir, ec))
    std::filesystem::create_directories(out_dir, ec);
  const std::string path = out_dir + "/BENCH_" + name_ + ".json";
  std::ofstream os(path);
  if (!os) {
    std::string mkdir_error;
    if (ec) mkdir_error.append(", mkdir: ").append(ec.message());
    std::fprintf(stderr,
                 "BenchReporter: cannot open \"%s\" for writing (dir \"%s\"%s)"
                 " — check RCARB_BENCH_DIR\n",
                 path.c_str(), out_dir.c_str(), mkdir_error.c_str());
    return "";
  }

  const double wall_ms =
      static_cast<double>(now_ns() - start_ns_) / 1.0e6;
  os << "{\n  \"schema\": \"rcarb-bench-v1\",\n  \"bench\": \"";
  json_escape(os, name_);
  os << "\",\n  \"commit\": \"";
  json_escape(os, bench_commit_id());
  os << "\",\n  \"timestamp_utc\": \"" << utc_timestamp()
     << "\",\n  \"wall_ms\": " << wall_ms << ",\n  \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    os << (first ? "\n" : ",\n") << "    \"";
    json_escape(os, m.key);
    os << "\": {\"value\": " << (std::isfinite(m.value) ? m.value : 0.0)
       << ", \"unit\": \"";
    json_escape(os, m.unit);
    os << "\"}";
    first = false;
  }
  os << "\n  },\n  \"notes\": {";
  first = true;
  for (const auto& [k, v] : notes_) {
    os << (first ? "\n" : ",\n") << "    \"";
    json_escape(os, k);
    os << "\": \"";
    json_escape(os, v);
    os << "\"";
    first = false;
  }
  os << "\n  }\n}\n";
  os.flush();
  if (!os.good()) {
    std::fprintf(stderr,
                 "BenchReporter: I/O error while writing \"%s\" (report is "
                 "incomplete)\n",
                 path.c_str());
    return "";
  }
  return path;
}

}  // namespace rcarb::obs
