#include <algorithm>
#include <cstdio>
#include <ctime>
#include <utility>

#include "bench.hpp"

namespace perfbench {

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Keeps a value alive so the reference work is not optimized away.
volatile std::uint64_t g_sink;

}  // namespace

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

HostReference::HostReference() {
  sample();  // fills the map to its steady size
}

double HostReference::sample() {
  constexpr int kBranchSteps = 35'000;
  constexpr int kMapSteps = 7'000;
  const double t0 = cpu_seconds();
  std::uint64_t x = x_, a = 1, b = 2, c = 3, d = 4;
  for (int i = 0; i < kBranchSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (x & 1)
      a += x;
    else
      b ^= x;
    if ((x >> 3) & 1)
      c = c * 7 + a;
    else
      d += b >> 3;
  }
  for (int i = 0; i < kMapSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    map_[x & 0xfff] += 1;
    if (map_.size() > 2000) map_.erase(map_.begin());
  }
  x_ = x;
  g_sink = a + b + c + d + map_.size();
  return cpu_seconds() - t0;
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

Measurement::Measurement(const Args& args, Tracer& tracer,
                         std::function<void()> setup)
    : args_(args), tracer_(tracer), setup_(std::move(setup)) {
  last_sample_ = reference_.sample();
  reference_samples_.push_back(last_sample_);
  for (int i = 0; i < 3; ++i) time_setup();
}

double Measurement::timed(const std::function<void()>& item, double& cpu_s) {
  const double t0 = cpu_seconds();
  item();
  cpu_s = cpu_seconds() - t0;
  const double before = last_sample_;
  last_sample_ = reference_.sample();
  reference_samples_.push_back(last_sample_);
  const double sample_s = 0.5 * (before + last_sample_);
  return cpu_s / (sample_s * HostReference::kSamplesPerRefSecond);
}

void Measurement::time_setup() {
  tracer_.set_enabled(args_.trace);
  double cpu_s = 0.0;
  setup_seconds_.push_back(timed(setup_, cpu_s));
  tracer_.set_enabled(false);
}

void Measurement::run(std::size_t min_chunks,
                      const std::function<ChunkWork(std::size_t)>& chunk) {
  const Clock::time_point start = Clock::now();
  double setup_in_loop = 0.0;
  for (std::size_t i = 0; i < min_chunks || seconds_since(start) < args_.seconds;
       ++i) {
    if (i > 0 && setup_in_loop < 0.1 * seconds_since(start)) {
      const Clock::time_point t0 = Clock::now();
      time_setup();
      setup_in_loop += seconds_since(t0);
    }
    const bool traced = args_.trace && i % 2 == 1;
    tracer_.set_enabled(traced);
    ChunkWork work;
    double cpu_s = 0.0;
    const double ref_s = timed([&] { work = chunk(i); }, cpu_s);
    tracer_.set_enabled(false);
    if (traced) {
      cycles_traced_.push_back(work.cycles / ref_s);
    } else {
      cycles_plain_.push_back(work.cycles / ref_s);
      goodput_plain_.push_back(work.goodput / ref_s);
      cycles_cpu_.push_back(work.cycles / cpu_s);
    }
  }
}

void Measurement::record(Outcome& out) const {
  const std::vector<double>& c = cycles_plain_;
  char line[192];
  std::snprintf(line, sizeof line,
                "untraced chunks: %zu, cycles/ref-s min %.4g p25 %.4g p50 "
                "%.4g p75 %.4g max %.4g",
                c.size(), percentile(c, 0.0), percentile(c, 0.25),
                percentile(c, 0.5), percentile(c, 0.75), percentile(c, 1.0));
  out.notes.push_back(line);
  const std::vector<double>& u = cycles_cpu_;
  std::snprintf(line, sizeof line,
                "same chunks in CPU time: cycles/cpu-s p25 %.4g p50 %.4g "
                "p75 %.4g",
                percentile(u, 0.25), percentile(u, 0.5), percentile(u, 0.75));
  out.notes.push_back(line);
  const std::vector<double>& r = reference_samples_;
  std::snprintf(line, sizeof line,
                "reference samples: %zu, CPU us p25 %.1f p50 %.1f p75 %.1f",
                r.size(), 1e6 * percentile(r, 0.25), 1e6 * percentile(r, 0.5),
                1e6 * percentile(r, 0.75));
  out.notes.push_back(line);
  std::snprintf(line, sizeof line, "set-up repetitions: %zu",
                setup_seconds_.size());
  out.notes.push_back(line);
  out.metrics["setup_s"] = median(setup_seconds_);
  const double plain = median(c);
  out.metrics["sim_cycles_per_ref_s"] = plain;
  out.metrics["goodput_per_ref_s"] = median(goodput_plain_);
  if (!cycles_traced_.empty())
    out.metrics["trace_overhead"] = plain / median(cycles_traced_) - 1.0;
}

}  // namespace perfbench
