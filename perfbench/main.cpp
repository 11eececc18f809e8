// Host-time benchmark of the four engines.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--commit <id>]
//
// Workloads: svc_narrow, svc_wide, fft_image, seu_campaign.  A run sets up
// the workload (timed as setup_s), measures for --seconds, checks every
// output, prints a host block and '#'-prefixed log lines, and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}.  Untraced runs
// report the end-to-end metrics; traced runs (--trace 1) the per-layer
// metrics, computed from spans around each library call, and write the
// spans to --trace-out.  Exits 1 when any correctness gate failed.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "support/cpu.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"sim_cycles_per_ref_s", "cycles/ref-s"},
    {"goodput_per_ref_s", "1/ref-s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"trace_overhead", "ratio"},
    // Modelled (simulated-time) results; exact for a given seed.
    {"fail_share", "ratio"},
    {"goodput_per_cycle", "req/cycle"},
    {"p99_latency_cycles", "cycles"},
    {"hw_cycles_per_block", "cycles"},
    {"seu_masked_share", "ratio"},
    // service
    {"service.run_s", "s"},
    {"service.ns_per_cycle", "ns"},
    {"service.ns_per_attempt", "ns"},
    {"service.attempts_per_completion", "ratio"},
    {"service.offered", "count"},
    {"service.completed", "count"},
    {"service.shed", "count"},
    {"service.rejected", "count"},
    {"service.retries", "count"},
    {"service.timed_out", "count"},
    {"service.budget_exhausted", "count"},
    {"service.queue_depth_p99", "count"},
    {"core.arbiter.grant_latency_p99", "cycles"},
    // core / aig / synth / timing (kind selection)
    {"core.select_kind_s", "s"},
    {"aig.build_s.flat", "s"},
    {"aig.build_s.hier", "s"},
    {"aig.build_s.prefix", "s"},
    {"synth.map_pack_s.flat", "s"},
    {"synth.map_pack_s.hier", "s"},
    {"synth.map_pack_s.prefix", "s"},
    {"timing.sta_s.flat", "s"},
    {"timing.sta_s.hier", "s"},
    {"timing.sta_s.prefix", "s"},
    {"synth.luts.flat", "count"},
    {"synth.luts.hier", "count"},
    {"synth.luts.prefix", "count"},
    // flow / rcsim / fft
    {"flow.run_flow_s", "s"},
    {"rcsim.tp0.ns_per_cycle", "ns"},
    {"rcsim.tp1.ns_per_cycle", "ns"},
    {"rcsim.tp2.ns_per_cycle", "ns"},
    {"rcsim.ns_per_op", "ns"},
    {"rcsim.carry_s", "s"},
    {"rcsim.tp0.cycles", "cycles"},
    {"rcsim.tp1.cycles", "cycles"},
    {"rcsim.tp2.cycles", "cycles"},
    {"rcsim.grant_wait_cycles", "cycles"},
    {"rcsim.ops_retired", "count"},
    {"fft.check_s", "s"},
    // fault / netlist
    {"fault.batch_wall_s", "s"},
    {"netlist.kernel_s", "s"},
    {"netlist.lut_evals_per_s", "1/s"},
    {"netlist.luts_evaluated", "count"},
    {"fault.batches", "count"},
    {"fault.kernel_share", "ratio"},
    {"fault.spec_s", "s"},
    {"core.synth_s", "s"},
};

bool known_metric(const std::string& name) {
  for (const MetricSpec& m : kEndToEnd)
    if (name == m.name) return true;
  for (const MetricSpec& m : kPerLayer)
    if (name == m.name) return true;
  return false;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size())
        return line.substr(colon + 2);
    }
  return "unknown";
}

/// Peak resident set of this process image (VmHWM).  getrusage's maxrss
/// is not used: it keeps the launching process's peak across exec.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

int usage_error(const char* what) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "svc_narrow|svc_wide|fft_image|seu_campaign --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--commit ID]\n",
               what);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string trace_out;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage_error("missing value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--trace-out") {
        trace_out = value;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        return usage_error("unknown flag");
      }
    } catch (const std::exception&) {
      return usage_error("malformed number");
    }
  }

  Outcome (*run)(const Args&, Tracer&) = nullptr;
  if (args.workload == "svc_narrow") run = run_svc_narrow;
  if (args.workload == "svc_wide") run = run_svc_wide;
  if (args.workload == "fft_image") run = run_fft_image;
  if (args.workload == "seu_campaign") run = run_seu_campaign;
  if (run == nullptr) return usage_error("unknown workload");

  Tracer tracer;
  Outcome out;
  try {
    out = run(args, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 3;
  }
  out.metrics["peak_rss_mb"] = peak_rss_mb();

  std::printf("# host: nproc=%u cpu=\"%s\" simd=%s build=%s workers=%d "
              "commit=%s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              rcarb::to_string(rcarb::simd_tier()), PERFBENCH_BUILD_TYPE,
              out.workers, commit.c_str());
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const std::string& note : out.notes)
    std::printf("# %s\n", note.c_str());
  for (const std::string& f : out.failures)
    std::printf("# FAILED: %s\n", f.c_str());
  for (const auto& [name, value] : out.metrics) {
    if (!known_metric(name)) {
      std::fprintf(stderr, "perfbench: unregistered metric %s\n",
                   name.c_str());
      return 3;
    }
    std::printf("# %-34s %.6g\n", name.c_str(), value);
  }
  if (args.trace) {
    for (const auto& [name, self] : tracer.self_seconds())
      std::printf("# self %-28s %.6f s\n", name.c_str(), self);
    if (!trace_out.empty() && !tracer.write_json(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
      return 3;
    }
    std::printf("# %zu spans%s%s\n", tracer.size(),
                trace_out.empty() ? "" : " written to ", trace_out.c_str());
  }

  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  const auto emit = [&](const auto& specs) {
    for (const MetricSpec& m : specs) {
      const auto it = out.metrics.find(m.name);
      const double v = it == out.metrics.end() || !std::isfinite(it->second)
                           ? 0.0
                           : it->second;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, v, m.unit);
      first = false;
    }
  };
  if (args.trace)
    emit(kPerLayer);
  else
    emit(kEndToEnd);
  std::puts("}}");
  return correct ? 0 : 1;
}
