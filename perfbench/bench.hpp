// Shared vocabulary of the benchmark's workloads: command-line arguments,
// the per-run outcome, and the timing helpers every workload uses.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one workload run produced.  Metric values are keyed by the names
/// declared in main.cpp's registry; a layer a workload does not exercise
/// keeps its metric at 0.
struct Outcome {
  std::uint64_t attempted = 0;  // checked operations
  std::uint64_t failed = 0;     // checked operations that failed a gate
  std::vector<std::string> failures;  // the first few failure messages
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  // human-readable lines for the log
  int workers = 1;  // threads the measured calls use

  /// Counts one checked operation and records a message when it failed.
  void check(bool ok, const std::string& what);
};

/// Median of `v` (0 for an empty vector).
[[nodiscard]] double median(std::vector<double> v);
/// Linearly interpolated q-quantile of `v`, q in [0, 1] (0 when empty).
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// CPU seconds this process has used, all threads together.  Every
/// workload runs on one thread, so on an idle host this is wall time.  On a
/// shared virtual host the wall clock also counts the time the hypervisor
/// gives this guest's CPU to other guests, which stretched single chunks
/// by up to 3x; CPU time leaves that out.
[[nodiscard]] double cpu_seconds();

/// The host-speed reference: fixed work compiled into the benchmark, not
/// into the library, so no change to the program moves it.
///
/// Even in CPU time a shared host's cores run at different speeds for
/// stretches of seconds to minutes (contention from neighbours on the same
/// core and caches).  On a 4-vCPU KVM guest the service and FFT chunk
/// rates swung 1.7x within five minutes, and the reference tracked them
/// (correlation 0.94 over 5 s windows).  The end-to-end metrics therefore
/// count time in reference seconds: CPU time divided by the reference's
/// CPU time per sample, times kSamplesPerRefSecond.  The reference is a
/// xorshift stream driving data-dependent branches (integer pipeline and
/// branch predictor) plus std::map churn over ~2000 keys (allocator and
/// pointer chasing), the mix the service and rcsim engines run.
class HostReference {
 public:
  /// Samples per reference second.  One sample takes about a millisecond
  /// on an uncontended core of a 2.0 GHz Xeon, so a reference second is
  /// close to a CPU second there.
  static constexpr double kSamplesPerRefSecond = 1000.0;

  HostReference();
  /// Runs the reference work once; returns its CPU seconds.
  double sample();

 private:
  std::map<std::uint64_t, std::uint64_t> map_;
  std::uint64_t x_ = 0x9E3779B97F4A7C15ull;
};

/// Work one chunk of the timed loop did, in end-to-end units.
struct ChunkWork {
  double cycles = 0.0;   // simulated cycles (service, board or replica)
  double goodput = 0.0;  // useful completions (requests, blocks, replicas)
};

/// One workload's timing: its set-up repetitions and its timed loop, both
/// in reference seconds (see HostReference).  A reference sample runs
/// before the first timed item and after every one, and each item's CPU
/// time is divided by the mean of the samples on either side of it.
///
/// Set-up runs 3 times before the first timed call; the state the last
/// repetition leaves behind is what the loop uses.  The loop repeats the
/// set-up before a chunk whenever set-up has taken less than a tenth of
/// the loop's time so far, so the set-up repetitions sample the same
/// stretch of host time as the chunks.
class Measurement {
 public:
  /// Runs the initial set-up repetitions.  All repetitions are traced in a
  /// traced run.
  Measurement(const Args& args, Tracer& tracer, std::function<void()> setup);

  /// Runs chunk(0), chunk(1), ... until `args.seconds` of wall time have
  /// passed and at least `min_chunks` chunks ran.  In a traced run every
  /// odd chunk runs with the tracer on, so traced and untraced rates
  /// interleave in time.
  void run(std::size_t min_chunks,
           const std::function<ChunkWork(std::size_t)>& chunk);

  /// Records setup_s (median set-up time), sim_cycles_per_ref_s and
  /// goodput_per_ref_s (medians of the untraced chunks' rates) and, in
  /// traced runs, trace_overhead (median untraced over median traced
  /// cycle rate, minus 1).  Logs the same rates in CPU seconds.
  void record(Outcome& out) const;

 private:
  /// Runs `item`; returns its duration in reference seconds and sets
  /// `cpu_s` to its CPU seconds.
  double timed(const std::function<void()>& item, double& cpu_s);
  void time_setup();

  const Args& args_;
  Tracer& tracer_;
  std::function<void()> setup_;
  HostReference reference_;
  double last_sample_ = 0.0;  // CPU seconds of the latest reference sample
  std::vector<double> setup_seconds_, reference_samples_;
  std::vector<double> cycles_plain_, goodput_plain_, cycles_traced_,
      cycles_cpu_;
};

[[nodiscard]] Outcome run_svc_narrow(const Args& args, Tracer& tracer);
[[nodiscard]] Outcome run_svc_wide(const Args& args, Tracer& tracer);
[[nodiscard]] Outcome run_fft_image(const Args& args, Tracer& tracer);
[[nodiscard]] Outcome run_seu_campaign(const Args& args, Tracer& tracer);

}  // namespace perfbench
