// In-memory span recorder for the benchmark's traced runs.
//
// Spans wrap the benchmark's own calls into the library's public entry
// points (run_service, SystemSimulator::run, run_replica_batch, the
// synthesis steps, ...).  Each span records its name, start, end, parent
// span and a group id: spans of one FFT block share the block's id, every
// other span carries the workload id 0.  Spans stay in memory and are
// written out once, when the run ends.  A disabled tracer costs one branch
// per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Only toggled between chunks of work, when no span is open.
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span; returns its index, or -1 when tracing is off.  `name`
  /// must be a string literal (spans keep the pointer).
  int begin(const char* name, std::uint64_t group);
  void end(int span);

  /// Durations in seconds of the spans called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;
  /// Self time per span name: each span's duration minus the part its
  /// direct children cover, summed over the spans of that name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Writes the spans as Chrome trace_event JSON plus the self-time table.
  /// Returns false when the file cannot be written.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t group;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_ = false;
  int open_ = -1;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t group = 0)
      : tracer_(tracer), span_(tracer.begin(name, group)) {}
  ~Scope() { tracer_.end(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int span_;
};

}  // namespace perfbench
