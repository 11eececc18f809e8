// The integrated SPARCS-like flow (paper Fig. 9).
//
// taskgraph + board  ->  temporal partitions  ->  per partition:
// spatial placement, memory mapping, channel mapping, automatic arbiter
// insertion (the paper's contribution), arbiter synthesis + timing, and
// cycle-level system simulation with memory state carried across the
// partitions (the board is reconfigured between them).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "board/board.hpp"
#include "core/generator.hpp"
#include "core/insertion.hpp"
#include "partition/binding.hpp"
#include "partition/channel_map.hpp"
#include "partition/estimate.hpp"
#include "partition/memory_map.hpp"
#include "partition/spatial.hpp"
#include "partition/temporal.hpp"
#include "rcsim/system_sim.hpp"
#include "taskgraph/taskgraph.hpp"

namespace rcarb::flow {

struct FlowOptions {
  part::TemporalOptions temporal;
  part::SpatialOptions spatial;
  core::InsertionOptions insertion;
  /// The flow enables per-arbiter metrics by default so FlowReport::summary
  /// can print fairness/latency lines; simulation-bound callers may turn
  /// them back off.
  rcsim::SimOptions sim = [] {
    rcsim::SimOptions s;
    s.arbiter_metrics = true;
    return s;
  }();

  /// Clock achieved by the synthesized task datapaths (SPARCS logic
  /// synthesis annotation; the paper's FFT design clocked at ~6 MHz).  The
  /// design clock is min(this, every arbiter's Fmax).
  double datapath_clock_mhz = 6.0;

  bool simulate = true;
  /// Initial segment contents (segment id -> words); applied before TP 0.
  std::vector<std::pair<tg::SegmentId, std::vector<std::int64_t>>> preload;

  /// Pin the temporal partitioning (e.g. the paper's Sec. 5 memberships).
  const std::vector<std::vector<tg::TaskId>>* pinned_partitions = nullptr;
  /// Pin the per-partition binding (e.g. fft::paper_binding).  When set,
  /// spatial/memory/channel mapping are skipped.
  std::function<core::Binding(std::size_t tp_index)> pinned_binding;
};

/// Everything the flow produced for one temporal partition.
struct PartitionReport {
  std::vector<tg::TaskId> tasks;
  part::SpatialResult spatial;          // empty when binding was pinned
  part::MemoryMapResult memory;         // empty when binding was pinned
  part::ChannelMapResult channels;      // empty when binding was pinned
  core::Binding binding;
  core::ArbitrationPlan plan;
  tg::TaskGraph rewritten{"<unset>"};
  std::vector<core::ArbiterCharacteristics> arbiter_chars;  // per instance
  rcsim::SimResult sim;
};

struct FlowReport {
  std::vector<PartitionReport> partitions;
  double design_clock_mhz = 0.0;
  double min_arbiter_fmax_mhz = 0.0;  // infinity-free: 0 when no arbiters
  std::uint64_t total_cycles = 0;     // across all partitions
  std::size_t total_arbiter_clbs = 0;
  /// Final contents of every segment after the last partition ran.
  std::vector<std::vector<std::int64_t>> final_memory;

  /// Human-readable multi-line summary (partition table + headline).
  [[nodiscard]] std::string summary() const;
};

/// Runs the full flow.  The input graph is copied; area annotations are
/// estimated where missing.
[[nodiscard]] FlowReport run_flow(const tg::TaskGraph& graph,
                                  const board::Board& board,
                                  const FlowOptions& options);

}  // namespace rcarb::flow
