// Temporal partitioning (paper Sec. 5: "temporally divide and schedule the
// tasks on the reconfigurable architecture").
//
// Tasks are grouped into a sequence of configurations; the whole board is
// reconfigured between them.  A valid partitioning never places a task
// before any of its control predecessors, and each partition must fit the
// board: task CLB area plus the pre-characterized area of the arbiters the
// partition will need, and the memory footprint of the active segments.
#pragma once

#include <cstddef>
#include <vector>

#include "board/board.hpp"
#include "core/generator.hpp"
#include "taskgraph/taskgraph.hpp"

namespace rcarb::part {

struct TemporalOptions {
  /// Fraction of board CLBs usable by tasks (routing/controller headroom).
  double utilization = 0.75;
  /// Estimates arbiter area while filling from the pre-characterized flat
  /// arbiters (core::generate_cached); false prices arbiters at zero.
  bool price_arbiters = false;
};

struct TemporalPartition {
  std::vector<tg::TaskId> tasks;
  std::size_t task_clbs = 0;
  std::size_t arbiter_clbs = 0;  // estimate at fill time
  std::size_t memory_bytes = 0;  // active-segment footprint
};

struct TemporalResult {
  std::vector<TemporalPartition> partitions;
  std::vector<int> tp_of_task;  // per TaskId
};

/// Greedy levelized list scheduling: walk tasks in topological order and
/// open a new partition whenever adding the next task would overflow CLB or
/// memory capacity.  Throws if a single task cannot fit at all.
[[nodiscard]] TemporalResult temporal_partition(const tg::TaskGraph& graph,
                                                const board::Board& board,
                                                const TemporalOptions& options);

}  // namespace rcarb::part
