// Memory synthesis / data-segment mapping (paper Secs. 1.1, 2.1).
//
// Maps the logical segments active in one temporal partition onto the
// board's physical banks.  When L (active segments) exceeds P (banks),
// several segments share a bank — the situation that makes memory
// arbitration necessary.  The mapper packs best-fit-decreasing under bank
// capacity, preferring the bank attached to the PE that hosts most of a
// segment's accessors, and otherwise minimizing the number of distinct
// tasks contending per bank.  The mapper serves the static flow only;
// online bank remaps after a quarantine are planned by
// degrade::plan_bank_remap.
#pragma once

#include <string>
#include <vector>

#include "board/board.hpp"
#include "taskgraph/taskgraph.hpp"

namespace rcarb::part {

struct MemoryMapResult {
  /// Bank per SegmentId; -1 for segments not active in this partition.
  std::vector<int> bank_of_segment;
  /// Remaining bytes per bank after mapping.
  std::vector<std::size_t> bank_free_bytes;
  /// Number of banks holding more than one segment (the L > P symptom).
  std::size_t shared_banks = 0;
};

/// Maps the segments accessed by `tasks` onto banks.  `pe_of_task` comes
/// from spatial partitioning (used for locality).  Throws if the active
/// segments cannot fit the banks at all.
[[nodiscard]] MemoryMapResult map_memory(const tg::TaskGraph& graph,
                                         const std::vector<tg::TaskId>& tasks,
                                         const board::Board& board,
                                         const std::vector<int>& pe_of_task);

}  // namespace rcarb::part
