// Interconnect synthesis / channel mapping (paper Secs. 1.2, 2.2).
//
// Logical channels whose endpoint tasks land on different PEs must cross
// the board on physical wires: fixed neighbor links or crossbar routes.
// While dedicated wires remain, every channel gets its own slice; once the
// pin budget between a PE pair is exhausted, the remaining channels are
// *merged* onto a shared physical channel — the paper's channel-arbitration
// case (Fig. 3).  Online channel remaps after a quarantine are planned by
// degrade::plan_channel_remap.
#pragma once

#include <string>
#include <vector>

#include "board/board.hpp"
#include "taskgraph/taskgraph.hpp"

namespace rcarb::part {

/// One physical channel instance created by the mapper.
struct PhysChannel {
  std::string name;
  board::PeId pe_a = 0;
  board::PeId pe_b = 0;
  int width_bits = 0;
  bool via_crossbar = false;
  std::vector<tg::ChannelId> logical;  // channels merged onto this one
};

struct ChannelMapResult {
  /// Physical channel per ChannelId; -1 = endpoints co-located (no wires).
  std::vector<int> phys_of_channel;
  std::vector<PhysChannel> phys;
  std::size_t merged_channels = 0;  // logical channels that had to share
  std::vector<int> crossbar_pins_used;  // per PE
  std::vector<int> link_pins_used;      // per LinkId
};

/// Maps the inter-PE channels of one temporal partition.  Throws when a
/// channel cannot be routed at all (no link, no crossbar) or is wider than
/// every available resource.
[[nodiscard]] ChannelMapResult map_channels(const tg::TaskGraph& graph,
                                            const std::vector<tg::TaskId>& tasks,
                                            const board::Board& board,
                                            const std::vector<int>& pe_of_task);

}  // namespace rcarb::part
