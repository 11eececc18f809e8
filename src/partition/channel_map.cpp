#include "partition/channel_map.hpp"

#include <algorithm>
#include <map>

#include "support/check.hpp"

namespace rcarb::part {

ChannelMapResult map_channels(const tg::TaskGraph& graph,
                              const std::vector<tg::TaskId>& tasks,
                              const board::Board& board,
                              const std::vector<int>& pe_of_task) {
  RCARB_CHECK(pe_of_task.size() == graph.num_tasks(),
              "pe_of_task must cover every task");

  ChannelMapResult result;
  result.phys_of_channel.assign(graph.num_channels(), -1);
  result.crossbar_pins_used.assign(board.num_pes(), 0);
  result.link_pins_used.assign(board.num_links(), 0);

  std::vector<bool> in_set(graph.num_tasks(), false);
  for (tg::TaskId t : tasks) in_set[t] = true;

  // Collect inter-PE channels, widest first (they are hardest to place).
  struct Pending {
    tg::ChannelId channel;
    board::PeId a, b;
    int width;
  };
  std::vector<Pending> pending;
  for (tg::ChannelId c = 0; c < graph.num_channels(); ++c) {
    const tg::Channel& ch = graph.channel(c);
    if (!in_set[ch.source] || !in_set[ch.target]) continue;
    const int pa = pe_of_task[ch.source];
    const int pb = pe_of_task[ch.target];
    RCARB_CHECK(pa >= 0 && pb >= 0, "channel endpoint task not placed");
    if (pa == pb) continue;  // co-located: routed inside the FPGA
    pending.push_back({c, static_cast<board::PeId>(pa),
                       static_cast<board::PeId>(pb), ch.width_bits});
  }
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Pending& x, const Pending& y) {
                     return x.width > y.width;
                   });

  // Shared physical channel per PE pair, created on demand.
  std::map<std::pair<board::PeId, board::PeId>, int> shared_of_pair;

  for (const Pending& p : pending) {
    const auto pair = std::minmax(p.a, p.b);

    // 1) Dedicated wires on a direct link.
    int placed = -1;
    for (board::LinkId l : board.links_between(p.a, p.b)) {
      const int free = board.link(l).width_bits -
                       result.link_pins_used[l];
      if (free >= p.width) {
        result.link_pins_used[l] += p.width;
        PhysChannel phys;
        phys.name = graph.channel(p.channel).name + "@" + board.link(l).name;
        phys.pe_a = p.a;
        phys.pe_b = p.b;
        phys.width_bits = p.width;
        phys.via_crossbar = false;
        phys.logical = {p.channel};
        placed = static_cast<int>(result.phys.size());
        result.phys.push_back(std::move(phys));
        break;
      }
    }

    // 2) Dedicated crossbar route.
    if (placed < 0 && board.crossbar_reachable(p.a, p.b)) {
      const int free_a =
          board.pe(p.a).crossbar_pins - result.crossbar_pins_used[p.a];
      const int free_b =
          board.pe(p.b).crossbar_pins - result.crossbar_pins_used[p.b];
      if (std::min(free_a, free_b) >= p.width) {
        result.crossbar_pins_used[p.a] += p.width;
        result.crossbar_pins_used[p.b] += p.width;
        PhysChannel phys;
        phys.name = graph.channel(p.channel).name + "@xbar";
        phys.pe_a = p.a;
        phys.pe_b = p.b;
        phys.width_bits = p.width;
        phys.via_crossbar = true;
        phys.logical = {p.channel};
        placed = static_cast<int>(result.phys.size());
        result.phys.push_back(std::move(phys));
      }
    }

    // 3) Merge onto (or create) the pair's shared channel.
    if (placed < 0) {
      auto it = shared_of_pair.find(pair);
      if (it == shared_of_pair.end()) {
        // Convert the pair's widest existing dedicated channel into the
        // shared one; its wires are re-used (paper Fig. 3: m < k merges
        // onto the k-bit channel).
        int widest = -1;
        for (std::size_t i = 0; i < result.phys.size(); ++i) {
          const PhysChannel& ph = result.phys[i];
          if (std::minmax(ph.pe_a, ph.pe_b) != pair) continue;
          if (ph.width_bits < p.width) continue;  // must carry the new one
          if (widest < 0 ||
              ph.width_bits >
                  result.phys[static_cast<std::size_t>(widest)].width_bits)
            widest = static_cast<int>(i);
        }
        RCARB_CHECK(widest >= 0,
                    "no route wide enough for channel " +
                        graph.channel(p.channel).name);
        it = shared_of_pair.emplace(pair, widest).first;
      }
      auto& shared = result.phys[static_cast<std::size_t>(it->second)];
      RCARB_CHECK(shared.width_bits >= p.width,
                  "shared channel narrower than logical channel " +
                      graph.channel(p.channel).name);
      shared.logical.push_back(p.channel);
      ++result.merged_channels;
      placed = it->second;
    }

    result.phys_of_channel[p.channel] = placed;
  }

  // Rename multi-logical channels to reflect the merge (e.g. "c1_4" in the
  // paper's Table 1 example).
  for (PhysChannel& ph : result.phys) {
    if (ph.logical.size() < 2) continue;
    std::string merged = "shared";
    for (tg::ChannelId c : ph.logical) merged += "_" + graph.channel(c).name;
    ph.name = merged + (ph.via_crossbar ? "@xbar" : "");
  }
  return result;
}

}  // namespace rcarb::part
