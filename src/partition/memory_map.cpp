#include "partition/memory_map.hpp"

#include <algorithm>
#include <set>

#include "support/check.hpp"

namespace rcarb::part {

namespace {

/// Extra packing cost per distinct accessor task already on a bank (steers
/// the packer away from building big contention groups).
constexpr double kContentionWeight = 0.25;

}  // namespace

MemoryMapResult map_memory(const tg::TaskGraph& graph,
                           const std::vector<tg::TaskId>& tasks,
                           const board::Board& board,
                           const std::vector<int>& pe_of_task) {
  RCARB_CHECK(pe_of_task.size() == graph.num_tasks(),
              "pe_of_task must cover every task");

  MemoryMapResult result;
  result.bank_of_segment.assign(graph.num_segments(), -1);
  result.bank_free_bytes.resize(board.num_banks());
  for (board::BankId b = 0; b < board.num_banks(); ++b)
    result.bank_free_bytes[b] = board.bank(b).bytes;

  // Active segments and their accessors within this partition.
  std::vector<bool> in_set(graph.num_tasks(), false);
  for (tg::TaskId t : tasks) in_set[t] = true;
  struct Active {
    tg::SegmentId segment;
    std::size_t bytes;
    std::vector<tg::TaskId> accessors;
  };
  std::vector<Active> active;
  for (tg::SegmentId s = 0; s < graph.num_segments(); ++s) {
    std::vector<tg::TaskId> accessors;
    for (tg::TaskId t : graph.tasks_accessing_segment(s))
      if (in_set[t]) accessors.push_back(t);
    if (!accessors.empty())
      active.push_back({s, graph.segment(s).bytes, std::move(accessors)});
  }

  // Best-fit decreasing by footprint.
  std::stable_sort(active.begin(), active.end(),
                   [](const Active& a, const Active& b) {
                     return a.bytes > b.bytes;
                   });

  std::vector<std::set<tg::TaskId>> bank_tasks(board.num_banks());
  for (const Active& seg : active) {
    // Locality preference: the PE hosting most accessors.
    std::vector<std::size_t> pe_votes(board.num_pes(), 0);
    for (tg::TaskId t : seg.accessors)
      if (pe_of_task[t] >= 0)
        ++pe_votes[static_cast<std::size_t>(pe_of_task[t])];

    int best_bank = -1;
    double best_score = 0.0;
    for (board::BankId b = 0; b < board.num_banks(); ++b) {
      if (result.bank_free_bytes[b] < seg.bytes) continue;
      // Score: prefer local banks, low contention, tight fit.
      const double locality =
          static_cast<double>(pe_votes[board.bank(b).attached_pe]);
      std::size_t new_tasks = 0;
      for (tg::TaskId t : seg.accessors)
        if (!bank_tasks[b].contains(t)) ++new_tasks;
      const double contention =
          static_cast<double>(bank_tasks[b].size() + new_tasks);
      const double fit =
          static_cast<double>(result.bank_free_bytes[b] - seg.bytes) /
          static_cast<double>(board.bank(b).bytes);
      const double score =
          locality - kContentionWeight * contention - 0.1 * fit;
      if (best_bank < 0 || score > best_score) {
        best_bank = static_cast<int>(b);
        best_score = score;
      }
    }
    RCARB_CHECK(best_bank >= 0, "segment " + graph.segment(seg.segment).name +
                                    " does not fit any bank");
    const auto bb = static_cast<std::size_t>(best_bank);
    result.bank_of_segment[seg.segment] = best_bank;
    result.bank_free_bytes[bb] -= seg.bytes;
    for (tg::TaskId t : seg.accessors) bank_tasks[bb].insert(t);
  }

  std::vector<std::size_t> segs_per_bank(board.num_banks(), 0);
  for (tg::SegmentId s = 0; s < graph.num_segments(); ++s)
    if (result.bank_of_segment[s] >= 0)
      ++segs_per_bank[static_cast<std::size_t>(result.bank_of_segment[s])];
  for (std::size_t n : segs_per_bank)
    if (n > 1) ++result.shared_banks;
  return result;
}

}  // namespace rcarb::part
