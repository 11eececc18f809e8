#include "partition/temporal.hpp"

#include <algorithm>
#include <numeric>
#include <set>

#include "support/check.hpp"

namespace rcarb::part {

namespace {

/// Pre-characterized CLBs of a flat arbiter over `users` ports, capped at
/// 20.  The generator has no such limit any more; the cap is kept so that
/// estimates, and the partitions they decide, do not move.
std::size_t flat_arbiter_clbs(std::size_t users) {
  const int n = static_cast<int>(std::min<std::size_t>(users, 20));
  return core::generate_cached({.n = n}).chars.clbs;
}

/// Estimated arbiter CLBs for one candidate partition: every segment shared
/// by several member tasks needs an arbiter, and when the active segments
/// outnumber the physical banks the memory mapper will have to co-locate
/// the overflow — estimate one arbiter over the union of their accessors.
std::size_t estimate_arbiter_clbs(const tg::TaskGraph& graph,
                                  const std::vector<tg::TaskId>& tasks,
                                  std::size_t num_banks, bool price_arbiters) {
  if (!price_arbiters) return 0;

  std::set<int> active;
  for (tg::TaskId t : tasks)
    for (int s : graph.task(t).program.accessed_segments()) active.insert(s);

  std::size_t clbs = 0;
  std::vector<std::size_t> per_segment_users;
  for (int s : active) {
    std::size_t users = 0;
    for (tg::TaskId t : tasks) {
      const auto segs = graph.task(t).program.accessed_segments();
      if (std::find(segs.begin(), segs.end(), s) != segs.end()) ++users;
    }
    per_segment_users.push_back(users);
    if (users >= 2) clbs += flat_arbiter_clbs(users);
  }
  if (active.size() > num_banks && num_banks > 0) {
    // The overflow segments share one bank; bound the arbiter size by the
    // partition's task count.
    const std::size_t merged = active.size() - num_banks + 1;
    std::size_t users = 0;
    auto it = per_segment_users.begin();
    for (std::size_t k = 0; k < merged && it != per_segment_users.end();
         ++k, ++it)
      users += *it;
    users = std::min(users, tasks.size());
    if (users >= 2) clbs += flat_arbiter_clbs(users);
  }
  return clbs;
}

std::size_t memory_footprint(const tg::TaskGraph& graph,
                             const std::vector<tg::TaskId>& tasks) {
  std::set<int> active;
  for (tg::TaskId t : tasks)
    for (int s : graph.task(t).program.accessed_segments()) active.insert(s);
  std::size_t bytes = 0;
  for (int s : active)
    bytes += graph.segment(static_cast<std::size_t>(s)).bytes;
  return bytes;
}

}  // namespace

TemporalResult temporal_partition(const tg::TaskGraph& graph,
                                  const board::Board& board,
                                  const TemporalOptions& options) {
  graph.validate();
  RCARB_CHECK(options.utilization > 0.0 && options.utilization <= 1.0,
              "utilization must be in (0, 1]");

  const auto clb_budget = static_cast<std::size_t>(
      options.utilization *
      static_cast<double>(board.total_clb_capacity()));
  const std::size_t mem_budget = board.total_memory_bytes();

  // Topological order: by level, then by task id for determinism.
  const std::vector<int> level = graph.levels();
  std::vector<tg::TaskId> order(graph.num_tasks());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](tg::TaskId a, tg::TaskId b) {
                     return level[a] < level[b];
                   });

  TemporalResult result;
  result.tp_of_task.assign(graph.num_tasks(), -1);

  std::vector<tg::TaskId> current;
  auto finalize = [&](const std::vector<tg::TaskId>& tasks) {
    TemporalPartition tp;
    tp.tasks = tasks;
    for (tg::TaskId t : tasks) tp.task_clbs += graph.task(t).area_clbs;
    tp.arbiter_clbs = estimate_arbiter_clbs(graph, tasks, board.num_banks(),
                                            options.price_arbiters);
    tp.memory_bytes = memory_footprint(graph, tasks);
    for (tg::TaskId t : tasks)
      result.tp_of_task[t] = static_cast<int>(result.partitions.size());
    result.partitions.push_back(std::move(tp));
  };

  auto fits = [&](const std::vector<tg::TaskId>& tasks) {
    std::size_t task_clbs = 0;
    for (tg::TaskId t : tasks) task_clbs += graph.task(t).area_clbs;
    const std::size_t arb = estimate_arbiter_clbs(
        graph, tasks, board.num_banks(), options.price_arbiters);
    return task_clbs + arb <= clb_budget &&
           memory_footprint(graph, tasks) <= mem_budget;
  };

  for (tg::TaskId t : order) {
    std::vector<tg::TaskId> candidate = current;
    candidate.push_back(t);
    if (fits(candidate)) {
      current = std::move(candidate);
      continue;
    }
    RCARB_CHECK(!current.empty(),
                "task " + graph.task(t).name + " does not fit the board");
    finalize(current);
    current = {t};
    RCARB_CHECK(fits(current),
                "task " + graph.task(t).name + " does not fit the board");
  }
  if (!current.empty()) finalize(current);
  return result;
}

}  // namespace rcarb::part
