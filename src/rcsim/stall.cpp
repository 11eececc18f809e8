// Stall attribution: the wait-for graph over a stalled run's outstanding
// waits, reported as a deadlock cycle or as a no-progress task dump.
#include <algorithm>
#include <cstdio>

#include "rcsim/run_state.hpp"

namespace rcarb::rcsim::detail {

using tg::Op;
using tg::OpCode;
using tg::TaskId;

void RunState::attribute_stall() {
  const auto num_tasks = graph.num_tasks();
  std::vector<int> waits_on(num_tasks, -1);
  std::vector<std::string> why(num_tasks);
  for (TaskId t : tasks) {
    const TaskCtx& c = ctx[t];
    if (c.finished) continue;
    if (!c.started) {
      for (TaskId p : graph.predecessors(t))
        if (ctx[p].in_run && !ctx[p].finished) {
          waits_on[t] = static_cast<int>(p);
          why[t] = "control dependence on " + graph.task(p).name;
          break;
        }
      continue;
    }
    const auto& ops = graph.task(t).program.ops();
    if (c.pc >= ops.size()) continue;
    const Op& op = ops[c.pc];
    const int res = c.awaited_resource();
    if (res >= 0 && (op.code == OpCode::kLoad || op.code == OpCode::kStore ||
                     op.code == OpCode::kSend)) {
      const auto [ai, port] = arbiter_port(t, res);
      if (ai >= 0 && port >= 0) {
        const int h = lane(ai).grant_holder;
        if (h >= 0 && h != port) {
          waits_on[t] = static_cast<int>(
              plan().arbiters[static_cast<std::size_t>(ai)]
                  .ports[static_cast<std::size_t>(h)]);
          why[t] = "awaits grant of " + binding().resource_name(res);
          continue;
        }
      }
    }
    const auto ch = static_cast<std::size_t>(op.b);
    if (op.code == OpCode::kRecv && !chan_reg[ch].valid) {
      waits_on[t] = static_cast<int>(graph.channel(ch).source);
      why[t] = "awaits a word on " + graph.channel(ch).name;
      continue;
    }
    if (op.code == OpCode::kSend && !opt.naive_shared_channel_register &&
        chan_reg[ch].valid) {
      waits_on[t] = static_cast<int>(graph.channel(ch).target);
      why[t] = "backpressured on " + graph.channel(ch).name;
    }
  }

  // Walk every chain looking for a cycle (paths are functional: at most
  // one outgoing wait edge per task).
  std::vector<char> color(num_tasks, 0);  // 0 new, 1 on path, 2 done
  for (TaskId start : tasks) {
    std::vector<TaskId> path;
    TaskId u = start;
    while (true) {
      if (color[u] == 2) break;
      if (color[u] == 1) {
        // Cycle found: report it from u around.
        std::string detail = "wait-for cycle: ";
        const auto at = std::find(path.begin(), path.end(), u);
        for (auto it = at; it != path.end(); ++it)
          detail += graph.task(*it).name + " (" + why[*it] + ") -> ";
        detail += graph.task(u).name;
        diagnose(DiagKind::kDeadlock, static_cast<int>(u),
                 ctx[u].requesting, [&] { return detail; });
        return;
      }
      color[u] = 1;
      path.push_back(u);
      if (waits_on[u] < 0 ||
          ctx[static_cast<std::size_t>(waits_on[u])].finished)
        break;
      u = static_cast<TaskId>(waits_on[u]);
    }
    for (TaskId v : path) color[v] = 2;
  }

  // No cycle: a hang (dead arbiter, sender that never sends, ...).
  std::string detail = "no progress for " +
                       std::to_string(opt.no_progress_window) +
                       " cycles; task states:";
  for (TaskId t : tasks) {
    const TaskCtx& c = ctx[t];
    if (c.finished) continue;
    const auto& ops = graph.task(t).program.ops();
    detail += "\n  " + graph.task(t).name +
              (c.started ? "" : " (not started)") +
              " pc=" + std::to_string(c.pc);
    if (c.started && c.pc < ops.size())
      detail += std::string(" op=") + tg::to_string(ops[c.pc].code) +
                " a=" + std::to_string(ops[c.pc].a) +
                " b=" + std::to_string(ops[c.pc].b);
    detail += " requesting=" + std::to_string(c.requesting) +
              " dropped=" + std::to_string(c.dropped_request);
    if (!why[t].empty()) detail += " [" + why[t] + "]";
  }
  for (std::size_t a = 0; a < lanes.size(); ++a) {
    const core::Arbiter& arb = *lanes[a].arbiter;
    if (!arb.state_legal())
      detail += "\n  arbiter " + plan().arbiters[a].resource_name +
                " register illegal (state=0x" + hex_state(arb) + ")";
    else if (arb.error())
      detail += "\n  arbiter " + plan().arbiters[a].resource_name +
                " self-check error asserted";
  }
  for (int r = 0; r < num_res; ++r)
    if (failed(r))
      detail += "\n  resource " + binding().resource_name(r) +
                " permanently failed (" + degrade::to_string(quarantine(r)) +
                ")";
  diagnose(DiagKind::kNoProgress, -1, -1, [&] { return detail; });
}

std::string hex_state(const core::Arbiter& arbiter) {
  std::vector<std::uint64_t> words;
  arbiter.read_state(words);
  std::string out;
  char digits[17];
  for (std::size_t w = words.size(); w-- > 0;) {
    if (out.empty() && words[w] == 0 && w > 0) continue;  // leading zeros
    std::snprintf(digits, sizeof digits, out.empty() ? "%llx" : "%016llx",
                  static_cast<unsigned long long>(words[w]));
    out += digits;
  }
  return out;
}

}  // namespace rcarb::rcsim::detail
