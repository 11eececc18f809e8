#include "core/insertion.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace rcarb::core {

const std::string& Binding::resource_name(int resource) const {
  RCARB_CHECK(resource >= 0 &&
                  static_cast<std::size_t>(resource) < num_resources(),
              "resource id out of range");
  if (resource_is_bank(resource))
    return bank_names[static_cast<std::size_t>(resource)];
  return phys_channel_names[static_cast<std::size_t>(resource) - num_banks];
}

int ArbiterInstance::port_of(tg::TaskId t) const {
  for (std::size_t i = 0; i < ports.size(); ++i)
    if (ports[i] == t) return static_cast<int>(i);
  return -1;
}

std::pair<int, int> ArbitrationPlan::port_lookup(int resource,
                                                 tg::TaskId t) const {
  if (resource < 0 ||
      static_cast<std::size_t>(resource) >= arbiters_of_resource.size())
    return {-1, -1};
  for (int ai : arbiters_of_resource[static_cast<std::size_t>(resource)]) {
    const int port = arbiters[static_cast<std::size_t>(ai)].port_of(t);
    if (port >= 0) return {ai, port};
  }
  return {-1, -1};
}

namespace {

using tg::Op;
using tg::OpCode;
using tg::TaskId;

/// A compute op longer than this many cycles ends a held burst (holding a
/// grant across long computation starves peers).
constexpr std::int64_t kHoldComputeLimit = 8;

/// True if the op must terminate any held burst: control boundaries,
/// blocking receives, and long computations.
bool is_burst_boundary(const Op& op) {
  switch (op.code) {
    case OpCode::kLoopBegin:
    case OpCode::kLoopBeginVar:
    case OpCode::kLoopEnd:
    case OpCode::kRecv:
    case OpCode::kHalt:
      return true;
    case OpCode::kCompute:
      return op.imm > kHoldComputeLimit;
    default:
      return false;
  }
}

/// Active tasks that drive `resource` anywhere in their programs, in
/// TaskId order.
std::vector<TaskId> accessors_of(const tg::TaskGraph& graph,
                                 const Binding& binding, int resource,
                                 const std::vector<bool>& active) {
  std::vector<TaskId> out;
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    if (!active[t]) continue;
    for (const Op& op : graph.task(t).program.ops()) {
      if (binding.driven_resource(op) == resource) {
        out.push_back(t);
        break;
      }
    }
  }
  return out;
}

}  // namespace

InsertionResult insert_arbitration(const tg::TaskGraph& graph,
                                   const Binding& binding,
                                   const InsertionOptions& options,
                                   const std::vector<tg::TaskId>* active_tasks) {
  graph.validate();
  std::vector<bool> active(graph.num_tasks(), active_tasks == nullptr);
  if (active_tasks != nullptr)
    for (TaskId t : *active_tasks) {
      RCARB_CHECK(t < graph.num_tasks(), "active task out of range");
      active[t] = true;
    }
  RCARB_CHECK(binding.segment_to_bank.size() == graph.num_segments(),
              "binding segment table does not match the graph");
  RCARB_CHECK(binding.channel_to_phys.size() == graph.num_channels(),
              "binding channel table does not match the graph");
  RCARB_CHECK(binding.bank_names.size() == binding.num_banks &&
                  binding.phys_channel_names.size() ==
                      binding.num_phys_channels,
              "binding resource names incomplete");
  RCARB_CHECK(options.batch_m >= 1, "batch_m must be at least 1");
  RCARB_CHECK(options.retry_timeout >= 0, "negative retry_timeout");
  RCARB_CHECK(options.retry_backoff_limit >= 1,
              "retry_backoff_limit must be at least 1");

  InsertionResult result{graph, {}};
  ArbitrationPlan& plan = result.plan;
  plan.arbiters_of_resource.assign(binding.num_resources(), {});
  plan.retry_timeout = options.retry_timeout;
  plan.retry_backoff_limit = options.retry_backoff_limit;

  // ---- Plan arbiters per shared resource. ----
  // needs_port[task][resource]: accesses must follow the req/grant protocol.
  std::vector<std::vector<bool>> needs_port(
      graph.num_tasks(), std::vector<bool>(binding.num_resources(), false));

  for (int r = 0; r < static_cast<int>(binding.num_resources()); ++r) {
    const std::vector<TaskId> accessors =
        accessors_of(graph, binding, r, active);
    if (accessors.size() < 2) continue;  // sole user: implicit arbitration

    // Line merges are required whenever wires are shared, arbiter or not.
    const auto merges =
        binding.resource_is_bank(r)
            ? plan_memory_lines(binding.resource_name(r), accessors.size())
            : plan_channel_lines(binding.resource_name(r), accessors.size());
    plan.line_merges.insert(plan.line_merges.end(), merges.begin(),
                            merges.end());

    // Group the accessors into concurrency components.  Without elision
    // everyone lands in one group ("assume all tasks execute in parallel",
    // Sec. 5); with it, control-serialized tasks never share an arbiter.
    std::vector<std::vector<TaskId>> groups;
    if (options.elide_serialized) {
      // Union-find over the may-overlap relation.
      std::vector<std::size_t> parent(accessors.size());
      for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
      auto find = [&](std::size_t x) {
        while (parent[x] != x) x = parent[x] = parent[parent[x]];
        return x;
      };
      for (std::size_t i = 0; i < accessors.size(); ++i)
        for (std::size_t j = i + 1; j < accessors.size(); ++j)
          if (!graph.serialized(accessors[i], accessors[j]))
            parent[find(i)] = find(j);
      std::vector<std::vector<TaskId>> by_root(accessors.size());
      for (std::size_t i = 0; i < accessors.size(); ++i)
        by_root[find(i)].push_back(accessors[i]);
      for (auto& g : by_root)
        if (!g.empty()) groups.push_back(std::move(g));
    } else {
      groups.push_back(accessors);
    }

    bool any_arbiter = false;
    for (std::vector<TaskId>& ports : groups) {
      if (ports.size() < 2) {
        plan.stats.elided_ports += ports.size();
        continue;
      }
      ArbiterInstance inst;
      inst.resource = r;
      inst.resource_name = binding.resource_name(r);
      inst.ports = std::move(ports);
      inst.policy = options.policy;
      inst.kind = resolve_arbiter_choice(options.arbiter_kind,
                                         static_cast<int>(inst.ports.size()),
                                         options.arbiter_fmax_budget_mhz,
                                         options.arbiter_arity);
      plan.arbiters_of_resource[static_cast<std::size_t>(r)].push_back(
          static_cast<int>(plan.arbiters.size()));
      ++plan.stats.arbiters;
      plan.stats.arbiter_ports += inst.ports.size();
      for (TaskId t : inst.ports)
        needs_port[t][static_cast<std::size_t>(r)] = true;
      plan.arbiters.push_back(std::move(inst));
      any_arbiter = true;
    }
    if (!any_arbiter) ++plan.stats.elided_resources;
  }

  // ---- Fig. 8 rewrite of every affected task. ----
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    if (!active[t]) continue;
    const tg::Program& in = graph.task(t).program;
    bool any_port = false;
    for (std::size_t r = 0; r < binding.num_resources(); ++r)
      any_port = any_port || needs_port[t][r];
    if (!any_port) continue;

    tg::Program out;
    int held = -1;       // resource currently acquired
    int run_count = 0;   // accesses since the acquire
    const auto release_held = [&] {
      if (held >= 0) {
        out.release(held);
        held = -1;
        run_count = 0;
      }
    };

    for (const Op& op : in.ops()) {
      const int r = binding.driven_resource(op);
      const bool arbitrated =
          r >= 0 && needs_port[t][static_cast<std::size_t>(r)];

      if (is_burst_boundary(op)) {
        release_held();
        out.append(op);
        continue;
      }
      // A send can block on receiver backpressure; it must never do so
      // while holding a grant on some other resource.
      if (op.code == OpCode::kSend && held >= 0 && held != r) release_held();
      if (!arbitrated) {
        out.append(op);
        continue;
      }
      if (held != r || run_count >= options.batch_m) {
        release_held();
        out.acquire(r);
        held = r;
        run_count = 0;
        ++plan.stats.wrapped_bursts;
      }
      out.append(op);
      ++run_count;
    }
    release_held();

    result.graph.task(t).program = std::move(out);
    ++plan.stats.modified_tasks;
  }

  result.graph.validate();
  return result;
}

}  // namespace rcarb::core
