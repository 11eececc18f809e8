// Graceful degradation inside the cycle loop: strike evidence, the
// quarantine lifecycle driven through degrade::ResourceSupervisor, and the
// bank / channel group moves it retires resources onto.
#include <algorithm>
#include <limits>
#include <numeric>

#include "rcsim/run_state.hpp"

namespace rcarb::rcsim::detail {

using degrade::QuarantineState;
using Transition = degrade::ResourceSupervisor::Transition;
using tg::Op;
using tg::OpCode;
using tg::TaskId;

void RunState::strike(int resource, degrade::StrikeSource source) {
  if (!degrade_on || resource < 0 || resource >= num_res) return;
  const int r = resolve(resource);
  // Evidence against a resource already in quarantine is not counted: it
  // only repeats what the supervisor is acting on.
  if (!sup.serving(r)) return;
  if (sup.strike(r, cycle, source) != Transition::kQuarantined) return;
  diagnose(DiagKind::kQuarantine, -1, r, [&] {
    return "resource " + binding().resource_name(r) +
           " classified permanently faulty (" +
           std::string(degrade::to_string(source)) +
           " strikes: " + std::to_string(opt.degrade.strikes) + " within " +
           std::to_string(opt.degrade.strike_window) +
           " cycles); draining in-flight bursts";
  });
  trace(obs::TraceKind::kQuarantine, -1, -1, r,
        static_cast<std::int64_t>(opt.degrade.strikes));
}

void RunState::supervise() {
  for (int r = 0; r < num_res; ++r) {
    switch (sup.state(r)) {
      case QuarantineState::kDraining:
        degraded_cycle = true;
        drain(r);
        break;
      case QuarantineState::kReconfiguring:
        // Every rcsim drain ends with a plan, so the end of the stall
        // retires the resource onto its frozen move (the port count was
        // priced when the drain ended).
        degraded_cycle = true;
        if (sup.advance(r, cycle, true, 0, opt.self_check) ==
            Transition::kRetired)
          apply_move(r);
        break;
      case QuarantineState::kCapacityExhausted:
        for (const int a :
             plan().arbiters_of_resource[static_cast<std::size_t>(r)])
          for (const std::uint64_t w : lane(a).pending)
            if (w != 0) degraded_cycle = true;
        break;
      case QuarantineState::kHealthy:
      case QuarantineState::kRemapped:
        break;
    }
  }
}

void RunState::drain(int r) {
  const std::vector<int>& arbs =
      plan().arbiters_of_resource[static_cast<std::size_t>(r)];
  bool busy = false;
  for (const int a : arbs)
    if (lane(a).grant_holder >= 0) busy = true;
  if (busy) {
    // Past drain_timeout the holders are force-released every cycle until
    // they are gone: a burst pinned on a dead resource can never reach its
    // <=M batch boundary on its own.
    if (sup.advance(r, cycle, false, 0, opt.self_check) ==
        Transition::kDrainOverdue)
      for (const int a : arbs)
        if (lane(a).grant_holder >= 0)
          core::set_bit(lane(a).force_release, lane(a).grant_holder);
    return;
  }
  // Drained.  Freeze the remap plan now so the feasibility verdict (and
  // kCapacityExhausted) is known before the reconfiguration stall, which
  // is priced for the merged contention set.
  const degrade::RetirePlan verdict = freeze_move(r);
  const int merged = verdict.target == r ? -1 : verdict.target;
  const auto ports = verdict.feasible ? contenders(r, merged).size() : 0;
  sup.advance(r, cycle, true, static_cast<int>(ports), opt.self_check,
              &verdict);
  trace(obs::TraceKind::kDrain, -1, -1, r,
        sup.record(r).drain_aborted ? 1 : 0);
  if (!verdict.feasible)
    diagnose(DiagKind::kCapacityExhausted, -1, r, [&] {
      return "no survivor can take the load of " +
             binding().resource_name(r) +
             "; its tasks stall (no remap possible)";
    });
}

degrade::RetirePlan RunState::freeze_move(int r) {
  const core::Binding& b = binding();
  // Survivors that cannot take load: failed, or themselves quarantined.
  // Units are banks, or physical channels (resource ids past the banks).
  const auto dead_units = [&](std::size_t n, std::size_t first) {
    std::vector<bool> dead(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto res = static_cast<int>(first + i);
      dead[i] = failed(res) || !sup.serving(res);
    }
    return dead;
  };
  FrozenMove& m = moves[static_cast<std::size_t>(r)];
  m = FrozenMove{};
  bool feasible = true;
  if (!failed(r)) {
    // The guarded hardware is healthy (arbiter-region fault, e.g. a
    // latch-up): regenerate the arbiter in place.
  } else if (b.resource_is_bank(r)) {
    // Capacity model for in-sim bank remaps: the simulator does not know
    // the physical bank sizes (segments are the memory unit here), so
    // banks are capacity-unconstrained and feasibility means "a live bank
    // exists".
    const std::vector<std::size_t> bank_free(
        b.num_banks, std::numeric_limits<std::size_t>::max() / 2);
    std::vector<std::size_t> seg_bytes(graph.num_segments());
    for (tg::SegmentId s = 0; s < graph.num_segments(); ++s)
      seg_bytes[s] = graph.segment(s).bytes;
    const degrade::BankRemapPlan plan = degrade::plan_bank_remap(
        seg_bytes, b.segment_to_bank, bank_free, r, dead_units(b.num_banks, 0));
    feasible = plan.feasible;
    m.kind = FrozenMove::Kind::kBank;
    m.target = plan.moved_segments.empty() ? -1 : plan.target_bank;
    m.moved = plan.moved_segments;
  } else {
    const int dead_phys = r - static_cast<int>(b.num_banks);
    const std::vector<bool> dead = dead_units(b.num_phys_channels, b.num_banks);
    m.kind = FrozenMove::Kind::kChannel;
    const degrade::ChannelRemapPlan plan = degrade::plan_channel_remap(
        b.channel_to_phys, b.num_phys_channels, dead_phys, dead);
    feasible = plan.feasible;
    m.target = plan.moved_channels.empty() ? -1 : plan.target_phys;
    m.moved = plan.moved_channels;
  }
  m.live = m.kind == FrozenMove::Kind::kInPlace || m.target < 0 ? r
           : m.kind == FrozenMove::Kind::kBank ? b.bank_resource(m.target)
                                                : b.channel_resource(m.target);
  return {feasible, m.live};
}

std::vector<TaskId> RunState::contenders(int r1, int r2,
                                         std::vector<TaskId>* elided) {
  // Every running task whose program can drive r1 or r2 — the contention
  // set of the merged resource after a remap, in TaskId order.  Derived
  // from the programs rather than the old arbiter tables so tasks that
  // used the survivor *unarbitrated* join the regenerated arbiter instead
  // of colliding with the movers.  `elided` collects those with no Acquire
  // for either: sole clients, whose protocol ops insertion elided.
  std::vector<TaskId> ports;
  for (const TaskId t : tasks) {
    bool drives = false;
    bool acquires = false;
    for (const Op& op : graph.task(t).program.ops()) {
      int dr = op.code == OpCode::kAcquire || op.code == OpCode::kRelease
                   ? op.a
                   : binding().driven_resource(op);
      if (dr < 0) continue;  // no driven resource must not match r2 == -1
      dr = resolve(dr);
      if (dr != r1 && dr != r2) continue;
      drives = true;
      acquires = acquires || op.code == OpCode::kAcquire;
    }
    if (drives) ports.push_back(t);
    if (drives && !acquires && elided != nullptr) elided->push_back(t);
  }
  std::sort(ports.begin(), ports.end());
  return ports;
}

void RunState::apply_move(int r) {
  // Reconfiguration done: apply the frozen group move, retire the old
  // arbiters and bring up the regenerated one on the survivor.
  const FrozenMove& m = moves[static_cast<std::size_t>(r)];
  const int live = m.live;
  if (m.target >= 0 && m.kind != FrozenMove::Kind::kInPlace) {
    core::Binding& b = mutable_binding();
    std::vector<int>& unit_to = m.kind == FrozenMove::Kind::kBank
                                    ? b.segment_to_bank
                                    : b.channel_to_phys;
    for (const int u : m.moved) unit_to[static_cast<std::size_t>(u)] = m.target;
  }
  // A contender without protocol ops cannot follow Fig. 8 on the shared
  // survivor, so the simulator retrofits an implicit per-access
  // Req/release for it.
  std::vector<TaskId> elided;
  std::vector<TaskId> ports = contenders(r, live == r ? -1 : live, &elided);
  for (const TaskId t : elided)
    if (!ctx[t].implicit_for(live)) ctx[t].implicit_protocol.push_back(live);
  core::ArbitrationPlan& p = mutable_plan();
  const auto retire_lanes = [&](int res) {
    for (const int a : p.arbiters_of_resource[static_cast<std::size_t>(res)]) {
      std::fill(lane(a).requests.begin(), lane(a).requests.end(), 0);
      std::fill(lane(a).pending.begin(), lane(a).pending.end(), 0);
      lane(a).restart_hold();
    }
  };
  retire_lanes(r);
  if (live != r) retire_lanes(live);
  p.arbiters_of_resource[static_cast<std::size_t>(r)].clear();
  PortIndex& index = mutable_port_index();
  index[static_cast<std::size_t>(r)].clear();
  if (!ports.empty()) {
    // The regenerated arbiter is round-robin and keeps the plan's
    // structure: the latest kind planned for the surviving resource
    // (falling back to the plan's last instance when the survivor was
    // unarbitrated before the merge).
    core::ArbiterInstance inst;
    inst.resource = live;
    inst.resource_name = binding().resource_name(live);
    inst.ports = std::move(ports);
    inst.policy = core::Policy::kRoundRobin;
    inst.kind = p.arbiters.empty() ? core::ArbiterKind::kFlatFsm
                                   : p.arbiters.back().kind;
    for (const core::ArbiterInstance& prev : p.arbiters)
      if (prev.resource == live) inst.kind = prev.kind;
    index[static_cast<std::size_t>(live)].clear();
    index_ports(index, inst, static_cast<int>(lanes.size()),
                graph.num_tasks());
    add_lane(inst);
    p.arbiters_of_resource[static_cast<std::size_t>(live)].assign(
        1, static_cast<int>(p.arbiters.size()));
    p.arbiters.push_back(std::move(inst));
  }
  if (live != r) {
    if (resource_fwd.empty()) {
      resource_fwd.resize(static_cast<std::size_t>(num_res));
      std::iota(resource_fwd.begin(), resource_fwd.end(), 0);
    }
    resource_fwd[static_cast<std::size_t>(r)] = live;
    // Translate the live protocol state of every task still pointed at the
    // retired id (ops translate lazily via resolve()).
    for (TaskId t : tasks) {
      TaskCtx& c = ctx[t];
      if (c.requesting == r) c.requesting = live;
      if (c.retry_resource == r) c.retry_resource = live;
      if (c.dropped_request == r) c.dropped_request = live;
    }
  }
  // The ports moved: the programs re-decode now, and every task's lines
  // re-seat after this cycle's phase 3 (the arbiters sample them next
  // cycle, as they would any line a task drives this cycle).
  redecode();
  lines_moved = true;
  diagnose(DiagKind::kRemap, -1, r, [&] {
    return m.kind == FrozenMove::Kind::kInPlace
               ? "arbiter region of " + binding().resource_name(r) +
                     " regenerated in place; service restored"
               : "load of " + binding().resource_name(r) + " remapped onto " +
                     binding().resource_name(live) + " (" +
                     std::to_string(m.moved.size()) +
                     " logical unit(s) moved); service restored";
  });
  trace(obs::TraceKind::kRemap, -1, -1, r, live);
}

}  // namespace rcarb::rcsim::detail
