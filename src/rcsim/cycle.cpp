// SystemSimulator::run — the cycle loop — and the phases of one cycle but
// the supervisor's, in one translation unit so they fold into the loop.
#include <algorithm>
#include <bit>

#include "rcsim/run_state.hpp"
#include "support/check.hpp"

namespace rcarb::rcsim {

using tg::Op;
using tg::OpCode;
using tg::TaskId;

SimResult SystemSimulator::run(const std::vector<TaskId>& tasks) {
  detail::RunState s(graph_, binding_, plan_, *tables_, options_, memory_,
                     tasks);
  while (s.finished_count < tasks.size()) {
    if (s.cycle >= options_.max_cycles) {
      s.result.deadlocked = true;
      s.fail(DiagKind::kMaxCycles, -1, -1,
             [] { return std::string("simulation exceeded max_cycles"); });
      break;
    }
    if (s.cycle - s.last_progress_cycle >= options_.no_progress_window) {
      s.result.deadlocked = true;
      s.attribute_stall();
      if (options_.strict)
        RCARB_CHECK(false, s.result.diagnostics.back().format());
      break;
    }
    if (const std::uint64_t quiet = s.quiet_cycles(); quiet > 0) {
      s.skip_quiet(quiet);
      continue;
    }
    s.inject_faults();
    if (s.degrade_on) s.supervise();
    s.arbitrate();
    s.start_ready_tasks();
    s.step_tasks();
    if (s.lines_moved) s.reseat_lines();
    if (options_.watchdog_timeout > 0) s.run_watchdog();
    s.account_serving();
    ++s.cycle;
  }
  regenerated_arbiters_.clear();
  for (std::size_t a = plan_.arbiters.size(); a < s.plan().arbiters.size(); ++a)
    regenerated_arbiters_.push_back(s.plan().arbiters[a].resource_name);
  return s.finish();
}

namespace detail {

// ---- Phase 0/0b: fault injection. ----
void RunState::inject_faults() {
  // Phase 0: the state-register upsets scheduled for this cycle.
  FaultSchedule& f = faults;
  while (f.flip_next < f.flips.size() && f.flips[f.flip_next].cycle <= cycle) {
    const fault::FaultEvent& e = f.flips[f.flip_next++];
    const auto a = static_cast<std::size_t>(e.arbiter);
    core::Arbiter& arb = *lanes[a].arbiter;
    // Upsets land in the first copy's register (the whole register of an
    // unreplicated arbiter): one copy at a time.
    const int bits = arb.num_state_bits() / core::num_copies(opt.self_check);
    if (bits == 0) continue;
    arb.flip_state_bit(e.bit >= 0 ? e.bit % bits : 0);
    lanes[a].fixed = false;
    trace(obs::TraceKind::kFault, -1, static_cast<int>(a),
          plan().arbiters[a].resource, static_cast<std::int64_t>(e.kind));
  }

  // Phase 0b: the permanent faults scheduled for this cycle.
  while (f.perm_next < f.perm_res.size() &&
         f.perm_res[f.perm_next].first <= cycle) {
    const int r = f.perm_res[f.perm_next++].second;
    if (failed(r)) continue;
    res_failed[static_cast<std::size_t>(r)] = 1;
    using fault::FaultKind;
    const FaultKind kind = binding().resource_is_bank(r)
                               ? FaultKind::kBankFailure
                               : FaultKind::kPermanentStuckChannel;
    trace(obs::TraceKind::kFault, -1, -1, r, static_cast<std::int64_t>(kind));
  }
  while (f.latch_next < f.latchups.size() &&
         f.latchups[f.latch_next].first <= cycle) {
    const std::size_t a = f.latchups[f.latch_next++].second;
    core::Arbiter& arb = *lanes[a].arbiter;
    // A latch-up pins a register: an unreplicated one at the all-zero code
    // (illegal for the flat FSM, which then grants nobody), a
    // self-checking arbiter's copy 0 at its current value (the comparator
    // catches the divergence).  Neither reset nor hardening clears it —
    // it is re-presented before every sample in phase 1 — only
    // reconfiguration can.
    if (opt.self_check == core::CheckMode::kNone)
      arb.load_state(std::vector<std::uint64_t>(
          static_cast<std::size_t>((arb.num_state_bits() + 63) / 64), 0));
    arb.freeze();
    lanes[a].fixed = false;
    trace(obs::TraceKind::kFault, -1, static_cast<int>(a),
          plan().arbiters[a].resource,
          static_cast<std::int64_t>(fault::FaultKind::kArbiterLatchup));
  }
}

// ---- Phase 1: the arbiters sample the request lines. ----
void RunState::check_registers(std::size_t a, bool illegal) {
  ArbiterLane& lane = lanes[a];
  const core::Arbiter& arb = *lane.arbiter;
  const core::ArbiterInstance& inst = plan().arbiters[a];
  // Self-checking arbiters expose a real error wire: every comparator-high
  // cycle is supervisor evidence (and a service gap under DMR, whose
  // grants are gated by ~error).
  if (arb.error()) {
    ++result.self_check_errors;
    degraded_cycle = true;
    if (!lane.was_illegal) {
      ++result.illegal_fsm_states;
      diagnose(DiagKind::kIllegalFsmState, -1, inst.resource, [&] {
        return "self-checking arbiter " + inst.resource_name +
               " raised its error output (copy state mismatch)";
      });
    }
    strike(inst.resource, degrade::StrikeSource::kSelfCheckError);
  }
  lane.was_illegal = illegal || arb.error();
  if (arb.resyncs() != lane.prev_resyncs) {
    result.self_check_resyncs += arb.resyncs() - lane.prev_resyncs;
    lane.prev_resyncs = arb.resyncs();
  }
  if (arb.recoveries() != lane.prev_recoveries) {
    result.fsm_recoveries += arb.recoveries() - lane.prev_recoveries;
    lane.prev_recoveries = arb.recoveries();
    diagnose(DiagKind::kFsmRecovery, -1, inst.resource, [&] {
      return "hardened arbiter " + inst.resource_name +
             " recovered to the all-free reset state";
    });
  }
  if (arb.last_grant_count() > 1) {
    ++result.multi_grant_cycles;
    if (result.multi_grant_cycles == 1 || result.diagnostics.empty() ||
        result.diagnostics.back().kind != DiagKind::kMultipleGrants)
      diagnose(DiagKind::kMultipleGrants, -1, inst.resource, [&] {
        return "arbiter " + inst.resource_name + " asserted " +
               std::to_string(arb.last_grant_count()) +
               " grants at once (mutual exclusion violated)";
      });
  }
}

void RunState::hand_off(std::size_t a, int g) {
  ArbiterLane& lane = lanes[a];
  const core::ArbiterInstance& inst = plan().arbiters[a];
  ArbiterStats& stats = result.arbiters[a];
  const int prev = lane.grant_holder;
  if (sink != nullptr && g != prev && prev >= 0)
    trace(obs::TraceKind::kGrantEnd,
          static_cast<int>(inst.ports[static_cast<std::size_t>(prev)]),
          static_cast<int>(a), inst.resource,
          static_cast<std::int64_t>(cycle - lane.hold_since));
  if (g >= 0) {
    ++stats.granted_cycles;
    if (g != prev) {
      ++stats.grants;
      lane.restart_hold();
      lane.hold_since = cycle;
    }
    // Wait accounting: the granted task's wait ends now.
    const TaskId t = inst.ports[static_cast<std::size_t>(g)];
    std::uint64_t waited = 0;
    if (ctx[t].requesting >= 0) {
      waited = cycle - ctx[t].request_since;
      stats.max_wait = std::max(stats.max_wait, waited);
    }
    if (sink != nullptr && g != prev)
      trace(obs::TraceKind::kGrant, static_cast<int>(t),
            static_cast<int>(a), inst.resource,
            static_cast<std::int64_t>(waited));
  } else {
    lane.restart_hold();
  }
  lane.grant_holder = g;
  lane.holder_accessed = false;
}

bool RunState::lane_at_fixed_point(std::size_t a) {
  const ArbiterLane& lane = lanes[a];
  // The words this cycle samples are the request lines (no force-release
  // or stuck-at window masks them), and they are the last step's.
  for (std::size_t w = 0; w < lane.eff.size(); ++w)
    if (lane.force_release[w] != 0 || lane.requests[w] != lane.eff[w])
      return false;
  for (const fault::FaultEvent& w : opened_stucks(a))
    if (cycle < w.cycle + w.duration) return false;
  return true;
}

void RunState::arbitrate() {
  for (std::size_t a = 0; a < lanes.size(); ++a) {
    ArbiterLane& lane = lanes[a];
    if (lane.fixed && lane_at_fixed_point(a)) {
      // The step would repeat the last one: only the counts move.
      ++result.skipped_lane_steps;
      if (opt.record_request_trace) {
        std::vector<std::uint64_t>& trace = result.request_trace[a];
        trace.insert(trace.end(), lane.eff.begin(), lane.eff.end());
      }
      if (lane.probe != nullptr) {
        if (lane.grant_holder < 0)
          lane.probe->idle_steps(1);
        else
          lane.probe->held_steps(1);
      }
      hand_off(a, lane.grant_holder);
      continue;
    }
    const core::ArbiterInstance& inst = plan().arbiters[a];
    // The request lines asserted in prior cycles, as seen through any active
    // stuck-at faults.  The watchdog's force-release masks a request
    // *inside* the arbiter, downstream of any stuck-at fault on the
    // physical Req line, so a stuck-1 line stays masked while it is
    // force-released (else a phantom stuck-1 holder could never be
    // evicted).  Grant stuck-at faults collect in grant_mask_vis until the
    // grant is known.
    std::vector<std::uint64_t>& eff = lane.eff;
    std::vector<std::uint64_t>& grant_suppress = lane.grant_mask_vis;
    bool disturbed = false;  // a window or force-release shaped the sample
    for (std::size_t w = 0; w < eff.size(); ++w) {
      eff[w] = lane.requests[w] & ~lane.force_release[w];
      if (lane.force_release[w] != 0) disturbed = true;
      if (grant_suppress[w] != 0) grant_suppress[w] = 0;
    }
    for (const fault::FaultEvent& w : opened_stucks(a)) {
      if (cycle >= w.cycle + w.duration) continue;
      disturbed = true;
      if (sink != nullptr && cycle == w.cycle)
        trace(obs::TraceKind::kFault,
              static_cast<int>(inst.ports[static_cast<std::size_t>(w.port)]),
              static_cast<int>(a), inst.resource,
              static_cast<std::int64_t>(w.kind));
      switch (w.kind) {
        case fault::FaultKind::kReqStuck0: core::clear_bit(eff, w.port); break;
        case fault::FaultKind::kReqStuck1:
          if (!core::test_bit(lane.force_release, w.port))
            core::set_bit(eff, w.port);
          break;
        case fault::FaultKind::kGrantStuck0:
        case fault::FaultKind::kGrantDrop:
          core::set_bit(grant_suppress, w.port);
          break;
        default: break;
      }
    }
    // Latch-up: re-present the frozen register before it is checked and
    // sampled, so reset/hardening cannot clear it.
    lane.arbiter->hold_frozen();
    // Quarantine gating: a draining resource only lets its current holder's
    // request through (so the in-flight burst can reach its <=M batch
    // boundary); a reconfiguring or capacity-exhausted resource is offline
    // entirely.
    switch (quarantine(inst.resource)) {
      case degrade::QuarantineState::kDraining: {
        const int h = lane.grant_holder;
        const bool held = h >= 0 && core::test_bit(eff, h);
        std::fill(eff.begin(), eff.end(), 0);
        if (held) core::set_bit(eff, h);
        break;
      }
      case degrade::QuarantineState::kReconfiguring:
      case degrade::QuarantineState::kCapacityExhausted:
        std::fill(eff.begin(), eff.end(), 0);
        break;
      default:
        break;
    }
    core::clear_words(lane.force_release);
    if (opt.record_request_trace) {
      std::vector<std::uint64_t>& trace = result.request_trace[a];
      trace.insert(trace.end(), eff.begin(), eff.end());
    }
    // Unhardened illegal registers are reported when they appear.
    const bool illegal = !lane.arbiter->state_legal();
    if (illegal && !lane.was_illegal) {
      ++result.illegal_fsm_states;
      diagnose(DiagKind::kIllegalFsmState, -1, inst.resource, [&] {
        return "arbiter " + inst.resource_name +
               " state register left the legal set (state=0x" +
               hex_state(*lane.arbiter) + ")";
      });
    }
    // Without a checker the illegal register is invisible to the
    // supervisor (no error wire — the monitor here is simulator
    // omniscience), but the availability metric still records the outage.
    if (illegal) degraded_cycle = true;
    const core::Arbiter& arb = *lane.arbiter;
    const int g = lane.arbiter->step(eff);
    check_registers(a, illegal);
    const std::vector<std::uint64_t>& grant = arb.last_grant_words();
    for (std::size_t w = 0; w < grant.size(); ++w)
      lane.grant_mask_vis[w] = grant[w] & ~grant_suppress[w];
    hand_off(a, g);
    // The two fixed points of the lane skip (top of run_state.hpp).
    bool fixed = !degrade_on && !disturbed && !lane.was_illegal;
    if (fixed && g < 0) {
      fixed = arb.last_grant_count() == 0 && !arb.frozen();
      for (std::size_t w = 0; w < eff.size() && fixed; ++w)
        fixed = eff[w] == 0;
    } else if (fixed) {
      fixed = arb.last_grant_count() == 1 && arb.holds_grant() &&
              core::test_bit(eff, g);
    }
    lane.fixed = fixed;
  }
}

// ---- Phases 2 and 3: start ready tasks, run one cycle of each. ----
void RunState::start_ready_tasks() {
  // Readiness only changes when a task finishes, so the scan runs on the
  // first cycle and after each finish.
  if (finished_count == finished_at_scan && cycle > 0) return;
  finished_at_scan = finished_count;
  std::erase_if(running, [&](TaskId t) { return ctx[t].finished; });
  const auto old_end = static_cast<std::ptrdiff_t>(running.size());
  std::size_t keep = 0;
  for (const TaskId t : unstarted) {
    TaskCtx& c = ctx[t];
    if (c.waiting > 0) {
      unstarted[keep++] = t;
      continue;
    }
    c.started = true;
    c.stats.ran = true;
    c.stats.start_cycle = cycle;
    running.push_back(t);
    trace(obs::TraceKind::kTaskStart, c.task(), -1, -1, 0);
  }
  unstarted.resize(keep);
  // Both runs are in run order; phase 3 steps the merge in run order.
  std::inplace_merge(running.begin(), running.begin() + old_end,
                     running.end(), [&](TaskId x, TaskId y) {
                       return ctx[x].order < ctx[y].order;
                     });
}

void RunState::step_tasks() {
  std::fill(bank_user.begin(), bank_user.end(), -1);
  std::fill(chan_user.begin(), chan_user.end(), -1);
  for (const TaskId t : running) {
    TaskCtx& c = ctx[t];
    if (c.compute_left > 1) {
      // Mid-compute: the cycle only counts down.
      --c.compute_left;
      last_progress_cycle = cycle;
      continue;
    }
    step_task(c);
  }
}

void RunState::finish_task(TaskCtx& c) {
  c.finished = true;
  c.stats.finish_cycle = cycle;
  ++finished_count;
  for (const TaskId s : tables.successors[c.id])
    if (ctx[s].in_run) --ctx[s].waiting;
  trace(obs::TraceKind::kTaskFinish, c.task(), -1, -1, 0);
  if (c.requesting >= 0)
    fail(DiagKind::kProtocolViolation, c.task(), c.requesting, [&] {
      return "task " + graph.task(c.id).name +
             " finished while still requesting " +
             binding().resource_name(c.requesting);
    });
  drive_lines(c);  // a finished task drives no line
}

void RunState::step_task(TaskCtx& c) {
  const DecodedProgram& ops = program(c.id);
  bool spent_cycle = false;
  if (c.compute_left > 0) {
    --c.compute_left;
    last_progress_cycle = cycle;
    if (c.compute_left > 0) return;
    ++c.pc;
    ++c.stats.ops_retired;
    spent_cycle = true;  // zero-cost ops may still drain below
  }
  // Retire zero-cost control ops freely; execute at most one costed op
  // per cycle, then keep draining zero-cost ops (so a task whose last
  // costed op retires this cycle also finishes this cycle).  A costed op
  // takes the cycle whether it retires or stalls.
  int control_budget = 64;
  while (!c.finished) {
    if (c.pc >= ops.size()) {
      finish_task(c);
      break;
    }
    const DecodedOp& d = ops[c.pc];
    const Op& op = d.op;
    if (op.code == OpCode::kLoopBegin || op.code == OpCode::kLoopBeginVar ||
        op.code == OpCode::kLoopEnd || op.code == OpCode::kHalt ||
        (op.code == OpCode::kCompute && op.imm == 0)) {
      exec_control(c, ops, control_budget);
      continue;
    }
    if (spent_cycle) break;
    spent_cycle = true;
    switch (op.code) {
      case OpCode::kCompute:
        c.compute_left = op.imm - 1;  // this cycle is the first
        if (c.compute_left == 0) retire_op(c);
        last_progress_cycle = cycle;
        break;
      case OpCode::kAcquire:
      case OpCode::kRelease: exec_protocol(c, d); break;
      case OpCode::kLoad:
      case OpCode::kStore: exec_memory(c, d); break;
      case OpCode::kSend: exec_send(c, d); break;
      case OpCode::kRecv: exec_recv(c, d); break;
      default: exec_register(c, op); break;
    }
  }
}

void RunState::exec_control(TaskCtx& c, const DecodedProgram& ops,
                            int& control_budget) {
  const Op& op = ops[c.pc].op;
  if (op.code != OpCode::kHalt)
    RCARB_CHECK(--control_budget > 0, "zero-cost op runaway");
  switch (op.code) {
    case OpCode::kLoopBegin:
    case OpCode::kLoopBeginVar: {
      const std::int64_t trip = op.code == OpCode::kLoopBegin
                                    ? op.imm
                                    : std::max<std::int64_t>(0, c.regs[op.a]);
      if (trip == 0) {
        // Skip to the matching end.
        int depth = 1;
        std::size_t pc = c.pc + 1;
        while (depth > 0) {
          const OpCode code = ops[pc].op.code;
          if (code == OpCode::kLoopBegin || code == OpCode::kLoopBeginVar)
            ++depth;
          if (code == OpCode::kLoopEnd) --depth;
          ++pc;
        }
        c.pc = pc;
      } else {
        c.loops.push_back({c.pc, trip});
        ++c.pc;
      }
      last_progress_cycle = cycle;
      break;
    }
    case OpCode::kLoopEnd: {
      RCARB_ASSERT(!c.loops.empty(), "loop_end without frame");
      LoopFrame& frame = c.loops.back();
      if (--frame.remaining > 0) {
        c.pc = frame.begin_pc + 1;
      } else {
        c.loops.pop_back();
        ++c.pc;
      }
      last_progress_cycle = cycle;
      break;
    }
    case OpCode::kHalt:
      c.pc = ops.size();
      break;
    default:  // kCompute with a zero cycle count
      ++c.pc;
      ++c.stats.ops_retired;
      break;
  }
}

bool RunState::await_grant(TaskCtx& c, const DecodedOp& d) {
  // Protocol retry bookkeeping shared by the arbitrated access ops:
  // returns true when the access must wait this cycle (stall, backoff, or
  // the Req re-assertion cycle), false when it may proceed.
  const int resource = d.resource;
  const int ai = d.arbiter;
  const int port = d.port;
  if (c.requesting != resource) {
    const bool retrying = c.retry_resource == resource;
    if (retrying && cycle < c.retry_until) return true;  // backing off
    if (retrying || c.implicit_for(resource)) {
      // Re-assert after the backoff, or the Req:=1 cycle of a retrofitted
      // access.
      c.requesting = resource;
      c.retry_resource = -1;
      c.request_since = cycle;
      drive_lines(c);
      if (retrying) {
        ++result.retries;
        if (ai >= 0 && !result.arbiter_obs.empty())
          ++result.arbiter_obs[static_cast<std::size_t>(ai)].retries;
        if (ai >= 0) trace(obs::TraceKind::kRetry, c.task(), ai, resource, 0);
      } else {
        ++c.stats.acquires;
        trace(obs::TraceKind::kRequest, c.task(), ai, resource, 0);
      }
      return true;
    }
    fail(DiagKind::kProtocolViolation, c.task(), resource, [&] {
      return "task " + graph.task(c.id).name + " accesses arbitrated " +
             binding().resource_name(resource) + " without requesting it";
    });
    ++result.protocol_violations;
    return false;
  }
  if (ai < 0 || port < 0 || core::test_bit(lane(ai).grant_mask_vis, port)) {
    c.retry_backoff = 1;
    return false;
  }
  // No grant.  With retry enabled, give the attempt up after the timeout
  // and back off boundedly (Req:=0 for backoff cycles).
  const int rt = plan().retry_timeout;
  if (rt > 0 && cycle - c.request_since >= static_cast<std::uint64_t>(rt)) {
    c.requesting = -1;
    c.retry_resource = resource;
    c.retry_until = cycle + static_cast<std::uint64_t>(c.retry_backoff);
    drive_lines(c);
    if (!result.arbiter_obs.empty())
      ++result.arbiter_obs[static_cast<std::size_t>(ai)].backoffs;
    trace(obs::TraceKind::kBackoff, c.task(), ai, resource, c.retry_backoff);
    c.retry_backoff = std::min(c.retry_backoff * 2, plan().retry_backoff_limit);
    return true;
  }
  ++c.stats.grant_wait_cycles;  // stall, request stays up
  return true;
}

void RunState::exec_protocol(TaskCtx& c, const DecodedOp& d) {
  // Programs bake resource ids in at insertion time; the decoded op holds
  // the live one after an online remap.
  const int res = d.resource;
  const bool acquire = d.op.code == OpCode::kAcquire;
  if (acquire ? c.requesting >= 0 && c.requesting != res
              : c.requesting != res) {
    fail(DiagKind::kProtocolViolation, c.task(), res, [&] {
      return "task " + graph.task(c.id).name +
             (acquire ? " acquires a second resource while holding one"
                      : " releases a resource it does not hold");
    });
    ++result.protocol_violations;
  }
  c.requesting = acquire ? res : -1;
  c.retry_resource = -1;
  drive_lines(c);
  if (acquire) {
    c.request_since = cycle;
    ++c.stats.acquires;
  }
  if (sink != nullptr)
    trace(acquire ? obs::TraceKind::kRequest : obs::TraceKind::kRelease,
          c.task(), d.arbiter, res, 0);
  retire_op(c);  // the Req:=1 / Req:=0 cycle of Fig. 8
}

bool RunState::blocked(TaskCtx& c, const DecodedOp& d,
                       degrade::StrikeSource evidence) {
  // The grant and fail-stop gate of an access: true when it waits.  A dead
  // bank or stuck channel takes nothing, so the op replays on the survivor
  // once the remap lands: data is stalled, never silently corrupted.
  const int resource = d.resource;
  const int ai = d.arbiter;
  const int p = d.port;
  const bool arbitrated = ai >= 0 && p >= 0;
  if (arbitrated && await_grant(c, d)) return true;
  if (resource >= 0 && failed(resource)) {
    strike(resource, evidence);
    degraded_cycle = true;
    return true;
  }
  if (arbitrated && lane(ai).grant_holder == p) lane(ai).holder_accessed = true;
  return false;
}

void RunState::retired_access(TaskCtx& c, int resource) {
  // Req:=0 right after a retrofitted access retires, so the arbiter
  // rotates per access instead of pinning the grant until task end.
  if (resource >= 0 && c.requesting == resource &&
      c.implicit_for(resource)) {
    c.requesting = -1;
    drive_lines(c);
  }
  retire_op(c);
}

void RunState::exec_memory(TaskCtx& c, const DecodedOp& d) {
  const Op& op = d.op;
  if (!d.bound) (void)binding().driven_resource(op);  // reports the error
  const int resource = d.resource;
  if (blocked(c, d, degrade::StrikeSource::kBankFailure)) return;
  // Single-port bank conflict detection.
  const int bank = d.unit;
  if (bank >= 0) {
    int& user = bank_user[static_cast<std::size_t>(bank)];
    if (user >= 0 && user != c.task()) {
      ++result.bank_conflicts;
      fail(DiagKind::kBankConflict, c.task(), binding().bank_resource(bank),
           [&] {
             return "bank conflict on " +
                    binding().bank_names[static_cast<std::size_t>(bank)] +
                    " between " + graph.task(static_cast<TaskId>(user)).name +
                    " and " + graph.task(c.id).name;
           });
    }
    user = c.task();
  }
  auto& mem = memory[static_cast<std::size_t>(op.b)];
  const std::int64_t addr = c.regs[op.c] + op.imm;
  if (addr < 0 || static_cast<std::size_t>(addr) >= mem.size()) {
    fail(DiagKind::kOutOfBounds, c.task(), resource, [&] {
      return "task " + graph.task(c.id).name + " address " +
             std::to_string(addr) + " out of segment " +
             graph.segment(static_cast<std::size_t>(op.b)).name;
    });
    // Non-strict mode: drop the access.
  } else if (op.code == OpCode::kLoad) {
    c.regs[op.a] = mem[static_cast<std::size_t>(addr)];
  } else {
    mem[static_cast<std::size_t>(addr)] = c.regs[op.a];
  }
  ++c.stats.mem_accesses;
  retired_access(c, resource);
}

void RunState::exec_send(TaskCtx& c, const DecodedOp& d) {
  const Op& op = d.op;
  const auto ch = static_cast<std::size_t>(op.b);
  if (ch < opt.tdm_slots.size() && opt.tdm_slots[ch].second > 0) {
    const auto [slot, period] = opt.tdm_slots[ch];
    if (cycle % static_cast<std::uint64_t>(period) !=
        static_cast<std::uint64_t>(slot)) {
      ++c.stats.grant_wait_cycles;  // waiting for the time slot
      return;
    }
  }
  if (!d.bound) (void)binding().driven_resource(op);  // reports the error
  const int resource = d.resource;
  const int phys = d.unit;
  const bool naive = opt.naive_shared_channel_register && phys >= 0;
  // Receiver-side backpressure comes first: the sender can see its
  // receiver's ready line regardless of the channel grant, and — so no one
  // starves behind a blocked holder — it deasserts its own channel request
  // while stalled.
  if (!naive && chan_reg[ch].valid) {
    if (c.requesting >= 0 && c.requesting == resource) {
      c.dropped_request = c.requesting;
      c.requesting = -1;
      drive_lines(c);
    }
    ++c.stats.backpressure_cycles;
    return;
  }
  if (!naive && c.dropped_request == resource && c.requesting != resource &&
      d.arbiter >= 0 && d.port >= 0) {
    // Re-assert the request dropped during backpressure (one cycle, like
    // the Fig. 8 Req:=1 step).
    c.requesting = resource;
    c.dropped_request = -1;
    c.request_since = cycle;
    drive_lines(c);
    return;
  }
  if (blocked(c, d, degrade::StrikeSource::kChannelFailure)) return;
  std::int64_t value = c.regs[op.a];
  if (phys >= 0) {
    const auto p = static_cast<std::size_t>(phys);
    const auto wire = [&] { return binding().phys_channel_names[p]; };
    const int res = binding().channel_resource(phys);
    int& user = chan_user[p];
    if (user >= 0 && user != c.task()) {
      ++result.channel_conflicts;
      fail(DiagKind::kChannelConflict, c.task(), res, [&] {
        return "channel conflict on " + wire() + " between " +
               graph.task(static_cast<TaskId>(user)).name + " and " +
               graph.task(c.id).name;
      });
    }
    user = c.task();
    // Armed corruption faults hit the next word on the wire; SECDED (with
    // `harden`) corrects a single-bit upset in place.
    auto& armed = faults.chan_corrupt[p];
    if (!armed.empty() && armed.back().first <= cycle) {
      const std::uint64_t mask = armed.back().second;
      armed.pop_back();
      const bool corrected = opt.harden && std::popcount(mask) == 1;
      if (corrected) {
        ++result.corrected_words;
      } else {
        value = static_cast<std::int64_t>(static_cast<std::uint64_t>(value) ^
                                          mask);
        ++result.corrupted_words;
      }
      diagnose(DiagKind::kDataCorruption, c.task(), res, [&] {
        return corrected ? "single-bit corruption on " + wire() +
                               " corrected by SECDED"
                         : "corrupted word on " + wire() +
                               " delivered (parity detected, no ECC)";
      });
    }
  }
  if (naive) {
    // The broken baseline clobbers silently (that is its point).
    naive_reg[static_cast<std::size_t>(phys)] = {true, value, op.b};
  } else {
    chan_reg[ch] = {true, value};
  }
  ++c.stats.channel_ops;
  retired_access(c, resource);
}

void RunState::exec_recv(TaskCtx& c, const DecodedOp& d) {
  // Waiting or consuming both take the cycle.
  const Op& op = d.op;
  const auto ch = static_cast<std::size_t>(op.b);
  const int phys = d.unit;
  if (opt.naive_shared_channel_register && phys >= 0) {
    // The broken single-register baseline has no per-target valid
    // handshake: receivers sample whatever the register holds, so a later
    // transfer on a merged channel is read in place of an earlier one
    // (counted as a clobbered read).
    const NaiveReg& reg = naive_reg[static_cast<std::size_t>(phys)];
    if (!reg.valid) return;
    if (reg.writer != op.b) ++result.clobbered_reads;
    c.regs[op.a] = reg.value;
  } else {
    if (!chan_reg[ch].valid) return;
    c.regs[op.a] = chan_reg[ch].value;
    chan_reg[ch].valid = false;
  }
  ++c.stats.channel_ops;
  retire_op(c);
}

void RunState::exec_register(TaskCtx& c, const Op& op) {
  std::int64_t* r = c.regs;
  switch (op.code) {
    case OpCode::kLoadImm: r[op.a] = op.imm; break;
    case OpCode::kMov: r[op.a] = r[op.b]; break;
    case OpCode::kAdd: r[op.a] = r[op.b] + r[op.c]; break;
    case OpCode::kSub: r[op.a] = r[op.b] - r[op.c]; break;
    case OpCode::kMul: r[op.a] = r[op.b] * r[op.c]; break;
    case OpCode::kMulQ: r[op.a] = (r[op.b] * r[op.c]) >> op.imm; break;
    case OpCode::kShr: r[op.a] = r[op.b] >> op.imm; break;
    case OpCode::kShl:
      r[op.a] = static_cast<std::int64_t>(static_cast<std::uint64_t>(r[op.b])
                                          << op.imm);
      break;
    case OpCode::kAddImm: r[op.a] = r[op.b] + op.imm; break;
    default:
      RCARB_CHECK(false, "unhandled opcode in simulator");
  }
  retire_op(c);
}

// ---- Request lines, and phases 4-6: re-seat, watchdog, availability. ----
void RunState::drive_lines(TaskCtx& c) {
  // `pending` additionally counts waiters in a retry backoff: their Req
  // wire is down, but they are still starved behind the holder.  (Senders
  // that dropped their request under receiver backpressure are *not*
  // pending — they could not proceed even with the grant.)  Each
  // (arbiter, port) belongs to one task, so a task clears only its own
  // bits.
  if (c.line_arbiter >= 0) {
    ArbiterLane& old = lane(c.line_arbiter);
    core::clear_bit(old.requests, c.line_port);
    core::clear_bit(old.pending, c.line_port);
    c.line_arbiter = -1;
  }
  const int res = c.requesting >= 0 ? c.requesting : c.retry_resource;
  if (c.finished || res < 0) return;
  const auto [ai, port] = arbiter_port(c.id, res);
  if (ai < 0 || port < 0) return;
  ArbiterLane& now = lane(ai);
  if (c.requesting >= 0) core::set_bit(now.requests, port);
  core::set_bit(now.pending, port);
  c.line_arbiter = ai;
  c.line_port = port;
}

void RunState::reseat_lines() {
  lines_moved = false;
  for (const TaskId t : tasks) drive_lines(ctx[t]);
}

void RunState::run_watchdog() {
  // A holder that keeps the grant without retiring a single access while
  // peers wait is hung (stuck grant line, phantom stuck-1 requester,
  // crashed holder...).
  for (std::size_t a = 0; a < lanes.size(); ++a) {
    ArbiterLane& lane = lanes[a];
    const int h = lane.grant_holder;
    if (h < 0) continue;
    const core::ArbiterInstance& inst = plan().arbiters[a];
    const degrade::QuarantineState st = quarantine(inst.resource);
    // The quarantine drain masks the peers' requests, so the holder's
    // apparent idle-hold is the supervisor's doing — not a hung grant.
    // Counting these cycles would trip the watchdog mid-drain and
    // force-release the very burst the drain is waiting out (the
    // supervisor's own drain_timeout bounds it).
    const bool quarantined = st == degrade::QuarantineState::kDraining ||
                             st == degrade::QuarantineState::kReconfiguring;
    bool others_waiting = false;
    for (std::size_t w = 0; w < lane.pending.size() && !others_waiting; ++w) {
      std::uint64_t peers = lane.pending[w];
      if (w == static_cast<std::size_t>(h) >> 6) peers &= ~(1ull << (h & 63));
      others_waiting = peers != 0;
    }
    if (quarantined || lane.holder_accessed || !others_waiting) {
      lane.restart_hold();
      continue;
    }
    if (++lane.hold_streak < opt.watchdog_timeout) continue;
    const TaskId holder = inst.ports[static_cast<std::size_t>(h)];
    if (!lane.hung_reported) {
      lane.hung_reported = true;
      ++result.hung_grants;
      strike(inst.resource, degrade::StrikeSource::kWatchdogTrip);
      if (!result.arbiter_obs.empty()) ++result.arbiter_obs[a].watchdog_fires;
      diagnose(DiagKind::kHungGrant, static_cast<int>(holder),
               inst.resource, [&] {
                 return "grant on " + inst.resource_name + " pinned on idle " +
                        graph.task(holder).name + " for " +
                        std::to_string(lane.hold_streak) +
                        " cycles while peers wait";
               });
    }
    if (opt.harden) {
      // Force-release: suppress the hung holder's request for one sample
      // so the round-robin scan moves past it.
      core::set_bit(lane.force_release, h);
      ++result.watchdog_releases;
      if (!result.arbiter_obs.empty())
        ++result.arbiter_obs[a].watchdog_releases;
      diagnose(DiagKind::kWatchdogRecovery, static_cast<int>(holder),
               inst.resource, [&] {
                 return "watchdog force-released " + graph.task(holder).name +
                        " on " + inst.resource_name;
               });
      lane.restart_hold();
    }
  }
}

void RunState::account_serving(std::uint64_t cycles) {
  // A cycle serves unless a quarantine was in progress, an access failed,
  // or a live task is stuck against a failed / capacity-exhausted
  // resource.  Before any permanent fault is active every cycle serves.
  const bool faults_possible =
      degrade_on || faults.perm_next > 0 || faults.latch_next > 0;
  if (faults_possible && !degraded_cycle) {
    for (const TaskId t : running) {
      const TaskCtx& c = ctx[t];
      if (c.finished) continue;
      int res = c.awaited_resource();
      const DecodedProgram& ops = program(t);
      if (res < 0 && c.pc < ops.size()) res = driven_resource(ops[c.pc]);
      if (res >= 0 && res < num_res &&
          (failed(res) ||
           quarantine(res) == degrade::QuarantineState::kCapacityExhausted)) {
        degraded_cycle = true;
        break;
      }
    }
  }
  if (!faults_possible || !degraded_cycle) result.serving_cycles += cycles;
  degraded_cycle = false;
}

// ---- The quiet-stretch jump (see run_state.hpp). ----
std::span<const fault::FaultEvent> RunState::opened_stucks(std::size_t a) {
  if (a >= faults.stucks.size()) return {};
  StuckWindows& s = faults.stucks[a];
  const std::vector<fault::FaultEvent>& w = s.windows;
  while (s.opened < w.size() && w[s.opened].cycle <= cycle) ++s.opened;
  while (s.closed < s.opened &&
         cycle >= w[s.closed].cycle + w[s.closed].duration)
    ++s.closed;
  return {w.data() + s.closed, s.opened - s.closed};
}

std::uint64_t RunState::quiet_cycles() {
  // Readiness is rescanned on the first cycle and after each finish.
  if (degrade_on || cycle == 0 || finished_count != finished_at_scan)
    return 0;
  std::int64_t shortest = 0;  // the least compute_left of a running task
  for (const TaskId t : running) {
    const TaskCtx& c = ctx[t];
    if (c.compute_left <= 1 || c.requesting >= 0 || c.retry_resource >= 0)
      return 0;
    if (shortest == 0 || c.compute_left < shortest) shortest = c.compute_left;
  }
  if (shortest == 0) return 0;
  // The cycle that retires the shortest compute runs one by one.
  std::uint64_t k = static_cast<std::uint64_t>(shortest) - 1;
  k = std::min(k, opt.max_cycles - cycle);
  const auto before = [&](std::uint64_t at) {
    k = at > cycle ? std::min(k, at - cycle) : 0;
  };
  const FaultSchedule& f = faults;
  if (f.flip_next < f.flips.size()) before(f.flips[f.flip_next].cycle);
  if (f.perm_next < f.perm_res.size()) before(f.perm_res[f.perm_next].first);
  if (f.latch_next < f.latchups.size())
    before(f.latchups[f.latch_next].first);
  for (std::size_t a = 0; a < lanes.size() && k > 0; ++a) {
    const ArbiterLane& lane = lanes[a];
    // The last step sampled no request and granted nobody, from a legal,
    // error-free (was_illegal) and unfrozen register: a fixed point.
    if (lane.grant_holder >= 0 || lane.was_illegal ||
        lane.arbiter->frozen())
      return 0;
    for (std::size_t w = 0; w < lane.eff.size(); ++w)
      if ((lane.requests[w] | lane.pending[w] | lane.force_release[w] |
           lane.eff[w]) != 0)
        return 0;
    // A stretch overlaps no stuck-at window: none may be open now, and the
    // stretch ends before the next one opens.
    for (const fault::FaultEvent& w : opened_stucks(a))
      if (cycle < w.cycle + w.duration) return 0;
    if (a < f.stucks.size() && f.stucks[a].opened < f.stucks[a].windows.size())
      before(f.stucks[a].windows[f.stucks[a].opened].cycle);
  }
  return k;
}

void RunState::skip_quiet(std::uint64_t cycles) {
  for (const TaskId t : running)
    ctx[t].compute_left -= static_cast<std::int64_t>(cycles);
  for (std::size_t a = 0; a < lanes.size(); ++a) {
    if (lanes[a].probe != nullptr) lanes[a].probe->idle_steps(cycles);
    if (opt.record_request_trace) {
      std::vector<std::uint64_t>& trace = result.request_trace[a];
      trace.resize(trace.size() + cycles * lanes[a].eff.size(), 0);
    }
  }
  account_serving(cycles);
  cycle += cycles;
  last_progress_cycle = cycle - 1;
  result.skipped_cycles += cycles;
}

}  // namespace detail

}  // namespace rcarb::rcsim
