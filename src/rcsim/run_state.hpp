// Per-run state of SystemSimulator::run and the phases of one simulated
// cycle (internal to rcsim).
//
// A run is a RunState plus the loop in SystemSimulator::run (cycle.cpp),
// which calls the phases in order, once per cycle:
//   0/0b  inject_faults      SEU flips, permanent faults, latch-ups
//         supervise          degradation supervisor (supervisor.cpp)
//   1     arbitrate          arbiters sample last cycle's request lines
//   2     start_ready_tasks  tasks whose in-run predecessors finished
//   3     step_tasks         one cycle of every running task
//   4     reseat_lines       after an online remap only (see below)
//   5     run_watchdog       hung-grant watchdog
//   6     account_serving    availability accounting
// attribute_stall (stall.cpp) explains a run that stopped making progress.
//
// A stepped cycle costs what changes in it:
//   - Decoded ops.  SimTables decodes each task's program once per
//     SystemSimulator: every op carries the resource it drives or names,
//     its (arbiter, port) and its bank or physical channel.  An online
//     remap re-decodes the run's copy.
//   - Edge-driven request lines.  A task's Req and pending bits are set
//     and cleared where its `requesting` or `retry_resource` changes
//     (drive_lines).  A remap moves ports, so the cycle it lands re-seats
//     every task's lines after phase 3, where the next sample first sees
//     them.
//   - Running tasks only.  Phase 3 walks the running tasks, and a task
//     counting down a compute costs one branch.  Readiness comes from
//     each task's count of unfinished in-run predecessors.
//   - Lane skip.  A lane at a fixed point skips its arbiter step and the
//     register checks; its probe takes one idle or held step, the request
//     trace records its words and hand_off runs as on any cycle.  A lane is
//     at a fixed point when this cycle's request words equal the ones its
//     last step sampled and that step either granted nobody on all-zero
//     words (tests/test_policy.cpp, OneZeroStepReachesAFixedPoint) or left
//     holds_grant() true with the holder's Req up (HeldGrantIsAFixedPoint),
//     from a legal, error-free and unfrozen register that no upset or
//     latch-up has touched since, with no stuck-at window open or
//     force-release pending then or now, and the degradation supervisor
//     off.  SimResult::skipped_lane_steps counts the skips.
//
// Quiet stretches are jumped, not stepped.  Before the phases of a cycle,
// quiet_cycles() finds how many cycles would do nothing but count down
// fixed-latency computes, and skip_quiet() advances that many in one step.
// A stretch is quiet when
//   - every running task is inside a kCompute with compute_left > 1 (no
//     task starts: no finish since the last readiness scan);
//   - no task asserts a request or waits out a retry backoff;
//   - every lane's request, pending, force-release and sampled words are
//     zero, it grants nobody, and its register is legal, error-free and
//     not latched up;
//   - no stuck-at window is open;
//   - the degradation supervisor is off (its timers run every cycle).
// It ends one cycle before the first compute retires, at max_cycles, and
// before the next scheduled flip, permanent fault, latch-up or stuck-at
// window start.
// The jump rests on the same idle fixed point: after one step on all-zero
// requests, every arbiter kind and policy, replicated or not, grants
// nobody and keeps its register on more all-zero steps.  So the skipped
// cycles' only effects are counts: compute_left, the progress stamp,
// serving cycles, all-zero request-trace words and each probe's step
// count.
//
// Each run starts from the system as constructed: an online remap copies
// the binding, plan, port index and decoded programs into the RunState
// (copy on first write), so the simulator's own copies never change and
// only segment memory persists.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/arbiter_factory.hpp"
#include "rcsim/system_sim.hpp"
#include "support/check.hpp"

namespace rcarb::rcsim::detail {

/// Per-logical-channel receiver register (Fig. 3: a register per receiving
/// end whose enable comes from the source keeps earlier transfers alive).
struct ChannelReg {
  bool valid = false;
  std::int64_t value = 0;
};

/// Naive alternative: one register per physical channel; `writer` records
/// which logical channel wrote last so corrupted reads can be counted.
struct NaiveReg {
  bool valid = false;
  std::int64_t value = 0;
  int writer = -1;
};

struct LoopFrame {
  std::size_t begin_pc = 0;  // index of the kLoopBegin op
  std::int64_t remaining = 0;
};

/// One arbiter's req/grant stuck-at windows in start-cycle order (input
/// order among equal starts), with two replay cursors that only move
/// forward: every window before `opened` has started, and every window
/// before `closed` has ended.
struct StuckWindows {
  std::vector<fault::FaultEvent> windows;
  std::size_t opened = 0;
  std::size_t closed = 0;
};

/// SimOptions::faults split by application point, each stream
/// cycle-sorted, with its replay cursor.
struct FaultSchedule {
  std::vector<fault::FaultEvent> flips;  // kFsmBitFlip
  std::vector<StuckWindows> stucks;      // per plan arbiter
  // Per physical channel: armed corruption masks (cycle, xor mask), latest
  // first; each send consumes from the back.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      chan_corrupt;
  // Permanent faults: resource activations and arbiter latch-ups, applied
  // in phase 0b and never expiring.
  std::vector<std::pair<std::uint64_t, int>> perm_res;  // (cycle, resource)
  std::vector<std::pair<std::uint64_t, std::size_t>> latchups;
  std::size_t flip_next = 0;
  std::size_t perm_next = 0;
  std::size_t latch_next = 0;
};

/// One task's interpreter and Fig. 8 protocol state.
struct TaskCtx {
  tg::TaskId id = 0;
  [[nodiscard]] int task() const { return static_cast<int>(id); }
  bool in_run = false;
  bool started = false;
  bool finished = false;
  std::size_t order = 0;  // index in the run's task list
  int waiting = 0;        // unfinished in-run control predecessors
  std::size_t pc = 0;
  std::int64_t regs[tg::kNumRegs] = {};
  std::vector<LoopFrame> loops;
  std::int64_t compute_left = 0;  // remaining busy cycles of a kCompute
  // Arbitration protocol state.
  int requesting = -1;  // resource whose Req line this task asserts (-1 none)
  // Resource whose request was auto-deasserted during send backpressure
  // (the sender re-arbitrates once the receiver register frees up).
  int dropped_request = -1;
  std::uint64_t request_since = 0;
  // Protocol-level retry: after retry_timeout granless cycles the task
  // deasserts Req and re-asserts once the bounded backoff expires.
  int retry_resource = -1;
  std::uint64_t retry_until = 0;
  int retry_backoff = 1;
  // The (arbiter, port) whose Req / pending bits this task drives now
  // (-1: none); see RunState::drive_lines.
  int line_arbiter = -1;
  int line_port = -1;
  // Resources this task drives without inserted Req/Rel ops (it was the
  // sole client pre-remap, so the insertion pass elided its protocol);
  // the simulator retrofits a per-access Req / release instead.
  std::vector<int> implicit_protocol;
  /// The resource the task is requesting, backing off from, or has
  /// dropped under backpressure (-1 when none).
  [[nodiscard]] int awaited_resource() const {
    return requesting >= 0       ? requesting
           : retry_resource >= 0 ? retry_resource
                                 : dropped_request;
  }
  [[nodiscard]] bool implicit_for(int resource) const {
    return std::find(implicit_protocol.begin(), implicit_protocol.end(),
                     resource) != implicit_protocol.end();
  }
  TaskStats stats;
};

/// One behavioral arbiter and its per-run bookkeeping.  Lanes are built
/// from the plan when the run starts and appended when the supervisor
/// regenerates an arbiter; the index is the plan's arbiter index.  The
/// per-port lines are port words (bit p of word p / 64 = port p), sized
/// once by add_lane.
struct ArbiterLane : core::SystemArbiter {
  std::unique_ptr<obs::ArbiterProbe> probe;  // SimOptions::arbiter_metrics
  // Request lines per port, driven by the tasks' protocol state
  // (RunState::drive_lines).
  std::vector<std::uint64_t> requests;
  // Ports starved behind the holder, whether their Req is up (requests) or
  // temporarily dropped for a bounded retry backoff.  The watchdog counts
  // these; the wire-level `requests` alone would let every backoff zero
  // the hold streak and hide a hung holder.
  std::vector<std::uint64_t> pending;
  std::vector<std::uint64_t> grant_mask_vis;  // grants past grant stuck-at
  std::vector<std::uint64_t> force_release;   // masked at the next sample
  std::vector<std::uint64_t> eff;  // the request words sampled in phase 1
  int grant_holder = -1;             // port index
  std::uint64_t hold_since = 0;      // cycle the holder was granted
  std::uint64_t prev_recoveries = 0; // hardened-recovery counter seen
  std::uint64_t prev_resyncs = 0;    // self-check resync counter seen
  int hold_streak = 0;               // idle-hold cycles (watchdog)
  bool hung_reported = false;  // the watchdog reported this hold
  bool was_illegal = false;
  bool holder_accessed = false;  // the holder retired an access this cycle
  // The last step left the arbiter at a fixed point for as long as its
  // request words stay as sampled (the lane skip, top of this file).
  bool fixed = false;

  void restart_hold() {
    hold_streak = 0;
    hung_reported = false;
  }
};

/// A drained resource's group move, frozen when its drain ends and applied
/// when the reconfiguration stall has elapsed.
struct FrozenMove {
  enum class Kind : std::uint8_t { kInPlace, kBank, kChannel };
  Kind kind = Kind::kInPlace;
  int target = -1;         // live bank / phys channel (-1: nothing moved)
  int live = -1;           // resource serving the load afterwards
  std::vector<int> moved;  // segments (kBank) or logical channels
};

/// An arbiter's packed state register as hex digits (most significant
/// first), at any width.
[[nodiscard]] std::string hex_state(const core::Arbiter& arbiter);

/// Per resource, indexed by TaskId: the (arbiter, port) of the task on the
/// resource, port_lookup's first match in arbiters_of_resource order.  An
/// empty row means no arbiter guards the resource.
using PortIndex = std::vector<std::vector<std::pair<int, int>>>;

/// Fills inst.resource's row of `index` with arbiter `a`'s ports, keeping
/// earlier entries (first match wins).
void index_ports(PortIndex& index, const core::ArbiterInstance& inst, int a,
                 std::size_t num_tasks);

/// One op with what the binding and plan say about it.
struct DecodedOp {
  tg::Op op;
  // The resource a load, store or send drives (-1: none), or the one an
  // acquire or release names, past any remap.
  int resource = -1;
  int arbiter = -1;  // the task's (arbiter, port) on `resource`
  int port = -1;
  int unit = -1;  // bank (load/store) or physical channel (send/recv)
  // False when the binding has no entry for the op's segment or channel:
  // the op re-derives its resource when it runs, which reports the error.
  bool bound = true;
};
using DecodedProgram = std::vector<DecodedOp>;

/// Decodes task t's `program` into `out` against a binding, a port index
/// and the resource forwarding of a run (`resolve`).
template <class Resolve>
void decode_program(DecodedProgram& out, const tg::Program& program,
                    tg::TaskId t, const core::Binding& binding,
                    const PortIndex& port_index, Resolve&& resolve);

/// What a SystemSimulator derives once from its graph, binding and plan.
/// Runs borrow it; an online remap copies the port index and the decoded
/// programs into its RunState first.
struct SimTables {
  SimTables(const tg::TaskGraph& graph, const core::Binding& binding,
            const core::ArbitrationPlan& plan);
  PortIndex port_index;
  std::vector<DecodedProgram> programs;               // per TaskId
  std::vector<std::vector<tg::TaskId>> predecessors;  // control, per TaskId
  std::vector<std::vector<tg::TaskId>> successors;
};

template <class Resolve>
void decode_program(DecodedProgram& out, const tg::Program& program,
                    tg::TaskId t, const core::Binding& binding,
                    const PortIndex& port_index, Resolve&& resolve) {
  using tg::OpCode;
  out.clear();
  out.reserve(program.ops().size());
  for (const tg::Op& op : program.ops()) {
    DecodedOp& d = out.emplace_back();
    d.op = op;
    const auto unit = static_cast<std::size_t>(op.b);
    switch (op.code) {
      case OpCode::kAcquire:
      case OpCode::kRelease:
        d.resource = resolve(op.a);
        break;
      case OpCode::kLoad:
      case OpCode::kStore:
        d.bound = unit < binding.segment_to_bank.size();
        if (d.bound) {
          d.unit = binding.segment_to_bank[unit];
          d.resource = binding.driven_resource(op);
        }
        break;
      case OpCode::kSend:
      case OpCode::kRecv:
        d.bound = unit < binding.channel_to_phys.size();
        if (d.bound) {
          d.unit = binding.channel_to_phys[unit];
          d.resource = binding.driven_resource(op);
        }
        break;
      default:
        break;
    }
    if (d.resource >= 0 &&
        static_cast<std::size_t>(d.resource) < port_index.size()) {
      const auto& row = port_index[static_cast<std::size_t>(d.resource)];
      if (t < row.size()) std::tie(d.arbiter, d.port) = row[t];
    }
  }
}

struct RunState {
  RunState(const tg::TaskGraph& graph, const core::Binding& binding,
           const core::ArbitrationPlan& plan, const SimTables& tables,
           const SimOptions& options,
           std::vector<std::vector<std::int64_t>>& memory,
           const std::vector<tg::TaskId>& tasks);

  // ---- The phases of one cycle, in order (cycle.cpp, with the loop). ----
  void inject_faults();
  void supervise();  // supervisor.cpp
  void arbitrate();
  void start_ready_tasks();
  void step_tasks();
  /// Re-drives every run task's lines after a remap moved ports.
  void reseat_lines();
  void run_watchdog();
  /// Adds `cycles` cycles of availability accounting.
  void account_serving(std::uint64_t cycles = 1);
  // The quiet-stretch jump (cycle.cpp).
  /// Cycles from this one that are quiet (see the top of this file), or 0.
  std::uint64_t quiet_cycles();
  /// Advances `cycles` quiet cycles in one step.
  void skip_quiet(std::uint64_t cycles);
  /// Lane a's stuck-at windows that have opened by this cycle, past the
  /// leading ones that have ended (later ones may have ended too).
  std::span<const fault::FaultEvent> opened_stucks(std::size_t a);
  // Phase 1, per arbiter.
  /// True when lane a is at a fixed point this cycle (the lane skip).
  bool lane_at_fixed_point(std::size_t a);
  /// `illegal`: the register failed state_legal() before the step.
  void check_registers(std::size_t a, bool illegal);
  void hand_off(std::size_t a, int g);
  // Phase 3, per task: one handler per op family.
  void step_task(TaskCtx& c);
  void finish_task(TaskCtx& c);
  void exec_control(TaskCtx& c, const DecodedProgram& ops,
                    int& control_budget);
  void exec_protocol(TaskCtx& c, const DecodedOp& d);  // acquire / release
  void exec_memory(TaskCtx& c, const DecodedOp& d);
  void exec_send(TaskCtx& c, const DecodedOp& d);
  void exec_recv(TaskCtx& c, const DecodedOp& d);
  void exec_register(TaskCtx& c, const tg::Op& op);
  /// The resource a load, store or send drives, or -1.
  int driven_resource(const DecodedOp& d) const {
    if (d.op.code != tg::OpCode::kLoad && d.op.code != tg::OpCode::kStore &&
        d.op.code != tg::OpCode::kSend)
      return -1;
    return d.bound ? d.resource : binding().driven_resource(d.op);
  }
  bool blocked(TaskCtx& c, const DecodedOp& d,
               degrade::StrikeSource evidence);
  bool await_grant(TaskCtx& c, const DecodedOp& d);
  void retired_access(TaskCtx& c, int resource);
  /// Sets c's Req and pending bits from its `requesting` and
  /// `retry_resource`, clearing the ones it drove before.  Call after
  /// every change to either.
  void drive_lines(TaskCtx& c);

  // ---- Set-up and results (system_sim.cpp). ----
  /// Builds the lane for one arbiter instance through the shared factory,
  /// so the option set (hardening, self-check, seed, kind) never drifts
  /// between first build and reconfiguration.
  void add_lane(const core::ArbiterInstance& inst);
  /// Final counters, task stats and supervisor records.
  SimResult finish();
  core::Binding& mutable_binding();
  core::ArbitrationPlan& mutable_plan();
  PortIndex& mutable_port_index();
  /// Re-decodes the run's programs against the remapped binding, plan and
  /// resource forwarding.
  void redecode();

  // ---- Degradation supervisor (supervisor.cpp). ----
  /// One piece of permanent-fault evidence against a resource.
  void strike(int resource, degrade::StrikeSource source);
  void drain(int r);
  degrade::RetirePlan freeze_move(int r);
  void apply_move(int r);
  std::vector<tg::TaskId> contenders(int r1, int r2,
                                     std::vector<tg::TaskId>* elided = nullptr);

  /// Wait-for-graph analysis of a stalled run: reports a kDeadlock cycle,
  /// or kNoProgress with a task-state dump (stall.cpp).
  void attribute_stall();

  // ---- Shared helpers. ----
  [[nodiscard]] const core::Binding& binding() const { return *binding_; }
  [[nodiscard]] const core::ArbitrationPlan& plan() const { return *plan_; }
  [[nodiscard]] const PortIndex& port_index() const { return *port_index_; }
  [[nodiscard]] const DecodedProgram& program(tg::TaskId t) const {
    return (*programs_)[t];
  }

  /// The arbiter index and port of task `t` on `resource`, or {-1, -1}:
  /// plan().port_lookup's answer, read from the port index.
  [[nodiscard]] std::pair<int, int> arbiter_port(tg::TaskId t,
                                                 int resource) const {
    if (resource < 0 ||
        static_cast<std::size_t>(resource) >= port_index().size())
      return {-1, -1};
    const auto& row = port_index()[static_cast<std::size_t>(resource)];
    return t < row.size() ? row[t] : std::pair{-1, -1};
  }
  /// Old resource id -> live resource id after remaps (path-compressed).
  /// Group-move remapping keeps this a function, so programs whose
  /// acquire/release ops baked in a resource id keep working after the
  /// move.  Empty until the first move.
  int resolve(int r) {
    if (resource_fwd.empty() || r < 0 || r >= num_res) return r;
    int root = r;
    while (resource_fwd[static_cast<std::size_t>(root)] != root)
      root = resource_fwd[static_cast<std::size_t>(root)];
    while (resource_fwd[static_cast<std::size_t>(r)] != root) {
      const int next = resource_fwd[static_cast<std::size_t>(r)];
      resource_fwd[static_cast<std::size_t>(r)] = root;
      r = next;
    }
    return root;
  }
  /// The supervisor's state of a resource (kHealthy with degradation off).
  [[nodiscard]] degrade::QuarantineState quarantine(int resource) const {
    return degrade_on ? sup.state(resource)
                      : degrade::QuarantineState::kHealthy;
  }
  void retire_op(TaskCtx& c) {
    ++c.pc;
    ++c.stats.ops_retired;
    last_progress_cycle = cycle;
  }
  ArbiterLane& lane(int a) { return lanes[static_cast<std::size_t>(a)]; }
  [[nodiscard]] bool failed(int resource) const {
    return res_failed[static_cast<std::size_t>(resource)] != 0;
  }

  /// Emits a trace event stamped with the current cycle.
  void trace(obs::TraceKind kind, int task, int arbiter, int resource,
             std::int64_t value) const {
    if (sink != nullptr)
      sink->emit({cycle, kind, task, arbiter, resource, value});
  }
  /// Records a diagnostic.  `make_detail` is a lazy builder: the detail
  /// string is only formatted when someone will read it (diag_detail on,
  /// or a strict run about to throw) — non-strict sweeps that merely count
  /// diagnostic kinds never pay for string construction.
  template <class MakeDetail>
  void diagnose(DiagKind kind, int task, int resource,
                MakeDetail&& make_detail) {
    result.diagnostics.push_back(
        {kind, cycle, task, resource,
         want_detail ? make_detail() : std::string()});
    trace(obs::TraceKind::kDiagnostic, task, -1, resource,
          static_cast<std::int64_t>(kind));
  }
  /// diagnose(), and a strict run throws.
  template <class MakeDetail>
  void fail(DiagKind kind, int task, int resource, MakeDetail&& make_detail) {
    diagnose(kind, task, resource, make_detail);
    if (opt.strict) RCARB_CHECK(false, result.diagnostics.back().detail);
  }

  // ---- The system (borrowed; the tables a remap rewrites are copied on
  // first write). ----
  const tg::TaskGraph& graph;
  const SimTables& tables;
  const SimOptions& opt;
  std::vector<std::vector<std::int64_t>>& memory;
  const std::vector<tg::TaskId>& tasks;
  const core::Binding* binding_;
  const core::ArbitrationPlan* plan_;
  const PortIndex* port_index_;
  const std::vector<DecodedProgram>* programs_;
  std::unique_ptr<core::Binding> own_binding;
  std::unique_ptr<core::ArbitrationPlan> own_plan;
  std::unique_ptr<PortIndex> own_port_index;
  std::unique_ptr<std::vector<DecodedProgram>> own_programs;

  obs::TraceSink* const sink;
  const bool want_detail;
  SimResult result;

  std::vector<TaskCtx> ctx;  // per TaskId
  // Run tasks in run order: not yet started, and started but unfinished as
  // of the last readiness scan (a task that finishes leaves at the next).
  std::vector<tg::TaskId> unstarted;
  std::vector<tg::TaskId> running;
  std::vector<ArbiterLane> lanes;
  FaultSchedule faults;
  std::vector<ChannelReg> chan_reg;  // per logical channel
  std::vector<NaiveReg> naive_reg;   // per physical channel
  // Per-cycle single-port usage: (bank or phys channel) -> first user task.
  std::vector<int> bank_user;
  std::vector<int> chan_user;

  // ---- Graceful degradation. ----
  const bool degrade_on;
  const int num_res;
  degrade::ResourceSupervisor sup;  // constructed when degrade_on
  // Resources whose hardware is permanently dead (injected kBankFailure /
  // kPermanentStuckChannel).  Maintained even with the supervisor off: the
  // stall-only baseline injects but never repairs.
  std::vector<char> res_failed;
  std::vector<int> resource_fwd;  // see resolve()
  std::vector<FrozenMove> moves;  // per resource, when degrade_on
  // Set anywhere in the cycle that degradation affected service; cleared
  // by the serving-cycle accounting at the end of the cycle.
  bool degraded_cycle = false;
  // A remap moved ports this cycle: reseat_lines runs after phase 3.
  bool lines_moved = false;

  std::uint64_t cycle = 0;
  std::uint64_t last_progress_cycle = 0;
  std::size_t finished_count = 0;
  std::size_t finished_at_scan = 0;  // finished_count at the last start scan
};

}  // namespace rcarb::rcsim::detail
