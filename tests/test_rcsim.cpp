#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/insertion.hpp"
#include "rcsim/run_state.hpp"
#include "rcsim/system_sim.hpp"
#include "support/check.hpp"

namespace rcarb::rcsim {
namespace {

using core::Binding;
using core::InsertionOptions;
using core::InsertionResult;
using tg::Program;
using tg::TaskGraph;
using tg::TaskId;

Binding single_bank_binding(const TaskGraph& g, std::size_t num_tasks) {
  Binding b;
  b.task_to_pe.assign(num_tasks, 0);
  b.segment_to_bank.assign(g.num_segments(), 0);
  b.channel_to_phys.assign(g.num_channels(), -1);
  b.num_banks = 1;
  b.bank_names = {"BANK"};
  return b;
}

core::ArbitrationPlan empty_plan(const Binding& b) {
  core::ArbitrationPlan plan;
  plan.arbiters_of_resource.assign(b.num_resources(), {});
  return plan;
}

// ----------------------------------------------------------- op semantics

TEST(Rcsim, AluAndMemorySemantics) {
  TaskGraph g("alu");
  g.add_segment("s", 64, 16);
  Program p;
  p.load_imm(1, 6)
      .load_imm(2, 7)
      .mul(3, 1, 2)        // 42
      .add(4, 3, 1)        // 48
      .sub(5, 4, 2)        // 41
      .shl(6, 5, 1)        // 82
      .shr(7, 6, 2)        // 20
      .add_imm(8, 7, 100)  // 120
      .mul_q(9, 1, 2, 1)   // (6*7)>>1 = 21
      .mov(10, 9)
      .load_imm(0, 0)
      .store(0, 0, 8, 3)   // s[3] = 120
      .store(0, 0, 10, 4)  // s[4] = 21
      .load(11, 0, 0, 3)
      .store(0, 0, 11, 5)  // s[5] = 120
      .halt();
  g.add_task("t", p, 1);
  const Binding b = single_bank_binding(g, 1);
  SystemSimulator sim(g, b, empty_plan(b));
  const SimResult r = sim.run({0});
  EXPECT_EQ(sim.segment_data(0)[3], 120);
  EXPECT_EQ(sim.segment_data(0)[4], 21);
  EXPECT_EQ(sim.segment_data(0)[5], 120);
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Rcsim, EveryCostedOpTakesOneCycle) {
  TaskGraph g("cost");
  Program p;
  p.load_imm(0, 1).add(1, 0, 0).add(2, 1, 1).halt();
  g.add_task("t", p, 1);
  Binding b = single_bank_binding(g, 1);
  b.num_banks = 0;
  b.bank_names.clear();
  SystemSimulator sim(g, b, empty_plan(b));
  const SimResult r = sim.run({0});
  EXPECT_EQ(r.cycles, 3u);  // 3 costed ops; halt is free
}

TEST(Rcsim, ComputeTakesDeclaredCycles) {
  TaskGraph g("busy");
  Program p;
  p.compute(10).halt();
  g.add_task("t", p, 1);
  Binding b = single_bank_binding(g, 1);
  b.num_banks = 0;
  b.bank_names.clear();
  SystemSimulator sim(g, b, empty_plan(b));
  EXPECT_EQ(sim.run({0}).cycles, 10u);
}

TEST(Rcsim, LoopsIterateAndNest) {
  TaskGraph g("loop");
  g.add_segment("s", 64, 16);
  Program p;
  p.load_imm(0, 0)  // address/counter
      .load_imm(1, 0)
      .loop_begin(3)
      .loop_begin(4)
      .add_imm(1, 1, 1)
      .loop_end()
      .loop_end()
      .store(0, 0, 1)
      .halt();
  g.add_task("t", p, 1);
  const Binding b = single_bank_binding(g, 1);
  SystemSimulator sim(g, b, empty_plan(b));
  sim.run({0});
  EXPECT_EQ(sim.segment_data(0)[0], 12);  // 3 * 4 iterations
}

TEST(Rcsim, ZeroCountLoopSkipsBody) {
  TaskGraph g("skip");
  g.add_segment("s", 64, 16);
  Program p;
  p.load_imm(0, 0).load_imm(1, 7).loop_begin(0).load_imm(1, 99).loop_end();
  p.store(0, 0, 1).halt();
  g.add_task("t", p, 1);
  const Binding b = single_bank_binding(g, 1);
  SystemSimulator sim(g, b, empty_plan(b));
  sim.run({0});
  EXPECT_EQ(sim.segment_data(0)[0], 7);
}

TEST(Rcsim, ControlDependenciesSequenceTasks) {
  TaskGraph g("deps");
  g.add_segment("s", 64, 16);
  Program writer;
  writer.load_imm(0, 0).load_imm(1, 5).store(0, 0, 1).halt();
  Program reader;
  reader.load_imm(0, 0).load(1, 0, 0).add_imm(1, 1, 1).store(0, 0, 1, 1).halt();
  const TaskId w = g.add_task("w", writer, 1);
  const TaskId r = g.add_task("r", reader, 1);
  g.add_control_dep(w, r);
  const Binding b = single_bank_binding(g, 2);
  SystemSimulator sim(g, b, empty_plan(b));
  const SimResult result = sim.run({w, r});
  EXPECT_EQ(sim.segment_data(0)[1], 6) << "reader must see the writer's value";
  EXPECT_GE(result.tasks[r].start_cycle, result.tasks[w].finish_cycle);
}

// ------------------------------------------------- conflicts & protocol

/// Two tasks hammering segments bound to one bank.
struct ContentionFixture {
  TaskGraph g{"contend"};
  Binding binding;

  explicit ContentionFixture(int accesses) {
    g.add_segment("s0", 64, 16);
    g.add_segment("s1", 64, 16);
    for (int t = 0; t < 2; ++t) {
      Program p;
      p.load_imm(0, 0);
      for (int i = 0; i < accesses; ++i) p.store(t, 0, 0, i);
      p.halt();
      g.add_task(std::string("t").append(std::to_string(t)), p, 1);
    }
    binding = single_bank_binding(g, 2);
  }
};

TEST(Rcsim, UnarbitratedContentionDetected) {
  ContentionFixture fx(4);
  SimOptions options;
  options.strict = false;
  SystemSimulator sim(fx.g, fx.binding, empty_plan(fx.binding), options);
  const SimResult r = sim.run({0, 1});
  EXPECT_GT(r.bank_conflicts, 0u)
      << "two parallel tasks on one bank must collide without arbitration";
}

TEST(Rcsim, StrictModeThrowsOnConflict) {
  ContentionFixture fx(4);
  SystemSimulator sim(fx.g, fx.binding, empty_plan(fx.binding), {});
  EXPECT_THROW(sim.run({0, 1}), CheckError);
}

TEST(Rcsim, ArbitrationEliminatesConflicts) {
  ContentionFixture fx(4);
  const InsertionResult ins =
      core::insert_arbitration(fx.g, fx.binding, {});
  SystemSimulator sim(ins.graph, fx.binding, ins.plan);
  const SimResult r = sim.run({0, 1});
  EXPECT_EQ(r.bank_conflicts, 0u);
  EXPECT_EQ(r.protocol_violations, 0u);
  EXPECT_EQ(sim.segment_data(0)[0], 0);
  ASSERT_EQ(r.arbiters.size(), 1u);
  EXPECT_GT(r.arbiters[0].grants, 0u);
}

TEST(Rcsim, Fig8OverheadIsTwoCyclesPerBurst) {
  // Solo task, artificially arbitrated: each burst costs exactly +2.
  TaskGraph g("overhead");
  g.add_segment("s", 64, 16);
  Program p;
  p.load_imm(0, 0);
  for (int i = 0; i < 4; ++i) p.store(0, 0, 0, i);
  p.halt();
  g.add_task("t", p, 1);
  g.add_task("other", p, 1);  // second accessor forces the arbiter
  Binding b = single_bank_binding(g, 2);

  InsertionOptions im2;
  im2.batch_m = 2;
  const InsertionResult ins = core::insert_arbitration(g, b, im2);
  SystemSimulator sim(ins.graph, b, ins.plan);
  // Run ONLY task 0: no contention, grants are immediate.
  const SimResult r = sim.run({0});
  // Unarbitrated baseline: 1 (load_imm) + 4 stores = 5 cycles.
  // M=2 -> 2 bursts -> +4 cycles.
  EXPECT_EQ(r.cycles, 9u);
  EXPECT_EQ(r.tasks[0].acquires, 2u);
}

TEST(Rcsim, AccessWithoutRequestIsProtocolViolation) {
  ContentionFixture fx(2);
  // Plan an arbiter but do NOT rewrite the programs.
  const InsertionResult ins =
      core::insert_arbitration(fx.g, fx.binding, {});
  SimOptions options;
  options.strict = false;
  SystemSimulator sim(fx.g, fx.binding, ins.plan, options);
  const SimResult r = sim.run({0, 1});
  EXPECT_GT(r.protocol_violations, 0u);
}

TEST(Rcsim, GrantWaitCyclesAccounted) {
  ContentionFixture fx(6);
  const InsertionResult ins =
      core::insert_arbitration(fx.g, fx.binding, {});
  SystemSimulator sim(ins.graph, fx.binding, ins.plan);
  const SimResult r = sim.run({0, 1});
  EXPECT_GT(r.tasks[0].grant_wait_cycles + r.tasks[1].grant_wait_cycles, 0u)
      << "two contenders cannot both always get instant grants";
  ASSERT_EQ(r.arbiters.size(), 1u);
  EXPECT_GT(r.arbiters[0].granted_cycles, 0u);
}

// ------------------------------------------------------------- channels

TEST(Rcsim, ChannelTransfersValue) {
  TaskGraph g("chan");
  Program snd;
  snd.load_imm(0, 123).send(0, 0).halt();
  Program rcv;
  rcv.recv(1, 0).halt();
  const TaskId s = g.add_task("s", snd, 1);
  const TaskId r = g.add_task("r", rcv, 1);
  g.add_channel("c", 32, s, r);
  g.add_segment("out", 64, 16);
  // Extend receiver to store what it got.
  Program rcv2;
  rcv2.recv(1, 0).load_imm(0, 0).store(0, 0, 1).halt();
  g.task(r).program = rcv2;

  Binding b = single_bank_binding(g, 2);
  SystemSimulator sim(g, b, empty_plan(b));
  sim.run({s, r});
  EXPECT_EQ(sim.segment_data(0)[0], 123);
}

TEST(Rcsim, RecvBlocksUntilSend) {
  TaskGraph g("block");
  Program snd;
  snd.compute(20).load_imm(0, 9).send(0, 0).halt();
  Program rcv;
  rcv.recv(1, 0).halt();
  const TaskId s = g.add_task("s", snd, 1);
  const TaskId r = g.add_task("r", rcv, 1);
  g.add_channel("c", 32, s, r);
  Binding b = single_bank_binding(g, 2);
  b.num_banks = 0;
  b.bank_names.clear();
  SystemSimulator sim(g, b, empty_plan(b));
  const SimResult result = sim.run({s, r});
  EXPECT_GE(result.tasks[r].finish_cycle, 21u);
}

TEST(Rcsim, ReceiverRegistersSurviveLaterTransfers) {
  // The paper's Table 1 argument: c1's value must remain for task 2 even
  // after task 4 writes the shared physical channel.
  TaskGraph g("table1");
  Program t1;
  t1.load_imm(0, 10).send(0, 0).halt();  // c1 := 10
  Program t4;
  t4.load_imm(0, 102).send(1, 0).halt();  // c4 := 102
  Program t2;
  t2.compute(30).recv(1, 0).halt();  // consumes c1 late
  Program t3;
  t3.recv(1, 1).halt();
  const TaskId task1 = g.add_task("T1", t1, 1);
  const TaskId task2 = g.add_task("T2", t2, 1);
  const TaskId task3 = g.add_task("T3", t3, 1);
  const TaskId task4 = g.add_task("T4", t4, 1);
  g.add_channel("c1", 16, task1, task2);
  g.add_channel("c4", 16, task4, task3);
  g.add_segment("out", 64, 16);
  Program t2_store;
  t2_store.compute(30).recv(1, 0).load_imm(0, 0).store(0, 0, 1).halt();
  g.task(task2).program = t2_store;

  Binding b = single_bank_binding(g, 4);
  b.channel_to_phys = {0, 0};  // merged onto one physical channel "c1_4"
  b.num_phys_channels = 1;
  b.phys_channel_names = {"c1_4"};

  const InsertionResult ins = core::insert_arbitration(g, b, {});
  SystemSimulator sim(ins.graph, b, ins.plan);
  const SimResult r = sim.run({task1, task2, task3, task4});
  EXPECT_EQ(sim.segment_data(0)[0], 10)
      << "T2 must read c1's value despite T4's later transfer";
  EXPECT_EQ(r.clobbered_reads, 0u);
}

TEST(Rcsim, NaiveSharedRegisterClobbers) {
  // Same scenario with the broken single-register-per-physical-channel
  // alternative: T4's value overwrites T1's before T2 consumes it.
  TaskGraph g("naive");
  Program t1;
  t1.load_imm(0, 10).send(0, 0).halt();
  Program t4;
  t4.compute(3).load_imm(0, 102).send(1, 0).halt();
  Program t2;
  t2.compute(30).recv(1, 0).load_imm(0, 0).store(0, 0, 1).halt();
  Program t3;
  t3.compute(1).halt();  // never consumes; the shared register is clobbered
  const TaskId task1 = g.add_task("T1", t1, 1);
  const TaskId task2 = g.add_task("T2", t2, 1);
  const TaskId task3 = g.add_task("T3", t3, 1);
  const TaskId task4 = g.add_task("T4", t4, 1);
  g.add_channel("c1", 16, task1, task2);
  g.add_channel("c4", 16, task4, task3);
  g.add_segment("out", 64, 16);

  Binding b = single_bank_binding(g, 4);
  b.channel_to_phys = {0, 0};
  b.num_phys_channels = 1;
  b.phys_channel_names = {"c1_4"};

  const InsertionResult ins = core::insert_arbitration(g, b, {});
  SimOptions options;
  options.naive_shared_channel_register = true;
  options.strict = false;
  SystemSimulator sim(ins.graph, b, ins.plan, options);
  const SimResult r = sim.run({task1, task2, task3, task4});
  EXPECT_GT(r.clobbered_reads, 0u);
  EXPECT_EQ(sim.segment_data(0)[0], 102) << "T2 read T4's value — data loss";
}

// ----------------------------------------------------------- error paths

TEST(Rcsim, DeadlockDetected) {
  TaskGraph g("deadlock");
  Program rcv;
  rcv.recv(0, 0).halt();
  Program snd;
  snd.compute(1).halt();  // never sends
  const TaskId r = g.add_task("r", rcv, 1);
  const TaskId s = g.add_task("s", snd, 1);
  g.add_channel("c", 16, s, r);
  Binding b = single_bank_binding(g, 2);
  b.num_banks = 0;
  b.bank_names.clear();
  SystemSimulator sim(g, b, empty_plan(b));
  EXPECT_THROW(sim.run({r, s}), CheckError);
}

TEST(Rcsim, OutOfBoundsAddressDiagnosed) {
  TaskGraph g("oob");
  g.add_segment("s", 8, 2);
  Program p;
  p.load_imm(0, 0).store(0, 0, 0, 99).halt();
  g.add_task("t", p, 1);
  const Binding b = single_bank_binding(g, 1);
  SystemSimulator sim(g, b, empty_plan(b));
  EXPECT_THROW(sim.run({0}), CheckError);
}

TEST(Rcsim, SegmentPreloadAndReadback) {
  TaskGraph g("mem");
  g.add_segment("s", 64, 8);
  Program p;
  p.load_imm(0, 0).load(1, 0, 0, 2).store(0, 0, 1, 3).halt();
  g.add_task("t", p, 1);
  const Binding b = single_bank_binding(g, 1);
  SystemSimulator sim(g, b, empty_plan(b));
  sim.write_segment(0, {1, 2, 3});
  sim.run({0});
  EXPECT_EQ(sim.segment_data(0)[3], 3);
  EXPECT_THROW(sim.write_segment(0, std::vector<std::int64_t>(99)),
               CheckError);
  EXPECT_THROW((void)sim.segment_data(7), CheckError);
}

// ------------------------------ arbiter faults at every kind and width

/// `tasks` writers on one bank, each issuing `bursts` one-store bursts
/// separated by a compute cycle.
TaskGraph writers_graph(int tasks, int bursts) {
  TaskGraph g("writers");
  for (int t = 0; t < tasks; ++t)
    g.add_segment(std::string("s").append(std::to_string(t)), 64, 16);
  for (int t = 0; t < tasks; ++t) {
    Program p;
    p.load_imm(0, 0);
    for (int i = 0; i < bursts; ++i)
      p.store(static_cast<tg::SegmentId>(t), 0, 0, i).compute(1);
    p.halt();
    g.add_task(std::string("t").append(std::to_string(t)), p, 1);
  }
  return g;
}

/// The writers behind one arbiter of `tasks` ports.
struct WritersFixture {
  TaskGraph g;
  Binding binding;
  InsertionResult ins;
  std::vector<TaskId> all;

  WritersFixture(int tasks, int bursts,
                 core::ArbiterKind kind = core::ArbiterKind::kFlatFsm)
      : g(writers_graph(tasks, bursts)),
        binding(single_bank_binding(g, static_cast<std::size_t>(tasks))),
        ins(core::insert_arbitration(g, binding, {.arbiter_kind = kind})) {
    for (int t = 0; t < tasks; ++t) all.push_back(static_cast<TaskId>(t));
  }

  SimResult run(SimOptions options) const {
    SystemSimulator sim(ins.graph, binding, ins.plan, options);
    return sim.run(all);
  }
};

fault::FaultEvent arbiter_fault(fault::FaultKind kind) {
  fault::FaultEvent e;
  e.kind = kind;
  e.cycle = 3;
  e.arbiter = 0;
  return e;
}

std::string illegal_state_detail(const SimResult& r) {
  for (const SimDiagnostic& d : r.diagnostics)
    if (d.kind == DiagKind::kIllegalFsmState) return d.detail;
  return "";
}

TEST(RcsimArbiterFaults, SeuOnAWideFlatRegisterIsReportedInHex) {
  // Default options (strict, detailed diagnostics): an upset of F0 while
  // C0 holds leaves the flat register two-hot, 2^n + 1, and the
  // diagnostic prints it in hex at any width — past 32 ports too.
  for (const int n : {32, 33, 40, 64}) {
    WritersFixture fx(n, 1);
    SimOptions options;
    options.faults = {arbiter_fault(fault::FaultKind::kFsmBitFlip)};
    SimResult r;
    ASSERT_NO_THROW(r = fx.run(options)) << "n=" << n;
    EXPECT_FALSE(r.deadlocked) << "n=" << n;
    EXPECT_EQ(r.illegal_fsm_states, 1u) << "n=" << n;
    const std::string hex = std::to_string(1 << (n % 4)) +
                            std::string(static_cast<std::size_t>(n / 4 - 1),
                                        '0') +
                            "1";
    EXPECT_NE(illegal_state_detail(r).find("(state=0x" + hex + ")"),
              std::string::npos)
        << "n=" << n << ": " << illegal_state_detail(r);
  }
}

TEST(RcsimArbiterFaults, FlatLatchUpPinsTheRegisterAtZeroAtEveryWidth) {
  // A latched plain flat register is pinned at the illegal all-zero code:
  // it grants nobody, so the writers stall — at every width.
  for (const int n : {20, 40, 64}) {
    WritersFixture fx(n, 1);
    SimOptions options;
    options.strict = false;
    options.no_progress_window = 200;
    options.faults = {arbiter_fault(fault::FaultKind::kArbiterLatchup)};
    const SimResult r = fx.run(options);
    EXPECT_TRUE(r.deadlocked) << "n=" << n;
    EXPECT_EQ(r.illegal_fsm_states, 1u) << "n=" << n;
    EXPECT_NE(illegal_state_detail(r).find("(state=0x0)"), std::string::npos)
        << "n=" << n << ": " << illegal_state_detail(r);
    // Hardening cannot clear it: the register recovers inside every step
    // and is re-pinned before the next one, so it serves but recovers on
    // every cycle it is sampled.
    options.harden = true;
    const SimResult h = fx.run(options);
    EXPECT_FALSE(h.deadlocked) << "n=" << n;
    EXPECT_GT(h.fsm_recoveries, static_cast<std::uint64_t>(n))
        << "n=" << n << ": one recovery per sampled cycle";
  }
}

TEST(RcsimArbiterFaults, FrozenScalableArbitersDegenerateToFixedPriority) {
  // A latched hierarchical or prefix register is pinned at all-zero: every
  // tree pointer at slot 0 with no holder, or a pointer with no hot bit.
  // Each cycle then re-arbitrates from scratch and the lowest requesting
  // port wins, so task t finishes all of its bursts before task t + 1,
  // and task 0 finishes earlier than under the fault-free rotation.
  for (const core::ArbiterKind kind :
       {core::ArbiterKind::kHierarchical, core::ArbiterKind::kPrefix}) {
    for (const int n : {8, 40}) {
      WritersFixture fx(n, 3, kind);
      SimOptions options;
      const SimResult clean = fx.run(options);
      options.faults = {arbiter_fault(fault::FaultKind::kArbiterLatchup)};
      const SimResult r = fx.run(options);
      const std::string what = std::string(core::to_string(kind)) +
                               " n=" + std::to_string(n);
      EXPECT_FALSE(r.deadlocked) << what;
      EXPECT_TRUE(r.diagnostics.empty()) << what;
      for (int t = 0; t + 1 < n; ++t)
        EXPECT_LT(r.tasks[static_cast<std::size_t>(t)].finish_cycle,
                  r.tasks[static_cast<std::size_t>(t) + 1].finish_cycle)
            << what << " task " << t;
      EXPECT_LT(r.tasks[0].finish_cycle, clean.tasks[0].finish_cycle) << what;
    }
  }
}

TEST(RcsimArbiterFaults, SelfCheckedLatchUpIsDetectedPastThirtyTwoPorts) {
  // A replicated register keeps copy 0 pinned at its current value; the
  // comparator sees the divergence at every kind and width.
  for (const core::ArbiterKind kind :
       {core::ArbiterKind::kFlatFsm, core::ArbiterKind::kHierarchical,
        core::ArbiterKind::kPrefix}) {
    WritersFixture fx(40, 3, kind);
    SimOptions options;
    options.strict = false;
    options.no_progress_window = 200;
    options.self_check = core::CheckMode::kDuplicate;
    options.faults = {arbiter_fault(fault::FaultKind::kArbiterLatchup)};
    const SimResult r = fx.run(options);
    EXPECT_GT(r.self_check_errors, 0u) << core::to_string(kind);
  }
}

// --------------------------------------------- one bank past 64 contenders

class RcsimWide
    : public ::testing::TestWithParam<
          std::tuple<core::ArbiterKind, core::CheckMode>> {};

TEST_P(RcsimWide, WritersPast64PortsShareOneBankWithoutConflict) {
  // Default (strict) options: 65, 128 and 1,000 writers share one bank
  // with no conflict and no diagnostic, and the run grows with the writer
  // count (port 64 is its own port, not an alias of port 0).
  const auto [kind, mode] = GetParam();
  std::uint64_t prev_cycles = 0;
  for (const auto& [n, bursts] : {std::pair{64, 4}, std::pair{65, 4},
                                  std::pair{128, 4}, std::pair{1000, 1}}) {
    const std::string what = "n=" + std::to_string(n);
    WritersFixture fx(n, bursts, kind);
    SimOptions options;
    options.self_check = mode;
    SimResult r;
    ASSERT_NO_THROW(r = fx.run(options)) << what;
    EXPECT_FALSE(r.deadlocked) << what;
    EXPECT_EQ(r.bank_conflicts, 0u) << what;
    EXPECT_TRUE(r.diagnostics.empty()) << what;
    EXPECT_GT(r.cycles, prev_cycles) << what;
    prev_cycles = r.cycles;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndModes, RcsimWide,
    ::testing::Combine(::testing::Values(core::ArbiterKind::kFlatFsm,
                                         core::ArbiterKind::kHierarchical,
                                         core::ArbiterKind::kPrefix),
                       ::testing::Values(core::CheckMode::kNone,
                                         core::CheckMode::kTmr)),
    [](const auto& param_info) {
      return std::string(core::to_string(std::get<0>(param_info.param)))
          .append("_")
          .append(core::to_string(std::get<1>(param_info.param)));
    });

TEST(RcsimPortIndex, MatchesThePlanLookupAcrossABankRemapPast64Writers) {
  // 80 writers, half on each of two banks: two 40-port arbiters, merged
  // into one 80-port arbiter on bank 0 when bank 1 fails.  The run's port
  // index answers exactly as the plan's linear lookup before and after.
  const int writers = 80;
  const TaskGraph g = writers_graph(writers, 1);
  Binding b = single_bank_binding(g, writers);
  b.num_banks = 2;
  b.bank_names = {"BANK0", "BANK1"};
  for (int seg = writers / 2; seg < writers; ++seg)
    b.segment_to_bank[static_cast<std::size_t>(seg)] = 1;
  const InsertionResult ins = core::insert_arbitration(g, b, {});
  ASSERT_EQ(ins.plan.arbiters.size(), 2u);
  SimOptions options;
  options.degrade.enabled = true;
  std::vector<std::vector<std::int64_t>> memory;
  std::vector<TaskId> all;
  for (int t = 0; t < writers; ++t) all.push_back(static_cast<TaskId>(t));
  detail::RunState s(ins.graph, b, ins.plan, options, memory, all);

  const auto expect_plan_lookup = [&](const char* when) {
    for (int r = 0; r < static_cast<int>(b.num_resources()); ++r)
      for (TaskId t = 0; t < ins.graph.num_tasks(); ++t)
        EXPECT_EQ(s.arbiter_port(t, r), s.plan().port_lookup(r, t))
            << when << ": resource " << r << ", task " << t;
  };
  expect_plan_lookup("after construction");
  EXPECT_EQ(s.arbiter_port(writers - 1, 1), std::pair(1, writers / 2 - 1));

  s.res_failed[1] = 1;
  ASSERT_TRUE(s.freeze_move(1).feasible);
  s.apply_move(1);
  ASSERT_EQ(s.plan().arbiters.size(), 3u);
  ASSERT_EQ(s.plan().arbiters[2].ports.size(),
            static_cast<std::size_t>(writers));
  expect_plan_lookup("after the remap");
  EXPECT_EQ(s.arbiter_port(writers - 1, 0), std::pair(2, writers - 1));
  EXPECT_EQ(s.arbiter_port(writers - 1, 1), std::pair(-1, -1));
}

TEST(RcsimWideLane, MultiGrantsPastTheFirstWordAreCounted) {
  // An upset of F70 while C0 holds leaves a 100-port unhardened flat
  // register two-hot across its words: ports 0 and 70 are granted at once
  // on the upset cycle, and the run counts and reports it there.
  WritersFixture fx(100, 1);
  SimOptions options;
  options.strict = false;
  fault::FaultEvent flip = arbiter_fault(fault::FaultKind::kFsmBitFlip);
  flip.bit = 70;
  options.faults = {flip};
  const SimResult r = fx.run(options);
  EXPECT_GT(r.multi_grant_cycles, 0u);
  bool at_upset = false;
  for (const SimDiagnostic& d : r.diagnostics)
    if (d.kind == DiagKind::kMultipleGrants && d.cycle == flip.cycle)
      at_upset = true;
  EXPECT_TRUE(at_upset) << "no multi-grant reported on the upset cycle";
}

TEST(RcsimWideLane, WatchdogEvictsAStuck1PhantomPastTheFirstWord) {
  // Port 80's Req line sticks high: once t80 has finished, a grant on
  // port 80 lands on a phantom that never accesses.  The watchdog names
  // t80 and, hardened, force-releases it so every writer still finishes.
  WritersFixture fx(100, 2);
  fault::FaultEvent stuck;
  stuck.kind = fault::FaultKind::kReqStuck1;
  stuck.cycle = 0;
  stuck.arbiter = 0;
  stuck.port = 80;
  stuck.duration = 100'000;
  SimOptions options;
  options.strict = false;
  options.watchdog_timeout = 8;
  options.harden = true;
  options.faults = {stuck};
  const SimResult r = fx.run(options);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_GE(r.watchdog_releases, 1u);
  EXPECT_EQ(r.bank_conflicts, 0u);
  std::size_t hung = 0;
  for (const SimDiagnostic& d : r.diagnostics) {
    if (d.kind != DiagKind::kHungGrant) continue;
    ++hung;
    EXPECT_EQ(d.task, 80) << d.format();
  }
  EXPECT_GE(hung, 1u);
}

TEST(RcsimWideLane, RequestTraceRecordsEveryWordPerCycle) {
  // 100 ports: two words per cycle, bit p % 64 of word p / 64 = port p.
  WritersFixture fx(100, 1);
  SimOptions options;
  options.record_request_trace = true;
  const SimResult r = fx.run(options);
  ASSERT_EQ(r.request_trace.size(), 1u);
  const std::vector<std::uint64_t>& trace = r.request_trace[0];
  ASSERT_EQ(trace.size(), 2 * r.cycles);
  bool port99 = false;
  for (std::size_t c = 0; c < r.cycles; ++c) {
    EXPECT_EQ(trace[2 * c + 1] >> 36, 0u) << "bits past port 99 at " << c;
    if (((trace[2 * c + 1] >> 35) & 1) != 0) port99 = true;
  }
  EXPECT_TRUE(port99) << "port 99 never requested";
}

}  // namespace
}  // namespace rcarb::rcsim
