#include <gtest/gtest.h>

#include "core/insertion.hpp"
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
      g.add_task("t" + std::to_string(t), p, 1);
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

TEST(Rcsim, PreemptionBoundsHolding) {
  // Task 0 holds with a huge M; with rr_max_hold the second task still
  // finishes long before task 0 releases voluntarily.
  TaskGraph g("hog");
  g.add_segment("s0", 64, 16);
  g.add_segment("s1", 64, 16);
  Program hog;
  hog.load_imm(0, 0);
  for (int i = 0; i < 12; ++i) hog.store(0, 0, 0, i % 8);
  hog.halt();
  Program meek;
  meek.load_imm(0, 0).store(1, 0, 0).halt();
  g.add_task("hog", hog, 1);
  g.add_task("meek", meek, 1);
  Binding b = single_bank_binding(g, 2);

  InsertionOptions huge_m;
  huge_m.batch_m = 1000;
  const InsertionResult ins = core::insert_arbitration(g, b, huge_m);

  SimOptions no_preempt;
  SystemSimulator sim1(ins.graph, b, ins.plan, no_preempt);
  const SimResult r1 = sim1.run({0, 1});

  SimOptions preempt;
  preempt.rr_max_hold = 3;
  SystemSimulator sim2(ins.graph, b, ins.plan, preempt);
  const SimResult r2 = sim2.run({0, 1});

  EXPECT_LT(r2.tasks[1].finish_cycle, r1.tasks[1].finish_cycle)
      << "preemption must shorten the meek task's wait";
  EXPECT_EQ(r2.bank_conflicts, 0u);
  EXPECT_EQ(r2.protocol_violations, 0u);
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

}  // namespace
}  // namespace rcarb::rcsim
