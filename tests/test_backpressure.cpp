// Channel flow control: a 1-deep receiver register stalls its sender while
// full (ready/valid semantics), and a stalled sender must not camp on any
// grant — it deasserts its channel request and re-arbitrates (otherwise a
// blocked holder starves the other sources, a hazard the fuzz suite found).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/insertion.hpp"
#include "fault/fault.hpp"
#include "rcsim/system_sim.hpp"
#include "support/check.hpp"

namespace rcarb::rcsim {
namespace {

using core::Binding;
using tg::Program;
using tg::TaskGraph;
using tg::TaskId;

TEST(Backpressure, SecondSendWaitsForConsumer) {
  TaskGraph g("bp");
  g.add_segment("out", 64, 8);
  Program producer;
  producer.load_imm(0, 1).send(0, 0).load_imm(0, 2).send(0, 0).halt();
  Program consumer;
  consumer.compute(10)
      .recv(1, 0)
      .load_imm(0, 0)
      .store(0, 0, 1, 0)
      .recv(2, 0)
      .store(0, 0, 2, 1)
      .halt();
  const TaskId p = g.add_task("p", producer, 1);
  const TaskId c = g.add_task("c", consumer, 1);
  g.add_channel("ch", 16, p, c);

  Binding b;
  b.task_to_pe = {0, 1};
  b.segment_to_bank = {0};
  b.num_banks = 1;
  b.bank_names = {"MEM"};
  b.channel_to_phys = {-1};

  core::ArbitrationPlan plan;
  plan.arbiters_of_resource.assign(1, {});
  SystemSimulator sim(g, b, plan);
  const SimResult r = sim.run({p, c});
  // Both values arrive, in order, despite the 1-deep register.
  EXPECT_EQ(sim.segment_data(0)[0], 1);
  EXPECT_EQ(sim.segment_data(0)[1], 2);
  EXPECT_GT(r.tasks[p].backpressure_cycles, 0u)
      << "the second send must have stalled while the register was full";
}

TEST(Backpressure, StalledSenderReleasesSharedChannel) {
  // Two producers merged on one arbitrated channel.  Producer 0's consumer
  // is slow, so its second transfer backpressures; producer 1 must still
  // get the channel in the meantime.
  TaskGraph g("release");
  g.add_segment("out", 64, 8);
  Program p0;
  p0.load_imm(0, 1).send(0, 0).load_imm(0, 2).send(0, 0).halt();
  Program slow_consumer;
  slow_consumer.compute(40)
      .recv(1, 0)
      .load_imm(0, 0)
      .store(0, 0, 1, 0)
      .recv(2, 0)
      .store(0, 0, 2, 1)
      .halt();
  Program p1;
  p1.compute(6).load_imm(0, 7).send(1, 0).halt();
  Program fast_consumer;
  fast_consumer.recv(1, 1).load_imm(0, 0).store(0, 0, 1, 2).halt();
  const TaskId prod0 = g.add_task("prod0", p0, 1);
  const TaskId cons0 = g.add_task("cons0", slow_consumer, 1);
  const TaskId prod1 = g.add_task("prod1", p1, 1);
  const TaskId cons1 = g.add_task("cons1", fast_consumer, 1);
  g.add_channel("c0", 16, prod0, cons0);
  g.add_channel("c1", 16, prod1, cons1);

  Binding b;
  b.task_to_pe = {0, 1, 0, 1};
  b.segment_to_bank = {0};
  b.num_banks = 1;
  b.bank_names = {"MEM"};
  b.channel_to_phys = {0, 0};
  b.num_phys_channels = 1;
  b.phys_channel_names = {"shared"};

  core::InsertionOptions io;
  io.batch_m = 8;  // both sends of prod0 in one burst: forces the hazard
  const auto ins = core::insert_arbitration(g, b, io);
  SystemSimulator sim(ins.graph, b, ins.plan);
  const SimResult r = sim.run({prod0, cons0, prod1, cons1});

  EXPECT_EQ(sim.segment_data(0)[0], 1);
  EXPECT_EQ(sim.segment_data(0)[1], 2);
  EXPECT_EQ(sim.segment_data(0)[2], 7);
  // prod1 must have finished long before the slow consumer freed prod0:
  // the blocked prod0 released the channel while stalled.
  EXPECT_LT(r.tasks[prod1].finish_cycle, r.tasks[prod0].finish_cycle);
  EXPECT_EQ(r.channel_conflicts, 0u);
  EXPECT_EQ(r.protocol_violations, 0u);
}

TEST(Backpressure, UnarbitratedSendDoesNotHoldBankGrant) {
  // A send that can block must not occur while the task holds a *bank*
  // grant (the insertion pass releases it first); otherwise the consumer
  // could never reach its recv through that bank.
  TaskGraph g("bankhold");
  g.add_segment("shared", 64, 8);
  Program producer;
  producer.load_imm(0, 0)
      .store(0, 0, 0, 0)  // bank access (arbitrated)
      .load_imm(1, 5)
      .send(0, 1)         // unarbitrated channel, may block
      .send(0, 1)         // definitely blocks until consumed
      .store(0, 0, 0, 1)  // bank again
      .halt();
  Program consumer;
  consumer.load_imm(0, 0)
      .store(0, 0, 0, 2)  // needs the bank BEFORE it can consume
      .recv(1, 0)
      .recv(2, 0)
      .halt();
  const TaskId p = g.add_task("p", producer, 1);
  const TaskId c = g.add_task("c", consumer, 1);
  g.add_channel("ch", 16, p, c);

  Binding b;
  b.task_to_pe = {0, 1};
  b.segment_to_bank = {0};
  b.num_banks = 1;
  b.bank_names = {"MEM"};
  b.channel_to_phys = {-1};

  const auto ins = core::insert_arbitration(g, b, {});
  // The rewrite must have released the bank before the sends.
  bool saw_release_before_send = false;
  bool holding = false;
  for (const tg::Op& op : ins.graph.task(p).program.ops()) {
    if (op.code == tg::OpCode::kAcquire) holding = true;
    if (op.code == tg::OpCode::kRelease) holding = false;
    if (op.code == tg::OpCode::kSend) {
      EXPECT_FALSE(holding) << "send while holding a bank grant";
      saw_release_before_send = true;
    }
  }
  EXPECT_TRUE(saw_release_before_send);

  SystemSimulator sim(ins.graph, b, ins.plan);
  const SimResult r = sim.run({p, c});
  EXPECT_EQ(r.protocol_violations, 0u);
  EXPECT_EQ(r.bank_conflicts, 0u);
}

// ---- Sustained saturation (open-loop overload, PR 6). ----

/// N hammerers pounding the same bank(s): every dispatch slot stays full
/// for the whole run, the regime where admission control and retry
/// budgets have to prove they never deadlock and never break protocol.
struct SaturationRig {
  TaskGraph g{"saturate"};
  Binding b;
  std::vector<TaskId> tasks;

  explicit SaturationRig(int hammerers, int banks, int stores_each) {
    for (int k = 0; k < banks; ++k)
      g.add_segment("s" + std::to_string(k), 128, 16);
    for (int t = 0; t < hammerers; ++t) {
      Program p;
      p.load_imm(0, 0);
      for (int k = 0; k < stores_each; ++k)
        p.load_imm(1, 100 * t + k)
            .store(t % banks, 0, 1, (t * 3 + k) % 16)
            .compute(1);
      p.halt();
      tasks.push_back(g.add_task("h" + std::to_string(t), p, 1));
    }
    b.task_to_pe.resize(static_cast<std::size_t>(hammerers));
    for (int t = 0; t < hammerers; ++t)
      b.task_to_pe[static_cast<std::size_t>(t)] = t;
    b.segment_to_bank.resize(static_cast<std::size_t>(banks));
    for (int k = 0; k < banks; ++k) {
      b.segment_to_bank[static_cast<std::size_t>(k)] = k;
      b.bank_names.push_back("B" + std::to_string(k));
    }
    b.num_banks = static_cast<std::size_t>(banks);
  }
};

TEST(Backpressure, AdmissionLimitedSaturationFinishesWithoutDeadlock) {
  SaturationRig rig(6, 1, 12);
  core::InsertionOptions io;
  io.retry_timeout = 4;  // waiters back off instead of camping
  const auto ins = core::insert_arbitration(rig.g, rig.b, io);

  SimOptions so;
  so.strict = true;  // any protocol violation throws
  so.admission_limit = 2;
  SystemSimulator sim(ins.graph, rig.b, ins.plan, so);
  const SimResult r = sim.run(rig.tasks);

  EXPECT_FALSE(r.deadlocked);
  for (const TaskId t : rig.tasks)
    EXPECT_GT(r.tasks[t].finish_cycle, 0u) << "task " << t;
  EXPECT_EQ(r.protocol_violations, 0u);
  EXPECT_GT(r.admission_rejects, 0u)
      << "six hammerers against a 2-wide admission limit must reject";
  EXPECT_GT(r.count(DiagKind::kRejected), 0u);
  // Every store landed despite the rejections (refusal delays, never
  // drops, an explicitly-programmed access).
  for (int t = 0; t < 6; ++t)
    EXPECT_EQ(sim.segment_data(0)[static_cast<std::size_t>((t * 3 + 11) %
                                                           16)] >= 0,
              true);
}

TEST(Backpressure, ExhaustedRetryBudgetIsTypedNotAViolation) {
  SaturationRig rig(6, 1, 10);
  core::InsertionOptions io;
  io.retry_timeout = 3;
  const auto ins = core::insert_arbitration(rig.g, rig.b, io);

  SimOptions so;
  so.strict = true;
  so.admission_limit = 2;
  so.retry_budget = 2;  // tiny: stalls exhaust it almost immediately
  SystemSimulator sim(ins.graph, rig.b, ins.plan, so);
  const SimResult r = sim.run(rig.tasks);

  EXPECT_FALSE(r.deadlocked);
  for (const TaskId t : rig.tasks)
    EXPECT_GT(r.tasks[t].finish_cycle, 0u);
  // The stalled clients surface kTimedOut and then wait patiently — the
  // run completes with zero protocol violations.
  EXPECT_GT(r.budget_exhausted, 0u);
  EXPECT_GT(r.count(DiagKind::kTimedOut), 0u);
  EXPECT_EQ(r.protocol_violations, 0u);
}

TEST(Backpressure, OverloadNeverDeadlocksTheDegradationSupervisor) {
  // A bank dies mid-overload: the PR 5 supervisor must drain and remap
  // while admission control is actively refusing requests on the
  // survivor.  The drain must complete (bounded by drain_timeout) and
  // every task must finish on the remapped bank.
  SaturationRig rig(6, 2, 10);
  core::InsertionOptions io;
  io.retry_timeout = 4;
  const auto ins = core::insert_arbitration(rig.g, rig.b, io);

  SimOptions so;
  so.strict = false;  // fail-stop bank faults are expected, not fatal
  so.admission_limit = 2;
  so.retry_budget = 8;
  so.degrade.enabled = true;
  so.degrade.strikes = 3;
  so.degrade.strike_window = 64;
  so.degrade.drain_timeout = 32;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kBankFailure;
  e.cycle = 30;
  e.bank = 1;
  so.faults = {e};

  SystemSimulator sim(ins.graph, rig.b, ins.plan, so);
  const SimResult r = sim.run(rig.tasks);

  EXPECT_FALSE(r.deadlocked)
      << "a full request wire must never wedge the quarantine drain";
  for (const TaskId t : rig.tasks)
    EXPECT_GT(r.tasks[t].finish_cycle, 0u) << "task " << t;
  EXPECT_EQ(r.quarantined, 1u);
  EXPECT_EQ(r.remaps, 1u);
  EXPECT_EQ(r.protocol_violations, 0u);
}

}  // namespace
}  // namespace rcarb::rcsim
