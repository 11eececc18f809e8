#include <gtest/gtest.h>

#include "core/insertion.hpp"
#include "support/check.hpp"

namespace rcarb::core {
namespace {

using tg::OpCode;
using tg::Program;
using tg::TaskGraph;
using tg::TaskId;

/// Two parallel tasks, two segments on one shared bank.
struct SharedBankFixture {
  TaskGraph graph{"shared"};
  Binding binding;
  TaskId t0, t1;

  explicit SharedBankFixture(int accesses_per_task = 3) {
    graph.add_segment("s0", 16, 8);
    graph.add_segment("s1", 16, 8);
    Program p0;
    p0.load_imm(0, 0);
    for (int i = 0; i < accesses_per_task; ++i) p0.store(0, 0, 0, i);
    p0.halt();
    Program p1;
    p1.load_imm(0, 0);
    for (int i = 0; i < accesses_per_task; ++i) p1.store(1, 0, 0, i);
    p1.halt();
    t0 = graph.add_task("t0", p0, 10);
    t1 = graph.add_task("t1", p1, 10);

    binding.task_to_pe = {0, 1};
    binding.segment_to_bank = {0, 0};  // both segments share bank 0
    binding.channel_to_phys = {};
    binding.num_banks = 1;
    binding.bank_names = {"BANK"};
    binding.num_phys_channels = 0;
  }
};

int count_ops(const Program& p, OpCode code) {
  int n = 0;
  for (const auto& op : p.ops())
    if (op.code == code) ++n;
  return n;
}

TEST(Insertion, SharedBankGetsOneArbiter) {
  SharedBankFixture fx;
  const InsertionResult r = insert_arbitration(fx.graph, fx.binding, {});
  ASSERT_EQ(r.plan.arbiters.size(), 1u);
  EXPECT_EQ(r.plan.arbiters[0].ports, (std::vector<TaskId>{fx.t0, fx.t1}));
  EXPECT_EQ(r.plan.arbiters[0].resource_name, "BANK");
  EXPECT_EQ(r.plan.stats.arbiters, 1u);
  EXPECT_EQ(r.plan.stats.modified_tasks, 2u);
}

TEST(Insertion, PortLookupFindsPorts) {
  SharedBankFixture fx;
  const InsertionResult r = insert_arbitration(fx.graph, fx.binding, {});
  EXPECT_EQ(r.plan.port_lookup(0, fx.t0), (std::pair<int, int>{0, 0}));
  EXPECT_EQ(r.plan.port_lookup(0, fx.t1), (std::pair<int, int>{0, 1}));
  EXPECT_EQ(r.plan.port_lookup(0, 99), (std::pair<int, int>{-1, -1}));
  EXPECT_EQ(r.plan.port_lookup(5, fx.t0), (std::pair<int, int>{-1, -1}));
}

TEST(Insertion, Fig8RewriteWrapsBursts) {
  SharedBankFixture fx(/*accesses_per_task=*/4);
  InsertionOptions options;
  options.batch_m = 2;
  const InsertionResult r = insert_arbitration(fx.graph, fx.binding, options);
  const Program& p = r.graph.task(fx.t0).program;
  // 4 accesses at M=2: two bursts -> 2 acquires + 2 releases.
  EXPECT_EQ(count_ops(p, OpCode::kAcquire), 2);
  EXPECT_EQ(count_ops(p, OpCode::kRelease), 2);
  EXPECT_EQ(count_ops(p, OpCode::kStore), 4);
  // Shape: acquire precedes the first store; release follows the last.
  EXPECT_EQ(p.ops()[1].code, OpCode::kAcquire);
}

TEST(Insertion, BatchM1ReleasesBetweenEveryAccess) {
  SharedBankFixture fx(3);
  InsertionOptions options;
  options.batch_m = 1;
  const InsertionResult r = insert_arbitration(fx.graph, fx.binding, options);
  EXPECT_EQ(count_ops(r.graph.task(fx.t0).program, OpCode::kAcquire), 3);
}

TEST(Insertion, LargeMKeepsSingleBurst) {
  SharedBankFixture fx(5);
  InsertionOptions options;
  options.batch_m = 100;
  const InsertionResult r = insert_arbitration(fx.graph, fx.binding, options);
  EXPECT_EQ(count_ops(r.graph.task(fx.t0).program, OpCode::kAcquire), 1);
}

TEST(Insertion, UnsharedBankNeedsNoArbiter) {
  SharedBankFixture fx;
  fx.binding.segment_to_bank = {0, 1};  // separate banks
  fx.binding.num_banks = 2;
  fx.binding.bank_names = {"B0", "B1"};
  const InsertionResult r = insert_arbitration(fx.graph, fx.binding, {});
  EXPECT_TRUE(r.plan.arbiters.empty());
  EXPECT_EQ(count_ops(r.graph.task(fx.t0).program, OpCode::kAcquire), 0);
}

TEST(Insertion, SerializedTasksElideTheArbiter) {
  SharedBankFixture fx;
  fx.graph.add_control_dep(fx.t0, fx.t1);
  InsertionOptions options;
  options.elide_serialized = true;
  const InsertionResult r = insert_arbitration(fx.graph, fx.binding, options);
  EXPECT_TRUE(r.plan.arbiters.empty());
  EXPECT_EQ(r.plan.stats.elided_resources, 1u);
  EXPECT_EQ(r.plan.stats.elided_ports, 2u);
  // Line merges are still planned: the wires are still shared.
  EXPECT_FALSE(r.plan.line_merges.empty());
}

TEST(Insertion, WithoutElisionSerializedTasksStillArbitrated) {
  SharedBankFixture fx;
  fx.graph.add_control_dep(fx.t0, fx.t1);
  const InsertionResult r = insert_arbitration(fx.graph, fx.binding, {});
  EXPECT_EQ(r.plan.arbiters.size(), 1u)
      << "the paper's base flow assumes all tasks run in parallel";
}

TEST(Insertion, ElisionSplitsConcurrencyComponents) {
  // 4 tasks on one bank: {a, b} parallel, {c, d} parallel, a,b before c,d.
  TaskGraph g("split");
  g.add_segment("s", 16, 8);
  Program p;
  p.load_imm(0, 0).store(0, 0, 0).halt();
  const TaskId a = g.add_task("a", p, 1);
  const TaskId b = g.add_task("b", p, 1);
  const TaskId c = g.add_task("c", p, 1);
  const TaskId d = g.add_task("d", p, 1);
  for (TaskId pre : {a, b})
    for (TaskId post : {c, d}) g.add_control_dep(pre, post);

  Binding binding;
  binding.task_to_pe = {0, 0, 0, 0};
  binding.segment_to_bank = {0};
  binding.num_banks = 1;
  binding.bank_names = {"B"};

  InsertionOptions options;
  options.elide_serialized = true;
  const InsertionResult r = insert_arbitration(g, binding, options);
  ASSERT_EQ(r.plan.arbiters.size(), 2u) << "Arb{a,b} and Arb{c,d}";
  EXPECT_EQ(r.plan.arbiters[0].ports.size(), 2u);
  EXPECT_EQ(r.plan.arbiters[1].ports.size(), 2u);
  // Both arbiters guard the same resource; lookup resolves per task.
  EXPECT_EQ(r.plan.port_lookup(0, a).first,
            r.plan.port_lookup(0, b).first);
  EXPECT_NE(r.plan.port_lookup(0, a).first,
            r.plan.port_lookup(0, c).first);
}

TEST(Insertion, ActiveTaskFilterRestrictsContention) {
  SharedBankFixture fx;
  const std::vector<TaskId> only{fx.t0};
  const InsertionResult r =
      insert_arbitration(fx.graph, fx.binding, {}, &only);
  EXPECT_TRUE(r.plan.arbiters.empty())
      << "a sole active accessor needs no arbiter";
  EXPECT_EQ(count_ops(r.graph.task(fx.t0).program, OpCode::kAcquire), 0);
}

TEST(Insertion, ChannelArbitrationOnlyForDistinctSources) {
  // Two logical channels merged on one physical channel.
  TaskGraph g("chan");
  Program send0;
  send0.load_imm(0, 1).send(0, 0).halt();
  Program send1;
  send1.load_imm(0, 2).send(1, 0).halt();
  Program recv0;
  recv0.recv(0, 0).halt();
  Program recv1;
  recv1.recv(0, 1).halt();
  const TaskId s0 = g.add_task("s0", send0, 1);
  const TaskId s1 = g.add_task("s1", send1, 1);
  const TaskId r0 = g.add_task("r0", recv0, 1);
  const TaskId r1 = g.add_task("r1", recv1, 1);
  g.add_channel("c0", 16, s0, r0);
  g.add_channel("c1", 16, s1, r1);

  Binding binding;
  binding.task_to_pe = {0, 0, 1, 1};
  binding.segment_to_bank = {};
  binding.channel_to_phys = {0, 0};  // merged
  binding.num_banks = 0;
  binding.num_phys_channels = 1;
  binding.phys_channel_names = {"shared_c0_c1"};

  const InsertionResult r = insert_arbitration(g, binding, {});
  ASSERT_EQ(r.plan.arbiters.size(), 1u);
  EXPECT_EQ(r.plan.arbiters[0].ports, (std::vector<TaskId>{s0, s1}));
  // Receivers are not ports: they do not drive the shared wires.
  EXPECT_EQ(r.plan.port_lookup(0, r0), (std::pair<int, int>{-1, -1}));
}

TEST(Insertion, SameSourceMergedChannelsNeedNoArbiter) {
  // Paper Sec. 4.3: "If all sources belong to the same task, there is no
  // need to introduce an arbiter".
  TaskGraph g("samesrc");
  Program sender;
  sender.load_imm(0, 1).send(0, 0).send(1, 0).halt();
  Program recv0;
  recv0.recv(0, 0).halt();
  Program recv1;
  recv1.recv(0, 1).halt();
  const TaskId s = g.add_task("s", sender, 1);
  const TaskId r0 = g.add_task("r0", recv0, 1);
  const TaskId r1 = g.add_task("r1", recv1, 1);
  g.add_channel("c0", 16, s, r0);
  g.add_channel("c1", 16, s, r1);

  Binding binding;
  binding.task_to_pe = {0, 1, 1};
  binding.segment_to_bank = {};
  binding.channel_to_phys = {0, 0};
  binding.num_banks = 0;
  binding.num_phys_channels = 1;
  binding.phys_channel_names = {"shared"};

  const InsertionResult r = insert_arbitration(g, binding, {});
  EXPECT_TRUE(r.plan.arbiters.empty());
}

TEST(Insertion, BoundaryOpsSplitBursts) {
  // A recv between accesses forces release before blocking.
  TaskGraph g("bound");
  g.add_segment("s", 16, 8);
  Program sender;
  sender.load_imm(0, 0).send(0, 0).halt();
  Program worker;
  worker.load_imm(0, 0).store(0, 0, 0).recv(1, 0).store(0, 0, 0).halt();
  Program other;
  other.load_imm(0, 0).store(0, 0, 0).halt();
  const TaskId s = g.add_task("s", sender, 1);
  const TaskId w = g.add_task("w", worker, 1);
  const TaskId o = g.add_task("o", other, 1);
  g.add_channel("c", 16, s, w);

  Binding binding;
  binding.task_to_pe = {0, 1, 2};
  binding.segment_to_bank = {0};
  binding.channel_to_phys = {-1};
  binding.num_banks = 1;
  binding.bank_names = {"B"};

  const InsertionResult r = insert_arbitration(g, binding, {});
  const Program& p = r.graph.task(w).program;
  EXPECT_EQ(count_ops(p, OpCode::kAcquire), 2)
      << "burst must not span the blocking recv";
  // Verify release precedes the recv.
  for (std::size_t i = 0; i < p.ops().size(); ++i)
    if (p.ops()[i].code == OpCode::kRecv) {
      EXPECT_EQ(p.ops()[i - 1].code, OpCode::kRelease);
    }
  (void)o;
}

TEST(Insertion, LongComputeBreaksBurst) {
  TaskGraph g("compute");
  g.add_segment("s", 16, 8);
  Program busy;
  busy.load_imm(0, 0).store(0, 0, 0).compute(100).store(0, 0, 0).halt();
  Program other;
  other.load_imm(0, 0).store(0, 0, 0).halt();
  g.add_task("busy", busy, 1);
  g.add_task("other", other, 1);

  Binding binding;
  binding.task_to_pe = {0, 1};
  binding.segment_to_bank = {0};
  binding.num_banks = 1;
  binding.bank_names = {"B"};

  const InsertionResult r = insert_arbitration(g, binding, {});
  EXPECT_EQ(count_ops(r.graph.task(0).program, OpCode::kAcquire), 2)
      << "a 100-cycle compute must not be covered by a held grant";
}

TEST(Insertion, ArbiterKindResolvesAtPlanTime) {
  // Instances carry a concrete kind (never kAuto): explicit choices pass
  // through, kAuto resolves from the port count and the fmax budget so
  // downstream consumers (rcsim, flow characterization) never re-decide.
  SharedBankFixture fx;
  const InsertionResult def = insert_arbitration(fx.graph, fx.binding, {});
  ASSERT_EQ(def.plan.arbiters.size(), 1u);
  EXPECT_EQ(def.plan.arbiters[0].kind, ArbiterKind::kFlatFsm);

  InsertionOptions options;
  options.arbiter_kind = ArbiterChoice::kPrefix;
  const InsertionResult pre =
      insert_arbitration(fx.graph, fx.binding, options);
  EXPECT_EQ(pre.plan.arbiters[0].kind, ArbiterKind::kPrefix);

  options.arbiter_kind = ArbiterChoice::kAuto;
  options.arbiter_fmax_budget_mhz = 1.0;  // any structure meets this
  const InsertionResult car =
      insert_arbitration(fx.graph, fx.binding, options);
  EXPECT_EQ(car.plan.arbiters[0].kind, ArbiterKind::kFlatFsm);

  options.arbiter_fmax_budget_mhz = 0.0;
  EXPECT_THROW(insert_arbitration(fx.graph, fx.binding, options), CheckError);
}

TEST(Insertion, RejectsMalformedBinding) {
  SharedBankFixture fx;
  Binding bad = fx.binding;
  bad.segment_to_bank.pop_back();
  EXPECT_THROW(insert_arbitration(fx.graph, bad, {}), CheckError);
  InsertionOptions options;
  options.batch_m = 0;
  EXPECT_THROW(insert_arbitration(fx.graph, fx.binding, options), CheckError);
}

}  // namespace
}  // namespace rcarb::core
