// Fault injection & resilience: the planner, the hardened behavioral and
// synthesized arbiters, watchdog recovery, protocol retry, channel ECC and
// the simulator's wait-for-graph stall attribution.
#include <gtest/gtest.h>

#include <bit>

#include "core/insertion.hpp"
#include "core/policy.hpp"
#include "core/rr_fsm.hpp"
#include "fault/fault.hpp"
#include "netlist/simulator.hpp"
#include "rcsim/system_sim.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "synth/flow.hpp"

namespace rcarb {
namespace {

using core::Binding;
using core::InsertionOptions;
using core::InsertionResult;
using core::RoundRobinArbiter;
using rcsim::DiagKind;
using rcsim::SimOptions;
using rcsim::SimResult;
using rcsim::SystemSimulator;
using tg::Program;
using tg::TaskGraph;
using tg::TaskId;

// ------------------------------------------------------------- fault planner

TEST(FaultPlan, DeterministicFromSeed) {
  fault::FaultTargets targets;
  targets.arbiter_ports = {3, 4};
  targets.arbiter_state_bits = {6, 8};
  targets.num_phys_channels = 2;
  fault::FaultPlanOptions options;
  options.seed = 7;
  options.rate = 2e-3;
  const auto a = fault::plan_faults(targets, options);
  const auto b = fault::plan_faults(targets, options);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.size(), 40u);  // round(rate * horizon)
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cycle, b[i].cycle);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].arbiter, b[i].arbiter);
    EXPECT_EQ(a[i].port, b[i].port);
    EXPECT_EQ(a[i].bit, b[i].bit);
    EXPECT_EQ(a[i].channel, b[i].channel);
    EXPECT_EQ(a[i].xor_mask, b[i].xor_mask);
    if (i > 0) {
      EXPECT_GE(a[i].cycle, a[i - 1].cycle) << "must be cycle-sorted";
    }
  }
  options.seed = 8;
  const auto c = fault::plan_faults(targets, options);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = c[i].cycle != a[i].cycle || c[i].kind != a[i].kind;
  EXPECT_TRUE(differs) << "different seeds must give different schedules";
}

TEST(FaultPlan, FiltersKindsByTargetShape) {
  fault::FaultTargets channels_only;
  channels_only.num_phys_channels = 1;
  fault::FaultPlanOptions options;
  options.rate = 1e-2;
  for (const auto& e : fault::plan_faults(channels_only, options)) {
    EXPECT_EQ(e.kind, fault::FaultKind::kChannelCorrupt);
    EXPECT_EQ(std::popcount(e.xor_mask), 1) << "channel SEUs are single-bit";
  }
  fault::FaultTargets nothing;
  EXPECT_TRUE(fault::plan_faults(nothing, options).empty());
}

// ------------------------------------------------- behavioral SEU semantics

TEST(FaultArbiter, HardenedRecoversWithinOneCycle) {
  RoundRobinArbiter arb(4, /*harden=*/true);
  (void)arb.step(0b0100);  // -> C2
  ASSERT_EQ(arb.state_name(), "C2");
  arb.flip_state_bit(0);  // F0 also hot: two-hot illegal
  EXPECT_FALSE(arb.state_legal());
  const int g = arb.step(0b0010);
  EXPECT_TRUE(arb.state_legal()) << "recovery must complete within one cycle";
  EXPECT_EQ(arb.recoveries(), 1u);
  EXPECT_EQ(g, 1) << "arbitration resumes from the safe all-free state";
  EXPECT_EQ(arb.state_name(), "C1");
}

TEST(FaultArbiter, UnhardenedZeroHotIsDead) {
  RoundRobinArbiter arb(3);
  arb.flip_state_bit(0);  // reset state F0 cleared: zero-hot
  EXPECT_FALSE(arb.state_legal());
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(arb.step(0b111), -1) << "no recognizer fires in a dead machine";
  EXPECT_FALSE(arb.state_legal());
  EXPECT_EQ(arb.recoveries(), 0u);
}

TEST(FaultArbiter, UnhardenedMultiHotViolatesMutualExclusion) {
  RoundRobinArbiter arb(3);
  arb.flip_state_bit(1);  // F0 and F1 both hot
  EXPECT_FALSE(arb.state_legal());
  (void)arb.step(0b011);  // F0 grants 0, F1 grants 1 — both fire
  EXPECT_EQ(arb.last_grant_words()[0], 0b011u);
  EXPECT_EQ(std::popcount(arb.last_grant_words()[0]), 2);
}

TEST(FaultArbiter, UnhardenedMultiHotCanReconverge) {
  // When every hot state's scan picks the same winner the register
  // collapses back to one-hot on its own.
  RoundRobinArbiter arb(3);
  arb.flip_state_bit(1);
  (void)arb.step(0b100);  // all hot states grant 2 -> C2 only
  EXPECT_TRUE(arb.state_legal());
  EXPECT_EQ(arb.state_name(), "C2");
}

// --------------------------------------------- synthesized netlist SEU path

/// State-register nets resolved once per netlist (simulation loops must not
/// hash net names per cycle).
std::vector<netlist::NetId> state_nets(const netlist::Netlist& nl,
                                       std::size_t bits) {
  std::vector<netlist::NetId> nets;
  for (std::size_t b = 0; b < bits; ++b)
    nets.push_back(*nl.find_net("state" + std::to_string(b)));
  return nets;
}

int hot_state_bits(const netlist::Simulator& sim,
                   const std::vector<netlist::NetId>& state) {
  int hot = 0;
  for (const netlist::NetId net : state)
    if (sim.get(net)) ++hot;
  return hot;
}

TEST(FaultNetlist, HardenedOneHotRecoversFromSeuInOneCycle) {
  const synth::Fsm fsm = core::build_round_robin_fsm(3);
  synth::FlowOptions fo;
  fo.encoding = synth::Encoding::kOneHot;
  fo.harden = true;
  const auto res = synth::synthesize_fsm(fsm, fo);
  netlist::Simulator sim(res.netlist);
  const std::size_t bits = fsm.num_states();
  const std::vector<netlist::NetId> state = state_nets(res.netlist, bits);
  for (int i = 0; i < 3; ++i) sim.set_input("req" + std::to_string(i), false);
  sim.settle();
  ASSERT_EQ(hot_state_bits(sim, state), 1);

  // SEU #1: a second bit goes hot (two-hot).  No grant may fire from the
  // illegal state, and one clock returns the register to the reset code.
  sim.poke_register(state[1], true);
  ASSERT_EQ(hot_state_bits(sim, state), 2);
  for (int i = 0; i < 3; ++i)
    EXPECT_FALSE(sim.get("grant" + std::to_string(i)))
        << "full-code recognizers must not fire from an illegal state";
  sim.clock();
  EXPECT_EQ(hot_state_bits(sim, state), 1) << "recovery within one cycle";
  EXPECT_TRUE(sim.get(state[0])) << "recovery lands on the reset state F0";

  // SEU #2: the hot bit clears (zero-hot).
  for (std::size_t b = 0; b < bits; ++b)
    sim.poke_register(state[b], false);
  ASSERT_EQ(hot_state_bits(sim, state), 0);
  sim.clock();
  EXPECT_EQ(hot_state_bits(sim, state), 1);
  EXPECT_TRUE(sim.get(state[0]));

  // The machine still arbitrates correctly after both upsets.
  sim.set_input("req2", true);
  sim.settle();
  EXPECT_TRUE(sim.get("grant2"));
}

TEST(FaultNetlist, UnhardenedOneHotStaysBrokenAfterSeu) {
  const synth::Fsm fsm = core::build_round_robin_fsm(3);
  synth::FlowOptions fo;
  fo.encoding = synth::Encoding::kOneHot;
  fo.harden = false;
  const auto res = synth::synthesize_fsm(fsm, fo);
  netlist::Simulator sim(res.netlist);
  const std::size_t bits = fsm.num_states();
  const std::vector<netlist::NetId> state = state_nets(res.netlist, bits);

  // Zero-hot: the machine is dead — no grants, ever.
  sim.set_input("req0", true);
  sim.set_input("req1", true);
  sim.set_input("req2", false);
  sim.poke_register(state[0], false);
  for (int cyc = 0; cyc < 5; ++cyc) {
    EXPECT_EQ(hot_state_bits(sim, state), 0);
    for (int i = 0; i < 3; ++i)
      EXPECT_FALSE(sim.get("grant" + std::to_string(i)));
    sim.clock();
  }

  // Two-hot (F0 and F1): both single-literal recognizers fire and two
  // grants assert at once — the detectable mutual-exclusion violation.
  sim.poke_register(state[0], true);
  sim.poke_register(state[1], true);
  EXPECT_TRUE(sim.get("grant0"));
  EXPECT_TRUE(sim.get("grant1"));
}

// -------------------------------------- Sec. 4.1 starvation bound (property)

TEST(FaultProperty, RoundRobinWaitBoundedByNMinusOneGrantedBursts) {
  // Sec. 4.1: between a request and its grant, at most N-1 other granted
  // bursts can pass (the cyclic scan reaches every requester once per lap).
  for (int n : {2, 3, 4, 6, 8}) {
    RoundRobinArbiter arb(n);
    Rng rng(4242 + static_cast<std::uint64_t>(n));
    std::vector<int> hold_left(static_cast<std::size_t>(n), 0);
    std::vector<int> cooldown(static_cast<std::size_t>(n), 0);
    std::vector<bool> waiting(static_cast<std::size_t>(n), true);
    std::vector<std::uint64_t> grants_at_request(static_cast<std::size_t>(n),
                                                 0);
    std::uint64_t grant_events = 0;
    int prev = -1;
    for (int cyc = 0; cyc < 20000; ++cyc) {
      std::uint64_t req = 0;
      for (int i = 0; i < n; ++i)
        if (waiting[static_cast<std::size_t>(i)] ||
            hold_left[static_cast<std::size_t>(i)] > 0)
          req |= 1ull << i;
      const int g = arb.step(req);
      if (g >= 0 && g != prev) {
        ++grant_events;
        const auto gi = static_cast<std::size_t>(g);
        if (waiting[gi]) {
          ASSERT_LE(grant_events - 1 - grants_at_request[gi],
                    static_cast<std::uint64_t>(n - 1))
              << "n=" << n << " cyc=" << cyc << " port=" << g;
          waiting[gi] = false;
          hold_left[gi] = 1 + static_cast<int>(rng.next_below(4));
        }
      }
      prev = g;
      for (int i = 0; i < n; ++i) {
        const auto ii = static_cast<std::size_t>(i);
        if (hold_left[ii] > 0) {
          if (g == i && --hold_left[ii] == 0)
            cooldown[ii] = 1 + static_cast<int>(rng.next_below(3));
        } else if (!waiting[ii] && cooldown[ii] > 0 && --cooldown[ii] == 0) {
          waiting[ii] = true;
          grants_at_request[ii] = grant_events;
        }
      }
    }
  }
}

// ------------------------------------------------------ system-level faults

/// Two tasks hammering segments bound to one bank (from test_rcsim).
struct ContentionFixture {
  TaskGraph g{"contend"};
  Binding binding;

  explicit ContentionFixture(int accesses) {
    g.add_segment("s0", 64, 16);
    g.add_segment("s1", 64, 16);
    for (int t = 0; t < 2; ++t) {
      Program p;
      p.load_imm(0, 0);
      for (int i = 0; i < accesses; ++i) p.store(t, 0, 0, i % 16);
      p.halt();
      g.add_task(std::string("t").append(std::to_string(t)), p, 1);
    }
    binding.task_to_pe.assign(2, 0);
    binding.segment_to_bank.assign(g.num_segments(), 0);
    binding.channel_to_phys.assign(g.num_channels(), -1);
    binding.num_banks = 1;
    binding.bank_names = {"BANK"};
  }
};

TEST(FaultSim, SeuDeadlocksUnhardenedButHardenedRecovers) {
  ContentionFixture fx(6);
  const InsertionResult ins = core::insert_arbitration(fx.g, fx.binding, {});
  fault::FaultEvent seu;
  seu.kind = fault::FaultKind::kFsmBitFlip;
  seu.cycle = 0;
  seu.arbiter = 0;
  seu.bit = 0;  // clears F0 at reset: zero-hot, machine dead

  SimOptions soft;
  soft.strict = false;
  soft.harden = false;
  soft.no_progress_window = 500;
  soft.faults = {seu};
  SystemSimulator sim_soft(ins.graph, fx.binding, ins.plan, soft);
  const SimResult r_soft = sim_soft.run({0, 1});
  EXPECT_TRUE(r_soft.deadlocked);
  EXPECT_EQ(r_soft.illegal_fsm_states, 1u);
  EXPECT_EQ(r_soft.count(DiagKind::kIllegalFsmState), 1u);
  EXPECT_GE(r_soft.count(DiagKind::kNoProgress) +
                r_soft.count(DiagKind::kDeadlock),
            1u)
      << "the stall must be attributed, never a silent hang";

  SimOptions hard = soft;
  hard.harden = true;
  SystemSimulator sim_hard(ins.graph, fx.binding, ins.plan, hard);
  const SimResult r_hard = sim_hard.run({0, 1});
  EXPECT_FALSE(r_hard.deadlocked);
  EXPECT_GE(r_hard.fsm_recoveries, 1u);
  EXPECT_GE(r_hard.count(DiagKind::kFsmRecovery), 1u);
  EXPECT_EQ(r_hard.bank_conflicts, 0u);
  EXPECT_TRUE(r_hard.tasks[0].ran && r_hard.tasks[1].ran);
}

TEST(FaultSim, WatchdogDetectsAndHardenedReleasesHungGrant) {
  ContentionFixture fx(8);
  const InsertionResult ins = core::insert_arbitration(fx.g, fx.binding, {});
  // The holder's grant line reads 0 for a long window: the task stalls
  // holding the arbiter's grant while its peer waits behind it.
  fault::FaultEvent stuck;
  stuck.kind = fault::FaultKind::kGrantStuck0;
  stuck.cycle = 2;
  stuck.arbiter = 0;
  stuck.port = 0;
  stuck.duration = 300;

  SimOptions soft;
  soft.strict = false;
  soft.watchdog_timeout = 16;
  soft.faults = {stuck};
  SystemSimulator sim_soft(ins.graph, fx.binding, ins.plan, soft);
  const SimResult r_soft = sim_soft.run({0, 1});
  EXPECT_GE(r_soft.hung_grants, 1u);
  EXPECT_GE(r_soft.count(DiagKind::kHungGrant), 1u);
  EXPECT_EQ(r_soft.watchdog_releases, 0u) << "detection only when unhardened";
  EXPECT_FALSE(r_soft.deadlocked) << "the stuck window ends, the run finishes";

  SimOptions hard = soft;
  hard.harden = true;
  SystemSimulator sim_hard(ins.graph, fx.binding, ins.plan, hard);
  const SimResult r_hard = sim_hard.run({0, 1});
  EXPECT_GE(r_hard.watchdog_releases, 1u);
  EXPECT_GE(r_hard.count(DiagKind::kWatchdogRecovery), 1u);
  EXPECT_FALSE(r_hard.deadlocked);
  // Force-release lets the waiting peer finish well before the window ends.
  EXPECT_LT(r_hard.tasks[1].finish_cycle, r_soft.tasks[1].finish_cycle);
}

TEST(FaultSim, RetryRecoversFromStuckRequestLine) {
  ContentionFixture fx(8);
  InsertionOptions io;
  io.retry_timeout = 6;
  io.retry_backoff_limit = 16;
  const InsertionResult ins = core::insert_arbitration(fx.g, fx.binding, io);
  EXPECT_EQ(ins.plan.retry_timeout, 6);
  // A phantom requester (req stuck at 1 on port 0's line while that task is
  // between bursts) pins the grant; port 1's task must retry through it.
  fault::FaultEvent stuck;
  stuck.kind = fault::FaultKind::kReqStuck1;
  stuck.cycle = 1;
  stuck.arbiter = 0;
  stuck.port = 0;
  stuck.duration = 60;

  SimOptions options;
  options.strict = false;
  options.watchdog_timeout = 8;
  options.faults = {stuck};
  SystemSimulator sim(ins.graph, fx.binding, ins.plan, options);
  const SimResult r = sim.run({0, 1});
  EXPECT_FALSE(r.deadlocked);
  EXPECT_GT(r.retries, 0u) << "grantless waits past the timeout must retry";
  EXPECT_EQ(r.bank_conflicts, 0u);
  EXPECT_EQ(r.protocol_violations, 0u);
}

TEST(FaultSim, ChannelCorruptionCorrectedOnlyWhenHardened) {
  TaskGraph g("ecc");
  Program snd;
  snd.load_imm(0, 10).send(0, 0).halt();
  Program rcv;
  rcv.recv(1, 0).load_imm(0, 0).store(0, 0, 1).halt();
  const TaskId s = g.add_task("s", snd, 1);
  const TaskId r = g.add_task("r", rcv, 1);
  g.add_channel("c", 32, s, r);
  g.add_segment("out", 64, 16);
  Binding b;
  b.task_to_pe.assign(2, 0);
  b.segment_to_bank.assign(g.num_segments(), 0);
  b.channel_to_phys = {0};
  b.num_banks = 1;
  b.bank_names = {"BANK"};
  b.num_phys_channels = 1;
  b.phys_channel_names = {"CH"};
  core::ArbitrationPlan plan;
  plan.arbiters_of_resource.assign(b.num_resources(), {});

  fault::FaultEvent seu;
  seu.kind = fault::FaultKind::kChannelCorrupt;
  seu.cycle = 0;
  seu.channel = 0;
  seu.xor_mask = 1ull << 3;

  SimOptions soft;
  soft.strict = false;
  soft.faults = {seu};
  SystemSimulator sim_soft(g, b, plan, soft);
  sim_soft.write_segment(0, {});
  const SimResult r_soft = sim_soft.run({s, r});
  EXPECT_EQ(r_soft.corrupted_words, 1u);
  EXPECT_EQ(r_soft.corrected_words, 0u);
  EXPECT_EQ(r_soft.count(DiagKind::kDataCorruption), 1u);
  EXPECT_EQ(sim_soft.segment_data(0)[0], 10 ^ 8)
      << "parity detects but cannot repair without ECC";

  SimOptions hard = soft;
  hard.harden = true;
  SystemSimulator sim_hard(g, b, plan, hard);
  const SimResult r_hard = sim_hard.run({s, r});
  EXPECT_EQ(r_hard.corrupted_words, 0u);
  EXPECT_EQ(r_hard.corrected_words, 1u);
  EXPECT_EQ(sim_hard.segment_data(0)[0], 10) << "SECDED repairs the word";
}

// ------------------------------------------------------- stall attribution

TEST(FaultSim, DeadlockAttributedViaWaitForGraphCycle) {
  // Classic cross-recv deadlock: each task receives before it sends.
  TaskGraph g("cross");
  Program p0;
  p0.recv(1, 1).load_imm(0, 1).send(0, 0).halt();
  Program p1;
  p1.recv(1, 0).load_imm(0, 2).send(1, 0).halt();
  const TaskId a = g.add_task("A", p0, 1);
  const TaskId b = g.add_task("B", p1, 1);
  g.add_channel("ab", 32, a, b);
  g.add_channel("ba", 32, b, a);
  Binding bind;
  bind.task_to_pe.assign(2, 0);
  bind.segment_to_bank.assign(g.num_segments(), 0);
  bind.channel_to_phys.assign(g.num_channels(), -1);
  core::ArbitrationPlan plan;
  plan.arbiters_of_resource.assign(bind.num_resources(), {});

  SimOptions options;
  options.strict = false;
  options.no_progress_window = 200;
  SystemSimulator sim(g, bind, plan, options);
  const SimResult r = sim.run({a, b});
  EXPECT_TRUE(r.deadlocked);
  ASSERT_EQ(r.count(DiagKind::kDeadlock), 1u);
  EXPECT_EQ(r.count(DiagKind::kNoProgress), 0u);
  std::string detail;
  for (const auto& d : r.diagnostics)
    if (d.kind == DiagKind::kDeadlock) detail = d.detail;
  EXPECT_NE(detail.find("wait-for cycle"), std::string::npos) << detail;
  EXPECT_NE(detail.find("A"), std::string::npos);
  EXPECT_NE(detail.find("B"), std::string::npos);
}

TEST(FaultSim, AcyclicStallReportedAsNoProgress) {
  // A receiver whose sender never sends: a hang, not a deadlock cycle.
  TaskGraph g("hang");
  Program rcv;
  rcv.recv(0, 0).halt();
  Program snd;
  snd.compute(1).halt();  // never sends
  const TaskId r = g.add_task("r", rcv, 1);
  const TaskId s = g.add_task("s", snd, 1);
  g.add_channel("c", 16, s, r);
  Binding b;
  b.task_to_pe.assign(2, 0);
  b.segment_to_bank.assign(g.num_segments(), 0);
  b.channel_to_phys.assign(g.num_channels(), -1);
  core::ArbitrationPlan plan;
  plan.arbiters_of_resource.assign(b.num_resources(), {});

  SimOptions options;
  options.strict = false;
  options.no_progress_window = 300;
  SystemSimulator sim(g, b, plan, options);
  const SimResult result = sim.run({r, s});
  EXPECT_TRUE(result.deadlocked);
  EXPECT_EQ(result.count(DiagKind::kDeadlock), 0u);
  ASSERT_EQ(result.count(DiagKind::kNoProgress), 1u);
  EXPECT_LE(result.cycles, 400u) << "the window option must be honored";
}

TEST(FaultSim, StrictStallStillThrowsWithAttribution) {
  TaskGraph g("strict");
  Program rcv;
  rcv.recv(0, 0).halt();
  Program snd;
  snd.compute(1).halt();
  const TaskId r = g.add_task("r", rcv, 1);
  const TaskId s = g.add_task("s", snd, 1);
  g.add_channel("c", 16, s, r);
  Binding b;
  b.task_to_pe.assign(2, 0);
  b.segment_to_bank.assign(g.num_segments(), 0);
  b.channel_to_phys.assign(g.num_channels(), -1);
  core::ArbitrationPlan plan;
  plan.arbiters_of_resource.assign(b.num_resources(), {});
  SimOptions options;
  options.no_progress_window = 200;  // strict stays default-on
  SystemSimulator sim(g, b, plan, options);
  EXPECT_THROW(sim.run({r, s}), CheckError);
}

TEST(FaultSim, NonStrictMaxCyclesStopsCleanly) {
  TaskGraph g("cap");
  Program p;
  p.loop_begin(1000).compute(1).loop_end().halt();  // progresses every cycle
  const TaskId t = g.add_task("t", p, 1);
  Binding b;
  b.task_to_pe.assign(1, 0);
  b.segment_to_bank.assign(g.num_segments(), 0);
  b.channel_to_phys.assign(g.num_channels(), -1);
  core::ArbitrationPlan plan;
  plan.arbiters_of_resource.assign(b.num_resources(), {});
  SimOptions options;
  options.strict = false;
  options.max_cycles = 100;
  SystemSimulator sim(g, b, plan, options);
  const SimResult result = sim.run({t});
  EXPECT_TRUE(result.deadlocked);
  EXPECT_EQ(result.count(DiagKind::kMaxCycles), 1u);
}

}  // namespace
}  // namespace rcarb
