// Lockstep equivalence of the simulation engines (scalar full-topo,
// scalar event-driven, 64-lane WideLaneSimulator full-topo and
// event-driven) plus the instrumentation contracts the perf work relies
// on: event-driven settles skip clean LUTs, fault pokes seed only the
// poked register's fanout cone, and no name lookup happens inside a cycle
// loop that resolved its NetIds up front.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/generator.hpp"
#include "core/insertion.hpp"
#include "core/policy.hpp"
#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"
#include "netlist/wide_simulator.hpp"
#include "rcsim/system_sim.hpp"
#include "support/rng.hpp"
#include "synth/flow.hpp"
#include "taskgraph/taskgraph.hpp"

namespace rcarb::netlist {
namespace {

constexpr std::size_t kLanes = 64;

/// One 64-lane word of a net (bit l = lane l).
std::uint64_t word_of(const WideLaneSimulator& sim, NetId net) {
  std::uint64_t word = 0;
  sim.get(net, &word);
  return word;
}

/// Net ids every engine needs: requests, grants, and the state registers.
struct Ports {
  std::vector<NetId> req, grant, state;
};

Ports resolve_ports(const Netlist& nl, int n) {
  Ports p;
  for (int i = 0; i < n; ++i) {
    const auto r = nl.find_net("req" + std::to_string(i));
    const auto g = nl.find_net("grant" + std::to_string(i));
    EXPECT_TRUE(r.has_value() && g.has_value());
    p.req.push_back(*r);
    p.grant.push_back(*g);
  }
  for (std::size_t s = 0;; ++s) {
    const auto net = nl.find_net("state" + std::to_string(s));
    if (!net.has_value()) break;
    p.state.push_back(*net);
  }
  return p;
}

/// Drives all four engines with 64 distinct request streams and per-lane
/// SEU pokes, asserting bit-identical outputs and state every cycle.
/// Scalar engines are only run for a few sampled lanes (64 scalar replicas
/// of every config would dominate suite runtime); the lane engines are
/// compared across all 64 lanes.
void lockstep(const Netlist& nl, int n, std::uint64_t seed, int cycles) {
  const Ports p = resolve_ports(nl, n);
  const std::vector<std::size_t> sampled = {0, 5, 31, 63};

  WideLaneSimulator lane_event(nl, kLanes, SettleMode::kEventDriven);
  WideLaneSimulator lane_full(nl, kLanes, SettleMode::kFullTopo);
  std::vector<Simulator> scalar_full, scalar_event;
  for (std::size_t s = 0; s < sampled.size(); ++s) {
    scalar_full.emplace_back(nl, SettleMode::kFullTopo);
    scalar_event.emplace_back(nl, SettleMode::kEventDriven);
  }

  Rng rng(seed);
  // Per-lane request streams; regenerate per cycle.
  std::vector<std::uint64_t> lane_req(kLanes);
  for (int cyc = 0; cyc < cycles; ++cyc) {
    for (std::size_t l = 0; l < kLanes; ++l)
      lane_req[l] = rng.next_below(std::uint64_t{1} << n);

    for (int i = 0; i < n; ++i) {
      std::uint64_t word = 0;
      for (std::size_t l = 0; l < kLanes; ++l)
        word |= ((lane_req[l] >> i) & 1) << l;
      lane_event.set_input(p.req[static_cast<std::size_t>(i)], &word);
      lane_full.set_input(p.req[static_cast<std::size_t>(i)], &word);
    }
    for (std::size_t s = 0; s < sampled.size(); ++s)
      for (int i = 0; i < n; ++i) {
        scalar_full[s].set_input(p.req[static_cast<std::size_t>(i)],
                                 (lane_req[sampled[s]] >> i) & 1);
        scalar_event[s].set_input(p.req[static_cast<std::size_t>(i)],
                                  (lane_req[sampled[s]] >> i) & 1);
      }
    lane_event.settle();
    lane_full.settle();
    for (std::size_t s = 0; s < sampled.size(); ++s) {
      scalar_full[s].settle();
      scalar_event[s].settle();
    }

    // Outputs and registers must agree across every engine pair.
    for (NetId net : p.grant) {
      ASSERT_EQ(word_of(lane_event, net), word_of(lane_full, net))
          << "lane event vs full diverged on " << nl.net_name(net)
          << " at cycle " << cyc;
      for (std::size_t s = 0; s < sampled.size(); ++s) {
        ASSERT_EQ(scalar_full[s].get(net), scalar_event[s].get(net))
            << "scalar event diverged, cycle " << cyc;
        ASSERT_EQ(lane_event.get_lane(net, sampled[s]),
                  scalar_full[s].get(net))
            << "lane " << sampled[s] << " vs scalar diverged on "
            << nl.net_name(net) << " at cycle " << cyc;
      }
    }

    // Every ~13 cycles, flip a random state bit in a random lane (and in
    // the matching scalar replica when that lane is sampled).
    if (!p.state.empty() && cyc % 13 == 7) {
      const std::size_t lane = rng.next_below(kLanes);
      const NetId reg = p.state[rng.next_below(p.state.size())];
      lane_event.poke_register_lane(reg, lane,
                                    !lane_event.get_lane(reg, lane));
      lane_full.poke_register_lane(reg, lane,
                                   !lane_full.get_lane(reg, lane));
      for (std::size_t s = 0; s < sampled.size(); ++s)
        if (sampled[s] == lane) {
          scalar_full[s].poke_register(reg, !scalar_full[s].get(reg));
          scalar_event[s].poke_register(reg, !scalar_event[s].get(reg));
        }
    }

    lane_event.clock();
    lane_full.clock();
    for (std::size_t s = 0; s < sampled.size(); ++s) {
      scalar_full[s].clock();
      scalar_event[s].clock();
    }
    for (NetId net : p.state) {
      ASSERT_EQ(word_of(lane_event, net), word_of(lane_full, net))
          << "state diverged after clock, cycle " << cyc;
      for (std::size_t s = 0; s < sampled.size(); ++s)
        ASSERT_EQ(lane_event.get_lane(net, sampled[s]),
                  scalar_full[s].get(net))
            << "lane state vs scalar, cycle " << cyc;
    }
  }
}

struct LockstepParam {
  int n;
  synth::Encoding encoding;
};

class LaneLockstep : public ::testing::TestWithParam<LockstepParam> {};

TEST_P(LaneLockstep, AllEnginesAgreeUnderRandomRequestsAndSeus) {
  const auto [n, encoding] = GetParam();
  // The memo cache feeds every parametrization; repeated suite runs in one
  // process synthesize each config once.
  const auto& g = core::generate_round_robin_cached(
      n, synth::FlowKind::kExpressLike, encoding);
  lockstep(g.synth.netlist, n, 7001 + static_cast<std::uint64_t>(n), 260);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LaneLockstep,
    ::testing::Values(LockstepParam{2, synth::Encoding::kOneHot},
                      LockstepParam{3, synth::Encoding::kOneHot},
                      LockstepParam{8, synth::Encoding::kOneHot},
                      LockstepParam{16, synth::Encoding::kOneHot},
                      LockstepParam{2, synth::Encoding::kCompact},
                      LockstepParam{3, synth::Encoding::kCompact},
                      LockstepParam{8, synth::Encoding::kCompact},
                      LockstepParam{16, synth::Encoding::kCompact},
                      LockstepParam{2, synth::Encoding::kGray},
                      LockstepParam{3, synth::Encoding::kGray},
                      LockstepParam{8, synth::Encoding::kGray},
                      LockstepParam{16, synth::Encoding::kGray}));

TEST(LaneLockstep, HardenedArbiterAgrees) {
  const auto& s = core::synthesize_round_robin_cached(
      3, synth::Encoding::kOneHot, /*harden=*/true);
  lockstep(s.netlist, 3, 99, 260);
}

TEST(LaneLockstep, HandBuiltSinglePortNetlist) {
  // The generators reject N=1 by contract, so the 1-port case is covered
  // with a hand-built machine: grant0 = req0 AND NOT busy, where `busy`
  // toggles whenever a grant was given (a 1-port arbiter with a 1-cycle
  // recovery slot).
  Netlist nl;
  const NetId req = nl.add_input("req0");
  const NetId busy = nl.add_dff(0, false, "state0");
  const NetId grant =
      nl.add_lut({req, busy}, 0b0010, "grant0_lut");  // req & !busy
  nl.connect_dff_d(0, grant);
  nl.mark_output(grant, "grant0");
  lockstep(nl, 1, 4242, 200);
}

TEST(EventDriven, SkipsCleanLutsOnQuietInputs) {
  const auto& g = core::generate_round_robin_cached(
      8, synth::FlowKind::kExpressLike, synth::Encoding::kOneHot);
  const Netlist& nl = g.synth.netlist;
  const Ports p = resolve_ports(nl, 8);

  Simulator full(nl, SettleMode::kFullTopo);
  Simulator event(nl, SettleMode::kEventDriven);
  // Hold one constant request pattern for many cycles: after the FSM
  // reaches its steady orbit, most LUT inputs stop changing and the
  // event-driven engine must evaluate strictly fewer LUTs.
  for (Simulator* sim : {&full, &event}) {
    sim->set_input(p.req[2], true);
    for (int cyc = 0; cyc < 100; ++cyc) {
      sim->settle();
      sim->clock();
    }
  }
  EXPECT_LT(event.luts_evaluated(), full.luts_evaluated());
  EXPECT_GT(event.event_settles(), 0u);

  // Same contract for the lane engine.
  WideLaneSimulator lane_full(nl, kLanes, SettleMode::kFullTopo);
  WideLaneSimulator lane_event(nl, kLanes, SettleMode::kEventDriven);
  for (WideLaneSimulator* sim : {&lane_full, &lane_event}) {
    sim->set_input_all(p.req[2], true);
    for (int cyc = 0; cyc < 100; ++cyc) {
      sim->settle();
      sim->clock();
    }
  }
  EXPECT_LT(lane_event.luts_evaluated(), lane_full.luts_evaluated());
}

TEST(EventDriven, PokeSeedsTheFanoutConeNotAFullResettle) {
  // Regression for the SEU-batch slowdown: poke_register used to schedule
  // a full topo resettle even in kEventDriven mode, so a 64-replica SEU
  // batch (one poke per lane per stream) re-evaluated every LUT per poke.
  // The poked DFF's fanout cone is all a poke can dirty — exactly what
  // clock() marks when that register changes — so the incremental path
  // must survive fault injection, with unchanged values.
  const auto& g = core::generate_round_robin_cached(
      4, synth::FlowKind::kExpressLike, synth::Encoding::kOneHot);
  const Netlist& nl = g.synth.netlist;
  const Ports p = resolve_ports(nl, 4);
  ASSERT_FALSE(p.state.empty());

  Simulator event(nl, SettleMode::kEventDriven);
  Simulator full(nl, SettleMode::kFullTopo);
  // Warm both engines onto the incremental path.
  for (Simulator* sim : {&event, &full}) {
    sim->set_input(p.req[1], true);
    sim->settle();
    sim->clock();
  }
  const std::uint64_t full_passes_before = event.full_settles();
  const std::uint64_t evals_before = event.luts_evaluated();
  event.poke_register(p.state[0], !event.get(p.state[0]));
  full.poke_register(p.state[0], !full.get(p.state[0]));
  EXPECT_EQ(event.full_settles(), full_passes_before)
      << "an event-driven poke must not schedule a full topo resettle";
  EXPECT_LT(event.luts_evaluated() - evals_before, nl.num_luts())
      << "a poke should evaluate only the poked register's fanout cone";
  // The poke produced the same fixed point as the proven full pass.
  for (NetId net : p.grant) EXPECT_EQ(event.get(net), full.get(net));
  for (NetId net : p.state) EXPECT_EQ(event.get(net), full.get(net));

  WideLaneSimulator lane(nl, kLanes, SettleMode::kEventDriven);
  const std::uint64_t lane_full_before = lane.full_settles();
  const std::uint64_t lane_evals_before = lane.luts_evaluated();
  lane.poke_register_lane(p.state[0], 17, !lane.get_lane(p.state[0], 17));
  EXPECT_EQ(lane.full_settles(), lane_full_before);
  EXPECT_LT(lane.luts_evaluated() - lane_evals_before, nl.num_luts());
  WideLaneSimulator lane_full(nl, kLanes, SettleMode::kFullTopo);
  lane_full.poke_register_lane(p.state[0], 17,
                               !lane_full.get_lane(p.state[0], 17));
  for (NetId net : p.grant)
    EXPECT_EQ(word_of(lane, net), word_of(lane_full, net));
  for (NetId net : p.state)
    EXPECT_EQ(word_of(lane, net), word_of(lane_full, net));

  // Incremental settling continues after the poke.
  const std::uint64_t event_before = event.event_settles();
  event.set_input(p.req[0], true);
  event.settle();
  EXPECT_EQ(event.event_settles(), event_before + 1);
}

TEST(NameLookups, CycleLoopsWithResolvedIdsDoNoStringHashing) {
  const auto& g = core::generate_round_robin_cached(
      4, synth::FlowKind::kExpressLike, synth::Encoding::kOneHot);
  const Netlist& nl = g.synth.netlist;
  // Resolve every name once, before the loop — the pattern all simulator
  // call sites follow.
  const Ports p = resolve_ports(nl, 4);

  Simulator sim(nl);
  WideLaneSimulator lane(nl, kLanes);
  Rng rng(55);
  for (int cyc = 0; cyc < 200; ++cyc) {
    const std::uint64_t req = rng.next_below(16);
    for (std::size_t i = 0; i < 4; ++i) {
      sim.set_input(p.req[i], (req >> i) & 1);
      lane.set_input_all(p.req[i], ((req >> i) & 1) != 0);
    }
    sim.settle();
    lane.settle();
    for (NetId net : p.grant) {
      (void)sim.get(net);
      (void)word_of(lane, net);
    }
    sim.clock();
    lane.clock();
  }
  EXPECT_EQ(sim.name_lookups(), 0u)
      << "a string-keyed lookup slipped into the NetId cycle loop";
  EXPECT_EQ(lane.name_lookups(), 0u);

  // The string overloads do count — the counter is live, not stubbed.
  (void)sim.get("grant0");
  const std::uint64_t zero = 0;
  lane.set_input("req0", &zero);
  EXPECT_EQ(sim.name_lookups(), 1u);
  EXPECT_EQ(lane.name_lookups(), 1u);
}

TEST(RequestTrace, RecordedStreamReplaysAgainstSynthesizedNetlist) {
  // Two tasks hammer one bank -> a 2-port arbiter.  Record the effective
  // request words the behavioral arbiter stepped on, then replay them
  // against the synthesized netlist and the behavioral model side by side.
  tg::TaskGraph g("trace");
  g.add_segment("s0", 32, 16);
  tg::Program t0;
  t0.load_imm(0, 0).load_imm(1, 3);
  t0.loop_begin(20);
  t0.store(0, 0, 1, 0);
  t0.loop_end();
  t0.halt();
  tg::Program t1;
  t1.load_imm(0, 0).load_imm(1, 5);
  t1.loop_begin(20);
  t1.store(0, 0, 1, 1);
  t1.loop_end();
  t1.halt();
  g.add_task("a", t0, 1);
  g.add_task("b", t1, 1);

  core::Binding binding;
  binding.task_to_pe = {0, 1};
  binding.segment_to_bank = {0};
  binding.num_banks = 1;
  binding.bank_names = {"BANK"};

  const core::InsertionResult ins = core::insert_arbitration(g, binding, {});
  ASSERT_EQ(ins.plan.arbiters.size(), 1u);

  rcsim::SimOptions so;
  so.record_request_trace = true;
  rcsim::SystemSimulator sim(ins.graph, binding, ins.plan, so);
  const rcsim::SimResult res = sim.run({0, 1});
  ASSERT_EQ(res.request_trace.size(), 1u);
  const std::vector<std::uint64_t>& trace = res.request_trace[0];
  ASSERT_FALSE(trace.empty());
  ASSERT_EQ(trace.size(), res.cycles);

  // Replay: netlist grants must match the behavioral arbiter cycle for
  // cycle on the recorded stream.
  const auto& rr = core::synthesize_round_robin_cached(
      2, synth::Encoding::kOneHot, /*harden=*/false);
  const Ports p = resolve_ports(rr.netlist, 2);
  Simulator replay(rr.netlist);
  core::RoundRobinArbiter beh(2);
  for (std::size_t c = 0; c < trace.size(); ++c) {
    for (std::size_t i = 0; i < 2; ++i)
      replay.set_input(p.req[i], (trace[c] >> i) & 1);
    replay.settle();
    int got = -1;
    for (std::size_t i = 0; i < 2; ++i)
      if (replay.get(p.grant[i])) got = static_cast<int>(i);
    EXPECT_EQ(got, beh.step(trace[c])) << "cycle " << c;
    replay.clock();
  }

  // Off by default: no per-cycle storage.
  rcsim::SystemSimulator plain(ins.graph, binding, ins.plan, {});
  EXPECT_TRUE(plain.run({0, 1}).request_trace.empty());
}

}  // namespace
}  // namespace rcarb::netlist
