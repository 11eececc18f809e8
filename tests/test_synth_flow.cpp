#include <gtest/gtest.h>

#include "core/rr_fsm.hpp"
#include "netlist/simulator.hpp"
#include "support/rng.hpp"
#include "synth/flow.hpp"

namespace rcarb::synth {
namespace {

/// Cross-checks a synthesized netlist against the reference FSM semantics
/// by co-simulating random input sequences.
void cosimulate(const Fsm& fsm, const SynthResult& result, int cycles,
                std::uint64_t seed) {
  netlist::Simulator sim(result.netlist);
  // Resolve interface names once — the cycle loop must not hash strings.
  std::vector<netlist::NetId> in_net, out_net;
  for (int i = 0; i < fsm.num_inputs(); ++i)
    in_net.push_back(*result.netlist.find_net(fsm.input_name(i)));
  for (int o = 0; o < fsm.num_outputs(); ++o)
    out_net.push_back(*result.netlist.find_net(fsm.output_name(o)));
  Rng rng(seed);
  StateId state = fsm.reset_state();
  for (int cyc = 0; cyc < cycles; ++cyc) {
    const std::uint64_t in = rng.next_below(1ull << fsm.num_inputs());
    for (int i = 0; i < fsm.num_inputs(); ++i)
      sim.set_input(in_net[static_cast<std::size_t>(i)], (in >> i) & 1);
    sim.settle();
    const auto want = fsm.step(state, in);
    for (int o = 0; o < fsm.num_outputs(); ++o)
      ASSERT_EQ(sim.get(out_net[static_cast<std::size_t>(o)]),
                ((want.outputs >> o) & 1) != 0)
          << "output " << fsm.output_name(o) << " cycle " << cyc;
    sim.clock();
    state = want.next_state;
  }
  EXPECT_EQ(sim.name_lookups(), 0u);
}

Fsm gray_counter() {
  // A 4-state up/down counter with a carry-style Mealy output.
  Fsm fsm("updown");
  for (int i = 0; i < 4; ++i)
    fsm.add_state(std::string("s").append(std::to_string(i)));
  fsm.add_input("up");
  fsm.add_output("wrap");
  for (StateId s = 0; s < 4; ++s) {
    const StateId up = (s + 1) % 4;
    const StateId down = (s + 3) % 4;
    fsm.add_transition(s, logic::Cube::literal(0, true), up,
                       up == 0 ? 0b1u : 0u);
    fsm.add_transition(s, logic::Cube::literal(0, false), down,
                       down == 3 ? 0b1u : 0u);
  }
  return fsm;
}

struct FlowParam {
  FlowKind kind;
  Encoding encoding;
};

class SynthFlowSweep : public ::testing::TestWithParam<FlowParam> {};

TEST_P(SynthFlowSweep, CounterMatchesReference) {
  const Fsm fsm = gray_counter();
  FlowOptions options;
  options.kind = GetParam().kind;
  options.encoding = GetParam().encoding;
  const SynthResult result = synthesize_fsm(fsm, options);
  cosimulate(fsm, result, 500, 77);
}

TEST_P(SynthFlowSweep, RoundRobin4MatchesReference) {
  const Fsm fsm = core::build_round_robin_fsm(4);
  FlowOptions options;
  options.kind = GetParam().kind;
  options.encoding = GetParam().encoding;
  const SynthResult result = synthesize_fsm(fsm, options);
  cosimulate(fsm, result, 800, 78);
}

INSTANTIATE_TEST_SUITE_P(
    AllFlows, SynthFlowSweep,
    ::testing::Values(FlowParam{FlowKind::kExpressLike, Encoding::kOneHot},
                      FlowParam{FlowKind::kExpressLike, Encoding::kCompact},
                      FlowParam{FlowKind::kExpressLike, Encoding::kGray},
                      FlowParam{FlowKind::kSynplifyLike, Encoding::kOneHot},
                      FlowParam{FlowKind::kSynplifyLike, Encoding::kCompact}));

TEST(SynthFlow, SynplifyForcesOneHot) {
  const Fsm fsm = gray_counter();
  FlowOptions options;
  options.kind = FlowKind::kSynplifyLike;
  options.encoding = Encoding::kCompact;  // ignored, as the paper notes
  const SynthResult result = synthesize_fsm(fsm, options);
  EXPECT_EQ(result.used_encoding, Encoding::kOneHot);
  EXPECT_EQ(result.netlist.num_dffs(), fsm.num_states());
}

TEST(SynthFlow, CompactUsesFewerRegisters) {
  const Fsm fsm = core::build_round_robin_fsm(5);  // 10 states
  FlowOptions oh, cp;
  oh.encoding = Encoding::kOneHot;
  cp.encoding = Encoding::kCompact;
  EXPECT_EQ(synthesize_fsm(fsm, oh).netlist.num_dffs(), 10u);
  EXPECT_EQ(synthesize_fsm(fsm, cp).netlist.num_dffs(), 4u);
}

TEST(SynthFlow, MinimizerReducesCubes) {
  const Fsm fsm = core::build_round_robin_fsm(3);
  FlowOptions with, without;
  without.run_minimizer = false;
  const SynthResult a = synthesize_fsm(fsm, with);
  const SynthResult b = synthesize_fsm(fsm, without);
  EXPECT_LE(a.sop_cubes, b.sop_cubes);
}

TEST(SynthFlow, ReportsPackAndMapStats) {
  const Fsm fsm = core::build_round_robin_fsm(4);
  const SynthResult result = synthesize_fsm(fsm, {});
  EXPECT_GT(result.clb.clbs, 0u);
  EXPECT_GT(result.map.luts, 0u);
  EXPECT_GT(result.map.depth, 0);
  EXPECT_GT(result.aig_ands, 0u);
  EXPECT_EQ(result.clb.luts, result.netlist.num_luts());
  EXPECT_EQ(result.clb.ffs, result.netlist.num_dffs());
}

}  // namespace
}  // namespace rcarb::synth
