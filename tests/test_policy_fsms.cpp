#include <gtest/gtest.h>

#include <set>

#include "core/generator.hpp"
#include "core/policy.hpp"
#include "core/policy_fsms.hpp"
#include "core/rr_fsm.hpp"
#include "netlist/simulator.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace rcarb::core {
namespace {

/// Co-simulates an arbiter FSM (as reference semantics via Fsm::step)
/// against a behavioral Arbiter over random request traces.
void check_fsm_matches_behavior(const synth::Fsm& fsm, Arbiter& behavioral,
                                int n, std::uint64_t seed, int cycles) {
  fsm.validate();
  synth::StateId state = fsm.reset_state();
  Rng rng(seed);
  for (int cyc = 0; cyc < cycles; ++cyc) {
    const std::uint64_t req = rng.next_below(1ull << n);
    const auto r = fsm.step(state, req);
    const int granted = behavioral.step(req);
    ASSERT_EQ(r.outputs, granted < 0 ? 0ull : (1ull << granted))
        << fsm.name() << " cycle " << cyc << " req=" << req;
    state = r.next_state;
  }
}

/// Synthesizes the FSM and co-simulates the mapped netlist too.
void check_netlist_matches_behavior(const synth::Fsm& fsm, Arbiter& behavioral,
                                    int n, synth::Encoding encoding,
                                    std::uint64_t seed, int cycles) {
  const auto g = characterize_fsm(fsm, n, synth::FlowKind::kExpressLike,
                                  encoding);
  netlist::Simulator sim(g.synth.netlist);
  // Resolve port names once — the cycle loop must not hash strings.
  std::vector<netlist::NetId> req_net, grant_net;
  for (int i = 0; i < n; ++i) {
    req_net.push_back(
        *g.synth.netlist.find_net("req" + std::to_string(i)));
    grant_net.push_back(
        *g.synth.netlist.find_net("grant" + std::to_string(i)));
  }
  Rng rng(seed);
  for (int cyc = 0; cyc < cycles; ++cyc) {
    const std::uint64_t req = rng.next_below(1ull << n);
    for (int i = 0; i < n; ++i)
      sim.set_input(req_net[static_cast<std::size_t>(i)], (req >> i) & 1);
    sim.settle();
    int got = -1;
    for (int i = 0; i < n; ++i) {
      if (sim.get(grant_net[static_cast<std::size_t>(i)])) {
        ASSERT_EQ(got, -1) << "double grant from " << fsm.name();
        got = i;
      }
    }
    ASSERT_EQ(got, behavioral.step(req)) << fsm.name() << " cycle " << cyc;
    sim.clock();
  }
  EXPECT_EQ(sim.name_lookups(), 0u);
}

// ------------------------------------------------------------------ priority

class PriorityFsmSweep : public ::testing::TestWithParam<int> {};

TEST_P(PriorityFsmSweep, MatchesBehavioralModel) {
  const int n = GetParam();
  PriorityArbiter behavioral(n);
  check_fsm_matches_behavior(build_priority_fsm(n), behavioral, n,
                             500 + static_cast<std::uint64_t>(n), 2000);
}

TEST_P(PriorityFsmSweep, SynthesizedNetlistMatches) {
  const int n = GetParam();
  PriorityArbiter behavioral(n);
  check_netlist_matches_behavior(build_priority_fsm(n), behavioral, n,
                                 synth::Encoding::kOneHot,
                                 600 + static_cast<std::uint64_t>(n), 1000);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PriorityFsmSweep,
                         ::testing::Values(2, 3, 4, 6, 8));

TEST(PriorityFsm, StateCountIsNPlusOne) {
  EXPECT_EQ(build_priority_fsm(5).num_states(), 6u);
  EXPECT_THROW(build_priority_fsm(1), CheckError);
  EXPECT_THROW(build_priority_fsm(21), CheckError);
}

// ---------------------------------------------------------------------- LFSR

TEST(Lfsr3, HasFullPeriodSeven) {
  std::set<int> seen;
  int s = 1;
  for (int i = 0; i < 7; ++i) {
    seen.insert(s);
    s = lfsr3_next(s);
    EXPECT_GE(s, 1);
    EXPECT_LE(s, 7);
  }
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(s, 1) << "period must be exactly 7";
  EXPECT_THROW((void)lfsr3_next(0), CheckError);
}

class LfsrFsmSweep : public ::testing::TestWithParam<int> {};

TEST_P(LfsrFsmSweep, MatchesBehavioralTwin) {
  const int n = GetParam();
  LfsrRandomArbiter behavioral(n);
  check_fsm_matches_behavior(build_lfsr_random_fsm(n), behavioral, n,
                             700 + static_cast<std::uint64_t>(n), 2000);
}

TEST_P(LfsrFsmSweep, SynthesizedNetlistMatches) {
  const int n = GetParam();
  LfsrRandomArbiter behavioral(n);
  check_netlist_matches_behavior(build_lfsr_random_fsm(n), behavioral, n,
                                 synth::Encoding::kOneHot,
                                 800 + static_cast<std::uint64_t>(n), 800);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LfsrFsmSweep, ::testing::Values(2, 3, 4, 6));

TEST(LfsrFsm, StateCountIsSevenTimesHolders) {
  EXPECT_EQ(build_lfsr_random_fsm(3).num_states(), 7u * 4u);
  EXPECT_THROW(build_lfsr_random_fsm(7), CheckError);
}

TEST(LfsrArbiter, GrantsOnlyRequestersAndHolds) {
  LfsrRandomArbiter arb(4);
  Rng rng(13);
  int holder = -1;
  for (int cyc = 0; cyc < 2000; ++cyc) {
    std::uint64_t req = rng.next_below(16);
    if (holder >= 0) req |= 1ull << holder;
    const int g = arb.step(req);
    if (g >= 0) {
      EXPECT_TRUE((req >> g) & 1);
    }
    if (holder >= 0) {
      EXPECT_EQ(g, holder);
    }
    holder = rng.chance(1, 3) ? -1 : g;
    if (holder < 0 && g >= 0) {
      // release: one step without the bit
      (void)0;
    }
  }
}

// ---------------------------------------------------------------------- FIFO

class FifoFsmSweep : public ::testing::TestWithParam<int> {};

TEST_P(FifoFsmSweep, MatchesBehavioralModel) {
  const int n = GetParam();
  FifoArbiter behavioral(n);
  check_fsm_matches_behavior(build_fifo_fsm(n), behavioral, n,
                             900 + static_cast<std::uint64_t>(n), 3000);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FifoFsmSweep, ::testing::Values(2, 3, 4));

TEST(FifoFsm, SynthesizedNetlistMatchesForSmallN) {
  FifoArbiter behavioral(3);
  check_netlist_matches_behavior(build_fifo_fsm(3), behavioral, 3,
                                 synth::Encoding::kOneHot, 42, 1500);
}

TEST(FifoFsm, CompactEncodingWorksForN4) {
  FifoArbiter behavioral(4);
  check_netlist_matches_behavior(build_fifo_fsm(4), behavioral, 4,
                                 synth::Encoding::kCompact, 43, 400);
}

TEST(FifoFsm, StateSpaceGrowsCombinatorially) {
  const std::size_t s2 = build_fifo_fsm(2).num_states();
  const std::size_t s3 = build_fifo_fsm(3).num_states();
  const std::size_t s4 = build_fifo_fsm(4).num_states();
  EXPECT_LT(s2, s3);
  EXPECT_LT(s3, s4);
  EXPECT_GT(s4, 3 * s3) << "the queue state explosion the paper refers to";
  EXPECT_THROW(build_fifo_fsm(5), CheckError);
}

// ------------------------------------------------------- hardware comparison

TEST(PolicyHardware, RoundRobinIsTheCheapFairOption) {
  const auto flow = synth::FlowKind::kExpressLike;
  const auto enc = synth::Encoding::kOneHot;
  const int n = 4;
  const auto rr = generate({.n = n});
  const auto fifo = characterize_fsm(build_fifo_fsm(n), n, flow,
                                     synth::Encoding::kCompact);
  const auto rand = characterize_fsm(build_lfsr_random_fsm(n), n, flow, enc);
  // The Sec. 4 claim, now measurable: every fair alternative costs several
  // times the round-robin area.
  EXPECT_GT(fifo.chars.clbs, 4 * rr.chars.clbs);
  EXPECT_GT(rand.chars.clbs, 4 * rr.chars.clbs);
  EXPECT_GT(rr.chars.fmax_mhz, fifo.chars.fmax_mhz);
}

}  // namespace
}  // namespace rcarb::core
