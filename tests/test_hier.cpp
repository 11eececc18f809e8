// Scalable arbiters (core/hier.hpp): tree-shape invariants and exact
// composed waiting bounds, an exhaustive model check over every arbiter
// kind (mutual exclusion + bounded waiting from every reachable state),
// AIG equivalence of the width-unlimited flat chain against the Fig. 5
// structural generator, behavioral-vs-netlist lockstep under matched
// SEUs for all three kinds (the flat one also across 64-bit word edges),
// pinned per-kind grant sequences, fuzzed wide runs (N = 64/256, 10^5
// cycles) asserting one-hot grants and no starvation, and synthesis
// sanity of the scalable generator.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/arbiter_factory.hpp"
#include "core/generator.hpp"
#include "core/hier.hpp"
#include "core/policy.hpp"
#include "core/policy_fsms.hpp"
#include "core/rr_fsm.hpp"
#include "core/selfcheck.hpp"
#include "core/structural.hpp"
#include "netlist/simulator.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "synth/encoding.hpp"
#include "synth/flow.hpp"

namespace rcarb {
namespace {

using core::ArbiterKind;
using core::HierarchicalArbiter;
using core::HierShape;
using core::PrefixArbiter;
using core::RoundRobinArbiter;

// ======================================================== shape and bounds

TEST(HierShape, PerfectQuadTreeComposesToTheFlatBound) {
  const HierShape s = core::make_hier_shape(16, 4);
  EXPECT_EQ(s.nodes.size(), 5u);  // root + four 4-leaf nodes
  EXPECT_EQ(s.ptr_bits_total, 10);
  EXPECT_EQ(s.held_bits, 4);
  EXPECT_EQ(s.num_state_bits(), 15);
  // 16 = 4 * 4: every root->leaf path multiplies to 16, so the composed
  // bound collapses to the flat FSM's N - 1.
  for (int i = 0; i < 16; ++i) EXPECT_EQ(s.waiting_bound(i), 15u);
}

TEST(HierShape, RaggedTreeBoundsExceedNMinusOneOnDeepLeaves) {
  const HierShape s = core::make_hier_shape(6, 4);
  // Root splits 6 as 2+2+1+1: two 2-leaf nodes plus two direct leaves.
  ASSERT_EQ(s.nodes.size(), 3u);
  EXPECT_EQ(s.nodes[0].child.size(), 4u);
  // Leaves under a 2-leaf node wait through both levels: 4 * 2 - 1 = 7;
  // the direct leaves only wait the root rotation: 4 - 1 = 3.
  EXPECT_EQ(s.waiting_bound(0), 7u);
  EXPECT_EQ(s.waiting_bound(1), 7u);
  EXPECT_EQ(s.waiting_bound(2), 7u);
  EXPECT_EQ(s.waiting_bound(3), 7u);
  EXPECT_EQ(s.waiting_bound(4), 3u);
  EXPECT_EQ(s.waiting_bound(5), 3u);
}

TEST(HierShape, SingleInputDegenerates) {
  const HierShape s = core::make_hier_shape(1, 4);
  EXPECT_TRUE(s.nodes.empty());
  EXPECT_EQ(s.num_state_bits(), 1);  // just the holder-valid bit
  EXPECT_EQ(s.waiting_bound(0), 0u);
}

TEST(HierShape, PowerOfTwoBinaryTreesAreFair) {
  for (const int n : {2, 4, 8, 64, 256}) {
    const HierShape s = core::make_hier_shape(n, 2);
    for (int i = 0; i < n; ++i)
      EXPECT_EQ(s.waiting_bound(i), static_cast<std::uint64_t>(n - 1))
          << "n=" << n << " input " << i;
  }
}

// =========================================== uniform model-under-test shim
//
// The exhaustive checks below run the same walk over all four behavioral
// models (the flat Fig. 5 FSM, 2- and 4-way trees, and the prefix
// arbiter), so each gets a thin uniform adapter: step, grant mask, packed
// state register, SEU injection, and the kind's waiting bound.

enum class MKind { kFlat, kHier2, kHier4, kPrefix };

const char* to_string(MKind k) {
  switch (k) {
    case MKind::kFlat: return "flat";
    case MKind::kHier2: return "hier2";
    case MKind::kHier4: return "hier4";
    case MKind::kPrefix: return "prefix";
  }
  return "?";
}

ArbiterKind arbiter_kind(MKind k) {
  switch (k) {
    case MKind::kFlat: return ArbiterKind::kFlatFsm;
    case MKind::kHier2:
    case MKind::kHier4: return ArbiterKind::kHierarchical;
    case MKind::kPrefix: return ArbiterKind::kPrefix;
  }
  return ArbiterKind::kFlatFsm;
}

int arity_of(MKind k) { return k == MKind::kHier2 ? 2 : 4; }

/// The behavioral arbiter under test, driven through core::Arbiter alone.
std::unique_ptr<core::Arbiter> make_model(MKind kind, int n) {
  return core::make_scalable_arbiter(arbiter_kind(kind), n, arity_of(kind));
}

/// Grants of the last step, ports 0..63.
std::uint64_t grant_mask(const core::Arbiter& a) {
  return a.last_grant_words()[0];
}

/// The packed register.
std::vector<std::uint64_t> state_of(const core::Arbiter& a) {
  std::vector<std::uint64_t> words;
  a.read_state(words);
  return words;
}

/// The packed register (the model-check sizes fit one word).
std::uint64_t packed_state(const core::Arbiter& a) { return state_of(a)[0]; }

/// Exact waiting bound of `input` under continuous contention: the
/// composed per-leaf bound for the tree, N-1 for the flat and prefix kinds.
std::uint64_t waiting_bound(MKind kind, int n, int input) {
  if (arbiter_kind(kind) == ArbiterKind::kHierarchical)
    return core::make_hier_shape(n, arity_of(kind)).waiting_bound(input);
  return static_cast<std::uint64_t>(n - 1);
}

// ===================================================== exhaustive model check

struct MParam {
  MKind kind;
  int n;
};

void PrintTo(const MParam& p, std::ostream* os) {
  *os << to_string(p.kind) << "_n" << p.n;
}

/// One witness request sequence per reachable packed-register state
/// (breadth-first, every request vector tried from every discovered
/// state) — the same exhaustive walk tests/test_degrade.cpp runs over the
/// self-checking variants, generalized over the arbiter kind.
std::vector<std::vector<std::uint64_t>> reachable_witnesses(MKind kind,
                                                            int n) {
  std::map<std::uint64_t, std::vector<std::uint64_t>> seen;
  std::deque<std::vector<std::uint64_t>> work;
  {
    auto m = make_model(kind, n);
    seen.emplace(packed_state(*m), std::vector<std::uint64_t>{});
  }
  work.emplace_back();
  const std::uint64_t reqs = 1ull << n;
  while (!work.empty()) {
    const std::vector<std::uint64_t> w = work.front();
    work.pop_front();
    for (std::uint64_t req = 0; req < reqs; ++req) {
      auto m = make_model(kind, n);
      for (const std::uint64_t r : w) m->step(r);
      m->step(req);
      const std::uint64_t s = packed_state(*m);
      if (seen.count(s) != 0) continue;
      std::vector<std::uint64_t> w2 = w;
      w2.push_back(req);
      seen.emplace(s, w2);
      work.push_back(std::move(w2));
    }
  }
  std::vector<std::vector<std::uint64_t>> out;
  out.reserve(seen.size());
  for (const auto& [s, w] : seen) out.push_back(w);
  return out;
}

class ScalableModel : public ::testing::TestWithParam<MParam> {};

TEST_P(ScalableModel, EveryReachableStateKeepsMutualExclusion) {
  const auto [kind, n] = GetParam();
  const auto states = reachable_witnesses(kind, n);
  ASSERT_FALSE(states.empty());
  for (const auto& w : states) {
    for (std::uint64_t req = 0; req < (1ull << n); ++req) {
      auto m = make_model(kind, n);
      for (const std::uint64_t r : w) m->step(r);
      const int g = m->step(req);
      const std::uint64_t mask = grant_mask(*m);
      ASSERT_LE(std::popcount(mask), 1) << "mutual exclusion violated";
      ASSERT_EQ(mask & ~req, 0u) << "granted a non-requester";
      ASSERT_EQ(g >= 0 ? (1ull << g) : 0ull, mask);
      if (kind != MKind::kFlat) {
        // The scalable kinds are work-conserving: any request vector gets
        // a grant the same cycle (the flat FSM legitimately idles one
        // cycle on some release transitions).
        ASSERT_EQ(g >= 0, req != 0) << "request vector " << req;
      }
    }
  }
}

TEST_P(ScalableModel, WaitingIsBoundedFromEveryReachableState) {
  const auto [kind, n] = GetParam();
  const std::uint64_t all = (1ull << n) - 1;
  for (const auto& w : reachable_witnesses(kind, n)) {
    auto m = make_model(kind, n);
    for (const std::uint64_t r : w) m->step(r);
    // Continuous contention: every port requests, a grantee deasserts for
    // exactly one cycle after its grant and re-asserts.  Between two
    // consecutive grants of port i, at most bound(i) other grants may be
    // issued — the exact composed bound for the tree, N-1 for the rest.
    std::uint64_t req = all;
    std::vector<std::int64_t> others(static_cast<std::size_t>(n), -1);
    const int cycles = 32 * n + 64;
    for (int cyc = 0; cyc < cycles; ++cyc) {
      const int g = m->step(req);
      if (g >= 0) {
        const std::size_t gi = static_cast<std::size_t>(g);
        if (others[gi] >= 0) {
          ASSERT_LE(static_cast<std::uint64_t>(others[gi]),
                    waiting_bound(kind, n, g))
              << "port " << g << " waited past its bound at cycle " << cyc;
        }
        for (int i = 0; i < n; ++i)
          if (i != g && others[static_cast<std::size_t>(i)] >= 0)
            ++others[static_cast<std::size_t>(i)];
        others[gi] = 0;
      }
      req = all;
      if (g >= 0) req &= ~(1ull << g);
    }
    // Every port was served (no starvation) once the walk settled.
    for (int i = 0; i < n; ++i)
      ASSERT_GE(others[static_cast<std::size_t>(i)], 0)
          << "port " << i << " never granted";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Exhaustive, ScalableModel,
    ::testing::Values(MParam{MKind::kFlat, 1}, MParam{MKind::kFlat, 2},
                      MParam{MKind::kFlat, 3}, MParam{MKind::kFlat, 4},
                      MParam{MKind::kFlat, 5}, MParam{MKind::kFlat, 6},
                      MParam{MKind::kHier2, 1}, MParam{MKind::kHier2, 2},
                      MParam{MKind::kHier2, 3}, MParam{MKind::kHier2, 4},
                      MParam{MKind::kHier2, 5}, MParam{MKind::kHier2, 6},
                      MParam{MKind::kHier4, 1}, MParam{MKind::kHier4, 2},
                      MParam{MKind::kHier4, 3}, MParam{MKind::kHier4, 4},
                      MParam{MKind::kHier4, 5}, MParam{MKind::kHier4, 6},
                      MParam{MKind::kPrefix, 1}, MParam{MKind::kPrefix, 2},
                      MParam{MKind::kPrefix, 3}, MParam{MKind::kPrefix, 4},
                      MParam{MKind::kPrefix, 5}, MParam{MKind::kPrefix, 6}),
    [](const auto& pi) {
      return std::string(to_string(pi.param.kind)) + "_n" +
             std::to_string(pi.param.n);
    });

// ============================================ flat wide AIG == Fig. 5 chain

TEST(FlatWideAig, MatchesTheStructuralGeneratorBitForBit) {
  // build_flat_onehot_aig must compute the exact function of the Fig. 5
  // structural chain under one-hot codes — including on illegal
  // (multi-/zero-hot) state-register patterns, which the SEU lockstep
  // depends on.  64 random patterns per round x 64 rounds per size.
  for (int n = 2; n <= 6; ++n) {
    const synth::Fsm fsm = core::build_round_robin_fsm(n);
    const synth::StateCodes codes =
        synth::encode_states(fsm, synth::Encoding::kOneHot);
    ASSERT_EQ(codes.num_bits, 2 * n);
    const aig::Aig ref = core::build_round_robin_aig(n, codes);
    const aig::Aig wide = core::build_flat_onehot_aig(n);
    ASSERT_EQ(ref.num_inputs(), wide.num_inputs());
    ASSERT_EQ(ref.num_outputs(), wide.num_outputs());
    // Outputs match by name (ns<b>..., grant<i>...).
    std::map<std::string, std::size_t> ref_out;
    for (std::size_t o = 0; o < ref.num_outputs(); ++o)
      ref_out.emplace(ref.output_name(o), o);
    Rng rng(4242 + static_cast<std::uint64_t>(n));
    for (int round = 0; round < 64; ++round) {
      std::vector<std::uint64_t> patterns(ref.num_inputs());
      for (auto& p : patterns) p = rng.next_u64();
      const auto rv = ref.simulate(patterns);
      const auto wv = wide.simulate(patterns);
      auto eval = [](const std::vector<std::uint64_t>& values, aig::Lit l) {
        return values[aig::lit_node(l)] ^ (aig::lit_compl(l) ? ~0ull : 0ull);
      };
      for (std::size_t o = 0; o < wide.num_outputs(); ++o) {
        const auto it = ref_out.find(wide.output_name(o));
        ASSERT_NE(it, ref_out.end()) << wide.output_name(o);
        ASSERT_EQ(eval(rv, ref.output_driver(it->second)),
                  eval(wv, wide.output_driver(o)))
            << "output " << wide.output_name(o) << " diverged, n=" << n
            << " round " << round;
      }
    }
  }
}

// ============================================== behavioral/netlist lockstep

struct AigRecipe {
  aig::Aig comb;
  std::vector<bool> reset;
  int num_state_bits;
};

AigRecipe make_recipe(MKind kind, int n) {
  std::vector<bool> reset =
      core::scalable_reset_bits(arbiter_kind(kind), n, arity_of(kind));
  const int bits = static_cast<int>(reset.size());
  return {core::build_scalable_aig(arbiter_kind(kind), n, arity_of(kind)),
          std::move(reset), bits};
}

class ScalableLockstep : public ::testing::TestWithParam<MParam> {};

TEST_P(ScalableLockstep, NetlistMatchesBehavioralModelUnderUpsets) {
  const auto [kind, n] = GetParam();
  AigRecipe recipe = make_recipe(kind, n);
  ASSERT_EQ(make_model(kind, n)->num_state_bits(), recipe.num_state_bits);
  const synth::SynthResult syn = synth::finish_machine_synthesis(
      recipe.comb, n, recipe.num_state_bits, recipe.reset, {});

  netlist::Simulator sim(syn.netlist);
  auto beh = make_model(kind, n);
  // Resolve port names once — the cycle loop must not hash strings.
  std::vector<netlist::NetId> req_net, grant_net, state_net;
  for (int i = 0; i < n; ++i) {
    req_net.push_back(*syn.netlist.find_net("req" + std::to_string(i)));
    grant_net.push_back(*syn.netlist.find_net("grant" + std::to_string(i)));
  }
  for (int b = 0; b < recipe.num_state_bits; ++b)
    state_net.push_back(*syn.netlist.find_net("state" + std::to_string(b)));

  Rng rng(31000 + static_cast<std::uint64_t>(n) * 8 +
          static_cast<std::uint64_t>(kind));
  for (int cyc = 0; cyc < 900; ++cyc) {
    if (cyc % 37 == 17) {
      // Flip one state-register bit in both twins: the behavioral model
      // and the netlist must agree on every grant from the same illegal
      // state onward (zero-hot pointers, out-of-range held indices, ...).
      const int b = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(recipe.num_state_bits)));
      beh->flip_state_bit(b);
      const netlist::NetId net = state_net[static_cast<std::size_t>(b)];
      sim.poke_register(net, !sim.get(net));
    }
    const std::uint64_t req = rng.next_below(1ull << n);
    for (int i = 0; i < n; ++i)
      sim.set_input(req_net[static_cast<std::size_t>(i)],
                    ((req >> i) & 1) != 0);
    sim.settle();
    beh->step(req);
    const std::uint64_t mask = grant_mask(*beh);
    for (int i = 0; i < n; ++i)
      ASSERT_EQ(sim.get(grant_net[static_cast<std::size_t>(i)]),
                ((mask >> i) & 1) != 0)
          << to_string(kind) << " grant" << i << " diverged at cycle " << cyc;
    sim.clock();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScalableLockstep,
    ::testing::Values(MParam{MKind::kFlat, 2}, MParam{MKind::kFlat, 3},
                      MParam{MKind::kFlat, 4}, MParam{MKind::kFlat, 5},
                      MParam{MKind::kHier2, 2}, MParam{MKind::kHier2, 3},
                      MParam{MKind::kHier2, 4}, MParam{MKind::kHier2, 5},
                      MParam{MKind::kHier4, 3}, MParam{MKind::kHier4, 4},
                      MParam{MKind::kHier4, 5}, MParam{MKind::kPrefix, 2},
                      MParam{MKind::kPrefix, 3}, MParam{MKind::kPrefix, 4},
                      MParam{MKind::kPrefix, 5}),
    [](const auto& pi) {
      return std::string(to_string(pi.param.kind)) + "_n" +
             std::to_string(pi.param.n);
    });

// ================================================== pinned grant sequences

TEST(CrossKind, PinnedGrantSequencesAtN4) {
  // The three structures share the Fig. 8 contract but rotate in
  // legitimately different orders; these sequences pin each kind's exact
  // behavior on one fixed trace (hold, release, rotation, idle, restart).
  const std::vector<std::uint64_t> trace = {
      0b1111, 0b1111, 0b1110, 0b1010, 0b1010, 0b0101,
      0b0100, 0b0011, 0b0000, 0b1111, 0b1000, 0b0110,
  };
  // All kinds: hold 0 while it requests, release on deassert, idle on an
  // empty vector.  They differ exactly where the structures differ: the
  // flat FSM resumes its scan *past* the last holder after the idle
  // (grants 1), the binary tree ping-pongs to the other subtree on
  // release (grants 2 at step 2, 3 after the idle), and the prefix
  // pointer parks at the last grant so it re-grants 0 after the idle.
  const std::map<MKind, std::vector<int>> expected = {
      {MKind::kFlat, {0, 0, 1, 1, 1, 2, 2, 0, -1, 1, 3, 1}},
      {MKind::kHier2, {0, 0, 2, 1, 1, 2, 2, 0, -1, 3, 3, 1}},
      {MKind::kHier4, {0, 0, 1, 1, 1, 2, 2, 0, -1, 1, 3, 1}},
      {MKind::kPrefix, {0, 0, 1, 1, 1, 2, 2, 0, -1, 0, 3, 1}},
  };
  for (const auto& [kind, want] : expected) {
    auto m = make_model(kind, 4);
    std::vector<int> got;
    for (const std::uint64_t req : trace) got.push_back(m->step(req));
    EXPECT_EQ(got, want) << to_string(kind);
  }
}

// ======================================================== fuzzed wide runs

struct WideParam {
  ArbiterKind kind;
  int n;
  int arity;
};

// gtest names each case after the bytes of its parameter. Print them the
// way its default printer does, but with zeros for the padding: left as
// it is, the padding holds whatever the stack held, so the names changed
// from build to build and from run to run.
void PrintTo(const WideParam& p, std::ostream* os) {
  unsigned char bytes[sizeof(WideParam)] = {};
  std::memcpy(bytes + offsetof(WideParam, kind), &p.kind, sizeof p.kind);
  std::memcpy(bytes + offsetof(WideParam, n), &p.n, sizeof p.n);
  std::memcpy(bytes + offsetof(WideParam, arity), &p.arity, sizeof p.arity);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

class WideFuzz : public ::testing::TestWithParam<WideParam> {};

TEST_P(WideFuzz, OneHotGrantsAndNoStarvationOver1e5Cycles) {
  const auto [kind, n, arity] = GetParam();
  auto holder = core::make_scalable_arbiter(kind, n, arity);
  auto grant_words = [&]() -> const std::vector<std::uint64_t>& {
    return holder->last_grant_words();
  };
  const core::HierShape shape =
      core::make_hier_shape(n, kind == ArbiterKind::kHierarchical ? arity : 4);
  auto bound = [&](int i) {
    // The tree's composed per-leaf bound; the flat chain's and the prefix
    // arbiter's N - 1.
    return kind == ArbiterKind::kHierarchical
               ? shape.waiting_bound(i)
               : static_cast<std::uint64_t>(n - 1);
  };

  const std::size_t words = static_cast<std::size_t>((n + 63) / 64);
  const std::uint64_t top_mask =
      (n % 64 == 0) ? ~0ull : ((1ull << (n % 64)) - 1);
  std::vector<std::uint64_t> req(words, 0);
  Rng rng(777 + static_cast<std::uint64_t>(n) * 4 +
          static_cast<std::uint64_t>(arity));

  auto check_grant = [&](int g) {
    int pop = 0;
    for (const std::uint64_t w : grant_words()) pop += std::popcount(w);
    if (g < 0) {
      ASSERT_EQ(pop, 0);
      return;
    }
    ASSERT_LT(g, n);
    ASSERT_EQ(pop, 1) << "grant word vector not one-hot";
    const std::size_t wi = static_cast<std::size_t>(g) / 64;
    const std::uint64_t bit = 1ull << (static_cast<unsigned>(g) % 64u);
    ASSERT_NE(grant_words()[wi] & bit, 0u) << "grant bit/index mismatch";
    ASSERT_NE(req[wi] & bit, 0u) << "granted a non-requester";
  };

  // Fuzz phase: 2000 cycles of random request words to land in an
  // arbitrary (legal) internal state; only grant sanity is asserted.
  for (int cyc = 0; cyc < 2000; ++cyc) {
    for (std::size_t w = 0; w < words; ++w) req[w] = rng.next_u64();
    req[words - 1] &= top_mask;
    check_grant(holder->step(req));
  }

  // Starvation phase: continuous contention (deassert exactly one cycle
  // after the own grant).  Grants are issued every cycle, so the age of a
  // port at its grant is at most its waiting bound plus the one deassert
  // cycle — checked for 10^5 cycles from the fuzzed state.
  for (std::size_t w = 0; w < words; ++w) req[w] = ~0ull;
  req[words - 1] &= top_mask;
  std::vector<int> age(static_cast<std::size_t>(n), -1);
  int last_g = -1;
  for (int cyc = 0; cyc < 100'000; ++cyc) {
    const int g = holder->step(req);
    check_grant(g);
    ASSERT_GE(g, 0) << "no grant under full contention at cycle " << cyc;
    for (int i = 0; i < n; ++i)
      if (age[static_cast<std::size_t>(i)] >= 0)
        ++age[static_cast<std::size_t>(i)];
    const std::size_t gi = static_cast<std::size_t>(g);
    if (age[gi] > 0) {
      ASSERT_LE(static_cast<std::uint64_t>(age[gi]), bound(g) + 2)
          << "port " << g << " starved at cycle " << cyc;
    }
    age[gi] = 0;
    if (last_g >= 0)
      req[static_cast<std::size_t>(last_g) / 64] |=
          1ull << (static_cast<unsigned>(last_g) % 64u);
    req[gi / 64] &= ~(1ull << (static_cast<unsigned>(g) % 64u));
    last_g = g;
  }
  for (int i = 0; i < n; ++i)
    ASSERT_GE(age[static_cast<std::size_t>(i)], 0)
        << "port " << i << " never granted";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WideFuzz,
    ::testing::Values(WideParam{ArbiterKind::kHierarchical, 64, 4},
                      WideParam{ArbiterKind::kHierarchical, 256, 2},
                      WideParam{ArbiterKind::kPrefix, 64, 0},
                      WideParam{ArbiterKind::kPrefix, 256, 0},
                      WideParam{ArbiterKind::kFlatFsm, 128, 0},
                      WideParam{ArbiterKind::kFlatFsm, 256, 0}),
    [](const auto& pi) {
      return std::string(to_string(pi.param.kind)) + "_n" +
             std::to_string(pi.param.n) +
             (pi.param.arity > 0 ? "_a" + std::to_string(pi.param.arity)
                                 : "");
    });

// ============================== flat Fig. 5 arbiter == one-hot chain netlist

TEST(FlatRoundRobin, MatchesTheOneHotNetlistAcrossWordBoundaries) {
  // RoundRobinArbiter against the scalar-simulated netlist of
  // build_flat_onehot_aig at widths around the 64-bit word edges, with
  // SEU flips leaving the register zero- or multi-hot.  Every grant
  // wire must match, multi-grants included.
  for (const int n : {63, 64, 65, 127, 128, 129, 200}) {
    const int bits = 2 * n;
    const synth::SynthResult syn = synth::finish_machine_synthesis(
        core::build_flat_onehot_aig(n), n, bits,
        core::scalable_reset_bits(ArbiterKind::kFlatFsm, n), {});
    netlist::Simulator sim(syn.netlist);
    RoundRobinArbiter rr(n);
    std::vector<netlist::NetId> req_net, grant_net, state_net;
    for (int i = 0; i < n; ++i) {
      req_net.push_back(*syn.netlist.find_net("req" + std::to_string(i)));
      grant_net.push_back(*syn.netlist.find_net("grant" + std::to_string(i)));
    }
    for (int b = 0; b < bits; ++b)
      state_net.push_back(*syn.netlist.find_net("state" + std::to_string(b)));

    const std::size_t words = static_cast<std::size_t>((n + 63) / 64);
    std::vector<std::uint64_t> req(words, 0);
    Rng rng(9100 + static_cast<std::uint64_t>(n));
    for (int cyc = 0; cyc < 3000; ++cyc) {
      if (cyc % 400 == 399) {
        // Restart from F0 so a dead (zero-hot) register cannot end the
        // coverage early.
        rr.reset();
        sim.reset();
      }
      if (cyc % 29 == 11) {
        const int b = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(bits)));
        rr.flip_state_bit(b);
        const netlist::NetId net = state_net[static_cast<std::size_t>(b)];
        sim.poke_register(net, !sim.get(net));
      }
      // Idle vectors exercise the Ci -> F(i+1) retirement, sparse ones the
      // scan wrapping across words, dense ones contention.
      std::fill(req.begin(), req.end(), 0);
      if (cyc % 7 != 3 && cyc % 3 == 0) {
        for (int k = 0; k < 2; ++k) {
          const auto p = rng.next_below(static_cast<std::uint64_t>(n));
          req[p / 64] |= 1ull << (p % 64);
        }
      } else if (cyc % 7 != 3) {
        for (std::uint64_t& w : req) w = rng.next_u64();
      }
      if (n % 64 != 0) req[words - 1] &= (1ull << (n % 64)) - 1;

      for (int i = 0; i < n; ++i)
        sim.set_input(req_net[static_cast<std::size_t>(i)],
                      ((req[static_cast<std::size_t>(i) / 64] >> (i % 64)) &
                       1) != 0);
      sim.settle();
      const int g = rr.step(req);
      int lowest = -1;
      for (int i = 0; i < n; ++i) {
        const bool hw = sim.get(grant_net[static_cast<std::size_t>(i)]);
        const bool beh = ((rr.last_grant_words()[static_cast<std::size_t>(
                               i) / 64] >>
                           (i % 64)) &
                          1) != 0;
        ASSERT_EQ(hw, beh) << "n=" << n << " grant" << i << " cycle " << cyc;
        if (hw && lowest < 0) lowest = i;
      }
      ASSERT_EQ(g, lowest) << "n=" << n << " cycle " << cyc;
      sim.clock();
    }
  }
}

// ==================================================== wide observer routing

struct RecordingObserver final : core::ArbiterObserver {
  int calls = 0;
  std::vector<std::uint64_t> last_req;
  int last_grant = -2;
  void on_step(std::span<const std::uint64_t> requests, int grant) override {
    ++calls;
    last_req.assign(requests.begin(), requests.end());
    last_grant = grant;
  }
};

// Every kind, plain and replicated (the copies stay silent), and the
// word-width policies, as built for an n-port system.
std::vector<std::unique_ptr<core::Arbiter>> observed_arbiters(int n) {
  std::vector<core::SystemArbiterSpec> specs;
  for (const ArbiterKind kind :
       {ArbiterKind::kFlatFsm, ArbiterKind::kHierarchical,
        ArbiterKind::kPrefix})
    for (const core::CheckMode mode :
         {core::CheckMode::kNone, core::CheckMode::kDuplicate,
          core::CheckMode::kTmr})
      specs.push_back({.kind = kind, .self_check = mode});
  for (const core::Policy policy :
       {core::Policy::kFifo, core::Policy::kPriority, core::Policy::kRandom})
    specs.push_back({.policy = policy,
                     .kind = ArbiterKind::kFlatFsm,
                     .self_check = core::CheckMode::kNone});
  std::vector<std::unique_ptr<core::Arbiter>> arbiters;
  for (const core::SystemArbiterSpec& spec : specs)
    if (spec.policy == core::Policy::kRoundRobin || n <= 64)
      arbiters.push_back(core::make_system_arbiter(n, spec).arbiter);
  if (n <= 64)
    arbiters.push_back(std::make_unique<core::LfsrRandomArbiter>(n));
  return arbiters;
}

TEST(WideObserver, EveryEntryPointNotifiesExactlyOnce) {
  // One step, one hook call and matching grant words, through the vector
  // step at word and wide widths and through the one-word step where the
  // arbiter fits in it.
  for (const int n : {8, 64, 100}) {
    for (const auto& arb : observed_arbiters(n)) {
      const std::string what = arb->describe();
      RecordingObserver obs;
      arb->set_observer(&obs);
      std::vector<std::uint64_t> req(static_cast<std::size_t>((n + 63) / 64),
                                     0);
      core::set_bit(req, n - 1);
      EXPECT_EQ(arb->step(req), n - 1) << what;
      EXPECT_EQ(obs.calls, 1) << what;
      EXPECT_EQ(obs.last_grant, n - 1) << what;
      EXPECT_TRUE(core::test_bit(obs.last_req, n - 1)) << what;
      EXPECT_EQ(arb->last_grant_count(), 1) << what;
      EXPECT_TRUE(core::test_bit(arb->last_grant_words(), n - 1)) << what;
      std::fill(req.begin(), req.end(), 0);
      EXPECT_EQ(arb->step(req), -1) << what;
      EXPECT_EQ(obs.calls, 2) << what;
      EXPECT_EQ(obs.last_grant, -1) << what;
      EXPECT_EQ(arb->last_grant_count(), 0) << what;
      if (n <= 64) {
        EXPECT_EQ(arb->step(1ull << 3), 3) << what;
        EXPECT_EQ(obs.calls, 3) << what;
        EXPECT_EQ(obs.last_grant, 3) << what;
      }
    }
  }
}

TEST(WideObserver, BaseStepWideRejectsWidthsPast64) {
  // The one-word step() serves up to 64 ports and must refuse an arbiter
  // whose ports it cannot see, as must the vector step a request vector
  // narrower than the arbiter.  A refused step notifies nobody.
  for (const auto& arb : observed_arbiters(64))
    EXPECT_EQ(arb->step(1ull << 63), 63) << arb->describe();
  for (const int n : {65, 100}) {
    for (const auto& arb : observed_arbiters(n)) {
      const std::string what = arb->describe();
      RecordingObserver obs;
      arb->set_observer(&obs);
      EXPECT_THROW((void)arb->step(1ull << 3), CheckError) << what;
      EXPECT_THROW((void)arb->step(std::vector<std::uint64_t>{1}),
                   CheckError)
          << what << ": a request vector narrower than the arbiter";
      EXPECT_EQ(obs.calls, 0) << what;
    }
  }
}

// ================================================ kind selection + factory

TEST(ArbiterFactory, SelectionHonorsTheBudgetInAreaOrder) {
  // A floor every structure meets picks the cheapest candidate: the flat
  // chain at word widths, the tree past them (flat is never synthesized
  // there — its fmax decays ~1/N and could only lose).
  EXPECT_EQ(core::select_arbiter_kind(16, 1.0), ArbiterKind::kFlatFsm);
  EXPECT_EQ(core::select_arbiter_kind(128, 1.0), ArbiterKind::kHierarchical);
  // An unmeetable floor falls back to the fastest structure.
  const ArbiterKind fastest = core::select_arbiter_kind(64, 1e9);
  const double hier_fmax =
      core::generate_cached({.n = 64, .kind = ArbiterKind::kHierarchical})
          .chars.fmax_mhz;
  const double prefix_fmax =
      core::generate_cached({.n = 64, .kind = ArbiterKind::kPrefix})
          .chars.fmax_mhz;
  EXPECT_EQ(fastest, hier_fmax >= prefix_fmax ? ArbiterKind::kHierarchical
                                              : ArbiterKind::kPrefix);
  // A budget at the flat chain's own fmax keeps flat; just above loses it.
  const double flat_fmax =
      core::generate_cached({.n = 64, .kind = ArbiterKind::kFlatFsm})
          .chars.fmax_mhz;
  EXPECT_EQ(core::select_arbiter_kind(64, flat_fmax), ArbiterKind::kFlatFsm);
  EXPECT_NE(core::select_arbiter_kind(64, flat_fmax + 1.0),
            ArbiterKind::kFlatFsm);
  EXPECT_THROW((void)core::select_arbiter_kind(16, 0.0), CheckError);
  EXPECT_THROW((void)core::select_arbiter_kind(0, 1.0), CheckError);
}

TEST(ArbiterFactory, BuildsTheMatchingKindAtEveryWidth) {
  using core::SystemArbiterSpec;
  auto flat = core::make_system_arbiter(8, SystemArbiterSpec{});
  EXPECT_EQ(flat.kind, ArbiterKind::kFlatFsm);
  EXPECT_EQ(flat.arbiter->describe(), "round-robin(8)");
  EXPECT_EQ(flat.arbiter->num_state_bits(), 16);

  SystemArbiterSpec wide_spec;
  wide_spec.kind = ArbiterKind::kFlatFsm;
  auto wide = core::make_system_arbiter(128, wide_spec);
  EXPECT_EQ(wide.arbiter->num_state_bits(), 256)
      << "one flat class at every width";

  // The tree the flow prices: arity 4.
  SystemArbiterSpec hier_spec;
  hier_spec.kind = ArbiterKind::kHierarchical;
  auto hier = core::make_system_arbiter(96, hier_spec);
  EXPECT_EQ(hier.kind, ArbiterKind::kHierarchical);
  EXPECT_EQ(hier.arbiter->num_state_bits(),
            core::make_hier_shape(96, 4).num_state_bits());

  SystemArbiterSpec prefix_spec;
  prefix_spec.kind = ArbiterKind::kPrefix;
  auto prefix = core::make_system_arbiter(96, prefix_spec);
  EXPECT_EQ(prefix.kind, ArbiterKind::kPrefix);
  EXPECT_EQ(prefix.arbiter->num_state_bits(), 96);

  // Self-checking wraps every kind at every width: the register is the
  // copies' registers copy-major, a single corrupted copy trips the
  // comparator on the next step, and the resync clears it.
  for (const auto& [mode, copies] :
       {std::pair{core::CheckMode::kDuplicate, 2},
        std::pair{core::CheckMode::kTmr, 3}}) {
    for (const ArbiterKind kind :
         {ArbiterKind::kFlatFsm, ArbiterKind::kHierarchical,
          ArbiterKind::kPrefix}) {
      for (const int n : {48, 64, 65, 300}) {
        core::SystemArbiterSpec spec;
        spec.kind = kind;
        spec.self_check = mode;
        auto sys = core::make_system_arbiter(n, spec);
        core::Arbiter& arb = *sys.arbiter;
        const std::string what = std::string(core::to_string(mode)) + " " +
                                 core::to_string(kind) + " n=" +
                                 std::to_string(n);
        const int per_copy = core::make_scalable_arbiter(kind, n)
                                 ->num_state_bits();
        EXPECT_EQ(arb.num_state_bits(), copies * per_copy) << what;
        EXPECT_FALSE(arb.error());
        arb.flip_state_bit((copies - 1) * per_copy + 3);  // last copy
        const std::vector<std::uint64_t> req(
            static_cast<std::size_t>((n + 63) / 64), 0b101ull);
        (void)arb.step(req);
        EXPECT_TRUE(arb.error()) << what;
        EXPECT_GE(arb.error_cycles(), 1u);
        if (mode == core::CheckMode::kDuplicate) {
          EXPECT_EQ(arb.resyncs(), 1u) << "DMR reloads the reset code";
        }
        (void)arb.step(req);
        EXPECT_FALSE(arb.error()) << "copies reconverge within one step";
      }
    }
  }

  // Non-round-robin policies ignore the kind machinery entirely and have
  // no modelled register.
  core::SystemArbiterSpec fifo;
  fifo.policy = core::Policy::kFifo;
  fifo.kind = ArbiterKind::kPrefix;
  fifo.self_check = core::CheckMode::kTmr;
  const auto f = core::make_system_arbiter(8, fifo);
  ASSERT_NE(f.arbiter, nullptr);
  EXPECT_EQ(f.arbiter->describe(), "fifo(8)");
  EXPECT_EQ(f.arbiter->num_state_bits(), 0);
}

// ============================================== the state-register surface

const std::vector<ArbiterKind> kAllKinds = {
    ArbiterKind::kFlatFsm, ArbiterKind::kHierarchical, ArbiterKind::kPrefix};
const std::vector<core::CheckMode> kAllModes = {
    core::CheckMode::kNone, core::CheckMode::kDuplicate, core::CheckMode::kTmr};

/// The netlist the behavioral register models: the kind's generator,
/// replicated with the comparator / voter under DMR and TMR.
synth::SynthResult synthesize_arbiter(ArbiterKind kind, int n,
                                      core::CheckMode mode) {
  const aig::Aig plain = core::build_scalable_aig(kind, n);
  const std::vector<bool> reset = core::scalable_reset_bits(kind, n);
  if (mode == core::CheckMode::kNone)
    return synth::finish_machine_synthesis(
        plain, n, static_cast<int>(reset.size()), reset, {});
  std::vector<bool> bank;  // every copy resets alike, copy-major
  for (int c = 0; c < core::num_copies(mode); ++c)
    bank.insert(bank.end(), reset.begin(), reset.end());
  return synth::finish_machine_synthesis(
      core::build_self_checking_aig(plain, n, reset, mode), n,
      static_cast<int>(bank.size()), bank, {});
}

std::unique_ptr<core::Arbiter> make_arbiter_of(ArbiterKind kind, int n,
                                               core::CheckMode mode) {
  core::SystemArbiterSpec spec;
  spec.kind = kind;
  spec.self_check = mode;
  return core::make_system_arbiter(n, spec).arbiter;
}

TEST(StateRegister, WidthMatchesTheSynthesizedFlipFlops) {
  for (const ArbiterKind kind : kAllKinds)
    for (const core::CheckMode mode : kAllModes)
      for (const int n : {1, 3, 8, 17}) {
        const synth::SynthResult syn = synthesize_arbiter(kind, n, mode);
        EXPECT_EQ(static_cast<std::size_t>(
                      make_arbiter_of(kind, n, mode)->num_state_bits()),
                  syn.clb.ffs)
            << core::to_string(kind) << " " << core::to_string(mode)
            << " n=" << n;
      }
}

TEST(StateRegister, FlippingAnyBitTwiceRestoresTheRegister) {
  for (const ArbiterKind kind : kAllKinds)
    for (const core::CheckMode mode : kAllModes)
      for (const int n : {5, 64, 65, 130}) {
        auto arb = make_arbiter_of(kind, n, mode);
        const std::string what = std::string(core::to_string(kind)) + " " +
                                 core::to_string(mode) + " n=" +
                                 std::to_string(n);
        // Leave the reset state first, so set and clear bits both occur.
        std::vector<std::uint64_t> req(static_cast<std::size_t>((n + 63) / 64),
                                       0);
        req.back() = 1ull << ((n - 1) % 64);
        (void)arb->step(req);
        const std::vector<std::uint64_t> before = state_of(*arb);
        ASSERT_EQ(before.size(),
                  static_cast<std::size_t>((arb->num_state_bits() + 63) / 64))
            << what;
        for (int b = 0; b < arb->num_state_bits(); ++b) {
          arb->flip_state_bit(b);
          std::vector<std::uint64_t> flipped = state_of(*arb);
          flipped[static_cast<std::size_t>(b / 64)] ^= 1ull << (b % 64);
          ASSERT_EQ(flipped, before) << what << ": bit " << b
                                     << " did not flip alone";
          arb->flip_state_bit(b);
          ASSERT_EQ(state_of(*arb), before) << what << ": bit " << b;
        }
        EXPECT_THROW(arb->flip_state_bit(arb->num_state_bits()), CheckError);
        // load_state rewrites through the same flips.
        std::vector<std::uint64_t> zero(before.size(), 0);
        arb->load_state(zero);
        EXPECT_EQ(state_of(*arb), zero) << what;
        arb->load_state(before);
        EXPECT_EQ(state_of(*arb), before) << what;
      }
}

TEST(StateRegister, FreezeReassertsThePinnedRegisterEveryStep) {
  for (const ArbiterKind kind : kAllKinds) {
    const int n = 70;
    auto arb = make_arbiter_of(kind, n, core::CheckMode::kNone);
    const std::vector<std::uint64_t> all(2, ~0ull);
    (void)arb->step(all);
    arb->freeze();
    const std::vector<std::uint64_t> pinned = state_of(*arb);
    // Upsets, resets and the steps' own next states all last at most
    // until the next clock edge re-presents the pinned value.
    arb->flip_state_bit(1);
    arb->reset();
    for (int cyc = 0; cyc < 5; ++cyc) {
      (void)arb->step(cyc % 2 == 0 ? all
                                        : std::vector<std::uint64_t>(2, 0));
      arb->hold_frozen();
      ASSERT_EQ(state_of(*arb), pinned) << core::to_string(kind);
    }
    EXPECT_TRUE(arb->frozen());
    arb->thaw();
    EXPECT_FALSE(arb->frozen());
    arb->reset();
    EXPECT_EQ(state_of(*arb),
              state_of(*make_arbiter_of(kind, n, core::CheckMode::kNone)))
        << "thawed, reset clears the register again";
  }
}

struct ScLockParam {
  ArbiterKind kind;
  core::CheckMode mode;
  int n;
};

void PrintTo(const ScLockParam& p, std::ostream* os) {
  *os << core::to_string(p.kind) << "_" << core::to_string(p.mode) << "_n"
      << p.n;
}

class SelfCheckLockstep : public ::testing::TestWithParam<ScLockParam> {};

TEST_P(SelfCheckLockstep, NetlistMatchesTheWrapperUnderUpsets) {
  // SelfCheckingArbiter over copies of each kind against the replicated
  // netlist: every grant and the `error` net must agree, cycle for cycle,
  // through single-bit upsets in any copy.
  const auto [kind, mode, n] = GetParam();
  const synth::SynthResult syn = synthesize_arbiter(kind, n, mode);
  auto beh = make_arbiter_of(kind, n, mode);
  const int copies = core::num_copies(mode);
  const int per_copy = beh->num_state_bits() / copies;
  std::vector<netlist::NetId> req_net, grant_net, state_net;
  for (int i = 0; i < n; ++i) {
    req_net.push_back(*syn.netlist.find_net("req" + std::to_string(i)));
    grant_net.push_back(*syn.netlist.find_net("grant" + std::to_string(i)));
  }
  for (int c = 0; c < copies; ++c)
    for (int b = 0; b < per_copy; ++b) {
      std::string name;
      if (c != 0) name.append("c").append(std::to_string(c)).append("_");
      name.append("state").append(std::to_string(b));
      state_net.push_back(*syn.netlist.find_net(name));
    }
  const netlist::NetId error_net = *syn.netlist.find_net("error");
  netlist::Simulator sim(syn.netlist);
  Rng rng(52000 + static_cast<std::uint64_t>(n) * 16 +
          static_cast<std::uint64_t>(kind) * 4 +
          static_cast<std::uint64_t>(mode));
  for (int cyc = 0; cyc < 900; ++cyc) {
    if (cyc % 23 == 7) {
      const int b = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(beh->num_state_bits())));
      beh->flip_state_bit(b);
      const netlist::NetId net = state_net[static_cast<std::size_t>(b)];
      sim.poke_register(net, !sim.get(net));
    }
    const std::uint64_t req = rng.next_below(1ull << n);
    for (int i = 0; i < n; ++i)
      sim.set_input(req_net[static_cast<std::size_t>(i)],
                    ((req >> i) & 1) != 0);
    sim.settle();
    (void)beh->step(req);
    for (int i = 0; i < n; ++i)
      ASSERT_EQ(sim.get(grant_net[static_cast<std::size_t>(i)]),
                ((grant_mask(*beh) >> i) & 1) != 0)
          << "grant" << i << " diverged at cycle " << cyc;
    ASSERT_EQ(sim.get(error_net), beh->error())
        << "`error` diverged at cycle " << cyc;
    sim.clock();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SelfCheckLockstep,
    ::testing::Values(
        ScLockParam{ArbiterKind::kFlatFsm, core::CheckMode::kDuplicate, 5},
        ScLockParam{ArbiterKind::kFlatFsm, core::CheckMode::kTmr, 5},
        ScLockParam{ArbiterKind::kHierarchical, core::CheckMode::kDuplicate, 3},
        ScLockParam{ArbiterKind::kHierarchical, core::CheckMode::kDuplicate, 7},
        ScLockParam{ArbiterKind::kHierarchical, core::CheckMode::kTmr, 3},
        ScLockParam{ArbiterKind::kHierarchical, core::CheckMode::kTmr, 7},
        ScLockParam{ArbiterKind::kPrefix, core::CheckMode::kDuplicate, 3},
        ScLockParam{ArbiterKind::kPrefix, core::CheckMode::kDuplicate, 7},
        ScLockParam{ArbiterKind::kPrefix, core::CheckMode::kTmr, 3},
        ScLockParam{ArbiterKind::kPrefix, core::CheckMode::kTmr, 7}),
    [](const auto& pi) {
      return std::string(core::to_string(pi.param.kind)) + "_" +
             core::to_string(pi.param.mode) + "_n" +
             std::to_string(pi.param.n);
    });

// ======================================================== synthesis sanity

TEST(ScalableSynthesis, RegisterCountsMatchTheStructures) {
  const auto& flat = core::generate_cached({.n = 16});
  const auto& hier =
      core::generate_cached({.n = 16, .kind = ArbiterKind::kHierarchical});
  const auto& prefix =
      core::generate_cached({.n = 16, .kind = ArbiterKind::kPrefix});
  EXPECT_EQ(flat.chars.ffs, 32u);  // 2N one-hot Fi/Ci bits
  EXPECT_EQ(hier.chars.ffs, static_cast<std::size_t>(
                                core::make_hier_shape(16, 4).num_state_bits()));
  EXPECT_EQ(prefix.chars.ffs, 16u);  // N-bit one-hot pointer
  for (const auto* g : {&flat, &hier, &prefix}) {
    EXPECT_GT(g->chars.fmax_mhz, 0.0);
    EXPECT_GT(g->chars.clbs, 0u);
    EXPECT_EQ(g->chars.n, 16);
  }
}

TEST(ScalableSynthesis, HierarchyBeatsTheFlatChainAtN64) {
  const auto& flat = core::generate_cached({.n = 64});
  const auto& hier =
      core::generate_cached({.n = 64, .kind = ArbiterKind::kHierarchical});
  const auto& prefix =
      core::generate_cached({.n = 64, .kind = ArbiterKind::kPrefix});
  // The ISSUE headline: the flat chain's O(N) scan caps its fmax, the
  // tree overtakes it from N = 64 (bench_arbiter_scaling sweeps further).
  EXPECT_GT(hier.chars.fmax_mhz, flat.chars.fmax_mhz);
  EXPECT_GT(prefix.chars.fmax_mhz, flat.chars.fmax_mhz);
  EXPECT_LT(hier.chars.lut_depth, flat.chars.lut_depth);
}

}  // namespace
}  // namespace rcarb
