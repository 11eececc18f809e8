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
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/arbiter_factory.hpp"
#include "core/generator.hpp"
#include "core/hier.hpp"
#include "core/policy.hpp"
#include "core/rr_fsm.hpp"
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

class Model {
 public:
  virtual ~Model() = default;
  virtual int step(std::uint64_t req) = 0;
  [[nodiscard]] virtual std::uint64_t grant_mask() const = 0;
  [[nodiscard]] virtual std::uint64_t state() const = 0;
  [[nodiscard]] virtual int num_state_bits() const = 0;
  virtual void inject(int bit) = 0;
  [[nodiscard]] virtual std::uint64_t bound(int input) const = 0;
};

class FlatModel final : public Model {
 public:
  explicit FlatModel(int n) : arb_(n), n_(n) {}
  int step(std::uint64_t req) override { return arb_.step(req); }
  [[nodiscard]] std::uint64_t grant_mask() const override {
    return arb_.last_grant_mask();
  }
  [[nodiscard]] std::uint64_t state() const override {
    return arb_.state_bits();
  }
  [[nodiscard]] int num_state_bits() const override { return 2 * n_; }
  void inject(int bit) override { arb_.inject_bit_flip(bit); }
  [[nodiscard]] std::uint64_t bound(int) const override {
    return static_cast<std::uint64_t>(n_ - 1);
  }

 private:
  RoundRobinArbiter arb_;
  int n_;
};

class HierModel final : public Model {
 public:
  HierModel(int n, int arity) : arb_(n, arity) {}
  int step(std::uint64_t req) override { return arb_.step(req); }
  [[nodiscard]] std::uint64_t grant_mask() const override {
    return arb_.last_grant_words()[0];
  }
  [[nodiscard]] std::uint64_t state() const override {
    return arb_.state_bits();
  }
  [[nodiscard]] int num_state_bits() const override {
    return arb_.num_state_bits();
  }
  void inject(int bit) override { arb_.inject_state_bit(bit); }
  [[nodiscard]] std::uint64_t bound(int input) const override {
    return arb_.waiting_bound(input);
  }

 private:
  HierarchicalArbiter arb_;
};

class PrefixModel final : public Model {
 public:
  explicit PrefixModel(int n) : arb_(n) {}
  int step(std::uint64_t req) override { return arb_.step(req); }
  [[nodiscard]] std::uint64_t grant_mask() const override {
    return arb_.last_grant_words()[0];
  }
  [[nodiscard]] std::uint64_t state() const override {
    return arb_.state_bits();
  }
  [[nodiscard]] int num_state_bits() const override {
    return arb_.num_state_bits();
  }
  void inject(int bit) override { arb_.inject_state_bit(bit); }
  [[nodiscard]] std::uint64_t bound(int input) const override {
    return arb_.waiting_bound(input);
  }

 private:
  PrefixArbiter arb_;
};

std::unique_ptr<Model> make_model(MKind kind, int n) {
  switch (kind) {
    case MKind::kFlat: return std::make_unique<FlatModel>(n);
    case MKind::kHier2: return std::make_unique<HierModel>(n, 2);
    case MKind::kHier4: return std::make_unique<HierModel>(n, 4);
    case MKind::kPrefix: return std::make_unique<PrefixModel>(n);
  }
  return nullptr;
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
    seen.emplace(m->state(), std::vector<std::uint64_t>{});
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
      const std::uint64_t s = m->state();
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
      const std::uint64_t mask = m->grant_mask();
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
          ASSERT_LE(static_cast<std::uint64_t>(others[gi]), m->bound(g))
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
  switch (kind) {
    case MKind::kFlat:
      return {core::build_flat_onehot_aig(n),
              core::scalable_reset_bits(ArbiterKind::kFlatFsm, n), 2 * n};
    case MKind::kHier2:
      return {core::build_hierarchical_aig(n, 2),
              core::scalable_reset_bits(ArbiterKind::kHierarchical, n, 2),
              core::make_hier_shape(n, 2).num_state_bits()};
    case MKind::kHier4:
      return {core::build_hierarchical_aig(n, 4),
              core::scalable_reset_bits(ArbiterKind::kHierarchical, n, 4),
              core::make_hier_shape(n, 4).num_state_bits()};
    case MKind::kPrefix:
      return {core::build_prefix_aig(n),
              core::scalable_reset_bits(ArbiterKind::kPrefix, n), n};
  }
  return {aig::Aig{}, {}, 0};
}

class ScalableLockstep : public ::testing::TestWithParam<MParam> {};

TEST_P(ScalableLockstep, NetlistMatchesBehavioralModelUnderUpsets) {
  const auto [kind, n] = GetParam();
  AigRecipe recipe = make_recipe(kind, n);
  ASSERT_EQ(recipe.reset.size(),
            static_cast<std::size_t>(recipe.num_state_bits));
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
      beh->inject(b);
      const netlist::NetId net = state_net[static_cast<std::size_t>(b)];
      sim.poke_register(net, !sim.get(net));
    }
    const std::uint64_t req = rng.next_below(1ull << n);
    for (int i = 0; i < n; ++i)
      sim.set_input(req_net[static_cast<std::size_t>(i)],
                    ((req >> i) & 1) != 0);
    sim.settle();
    beh->step(req);
    const std::uint64_t mask = beh->grant_mask();
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

class WideFuzz : public ::testing::TestWithParam<WideParam> {};

TEST_P(WideFuzz, OneHotGrantsAndNoStarvationOver1e5Cycles) {
  const auto [kind, n, arity] = GetParam();
  auto holder = core::make_scalable_arbiter(kind, n, arity);
  // Access the wide surface through the concrete types.
  auto* hier = dynamic_cast<HierarchicalArbiter*>(holder.get());
  auto* prefix = dynamic_cast<PrefixArbiter*>(holder.get());
  auto* flat = dynamic_cast<RoundRobinArbiter*>(holder.get());
  ASSERT_TRUE(hier != nullptr || prefix != nullptr || flat != nullptr);
  auto step_wide = [&](const std::vector<std::uint64_t>& req) {
    return holder->step_wide(req);
  };
  auto grant_words = [&]() -> const std::vector<std::uint64_t>& {
    if (hier != nullptr) return hier->last_grant_words();
    if (prefix != nullptr) return prefix->last_grant_words();
    return flat->last_grant_words();
  };
  auto bound = [&](int i) {
    if (hier != nullptr) return hier->waiting_bound(i);
    if (prefix != nullptr) return prefix->waiting_bound(i);
    return static_cast<std::uint64_t>(n - 1);  // the flat chain's N - 1
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
    check_grant(step_wide(req));
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
    const int g = step_wide(req);
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
  // build_flat_onehot_aig at widths around the 64-bit word edges, through
  // the word entry (step: ports 0..63) and the vector entry (step_wide),
  // with SEU flips leaving the register zero- or multi-hot.  Every grant
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
        rr.inject_bit_flip(b);
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
      const bool word_entry = cyc % 2 == 0;
      if (word_entry) std::fill(req.begin() + 1, req.end(), 0);
      if (n % 64 != 0) req[words - 1] &= (1ull << (n % 64)) - 1;

      for (int i = 0; i < n; ++i)
        sim.set_input(req_net[static_cast<std::size_t>(i)],
                      ((req[static_cast<std::size_t>(i) / 64] >> (i % 64)) &
                       1) != 0);
      sim.settle();
      const int g = word_entry ? rr.step(req[0]) : rr.step_wide(req);
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
  int word_calls = 0;
  int wide_calls = 0;
  std::vector<std::uint64_t> last_req;
  int last_grant = -2;
  void on_step(std::uint64_t requests, int grant) override {
    ++word_calls;
    last_req = {requests};
    last_grant = grant;
  }
  void on_step_wide(const std::vector<std::uint64_t>& requests,
                    int grant) override {
    ++wide_calls;
    last_req = requests;
    last_grant = grant;
  }
};

TEST(WideObserver, EveryEntryPointNotifiesExactlyOnce) {
  // Wide arbiters notify through on_step_wide from both entry points;
  // word-width arbiters driven through the base step_wide still notify
  // through on_step.  No path may notify twice per cycle.
  core::PrefixArbiter wide(100);
  RecordingObserver obs;
  wide.set_observer(&obs);
  std::vector<std::uint64_t> req = {0, 1ull << 8};  // port 72 only
  EXPECT_EQ(wide.step_wide(req), 72);
  EXPECT_EQ(obs.wide_calls, 1);
  EXPECT_EQ(obs.word_calls, 0);
  EXPECT_EQ(obs.last_req, req);
  EXPECT_EQ(obs.last_grant, 72);
  // The word entry covers ports 0..63 of a wide arbiter and notifies
  // through the word hook (obs::ArbiterProbe forwards it to the wide one).
  EXPECT_EQ(wide.step(1ull << 5), 5);
  EXPECT_EQ(obs.wide_calls, 1);
  EXPECT_EQ(obs.word_calls, 1);
  EXPECT_EQ(obs.last_grant, 5);

  RoundRobinArbiter narrow(8);
  RecordingObserver nobs;
  narrow.set_observer(&nobs);
  EXPECT_EQ(narrow.step_wide({0b100}), 2);
  EXPECT_EQ(nobs.word_calls, 1);
  EXPECT_EQ(nobs.wide_calls, 0);
  EXPECT_EQ(nobs.last_grant, 2);
}

TEST(WideObserver, BaseStepWideRejectsWidthsPast64) {
  // A word-width arbiter must refuse vector requests it cannot see.
  RoundRobinArbiter narrow(64);
  EXPECT_EQ(narrow.step_wide({1ull << 63}), 63);
  class WordOnly final : public core::Arbiter {
   public:
    explicit WordOnly(int n) : Arbiter(WideTag{}, n) {}
    void reset() override {}
    [[nodiscard]] std::string describe() const override { return "word"; }

   protected:
    int do_step(std::uint64_t) override { return -1; }
  };
  WordOnly bad(100);
  EXPECT_THROW((void)bad.step_wide({1, 1}), CheckError);
}

// ================================================ kind selection + factory

TEST(ArbiterFactory, SelectionHonorsTheBudgetInAreaOrder) {
  using core::ArbiterChoice;
  // A floor every structure meets picks the cheapest candidate: the flat
  // chain at word widths, the tree past them (flat is never synthesized
  // there — its fmax decays ~1/N and could only lose).
  EXPECT_EQ(core::select_arbiter_kind(16, 1.0), ArbiterKind::kFlatFsm);
  EXPECT_EQ(core::select_arbiter_kind(128, 1.0), ArbiterKind::kHierarchical);
  // An unmeetable floor falls back to the fastest structure.
  const ArbiterKind fastest = core::select_arbiter_kind(64, 1e9);
  const double hier_fmax =
      core::generate_scalable_cached(ArbiterKind::kHierarchical, 64, 4)
          .chars.fmax_mhz;
  const double prefix_fmax =
      core::generate_scalable_cached(ArbiterKind::kPrefix, 64)
          .chars.fmax_mhz;
  EXPECT_EQ(fastest, hier_fmax >= prefix_fmax ? ArbiterKind::kHierarchical
                                              : ArbiterKind::kPrefix);
  // A budget at the flat chain's own fmax keeps flat; just above loses it.
  const double flat_fmax =
      core::generate_scalable_cached(ArbiterKind::kFlatFsm, 64)
          .chars.fmax_mhz;
  EXPECT_EQ(core::select_arbiter_kind(64, flat_fmax), ArbiterKind::kFlatFsm);
  EXPECT_NE(core::select_arbiter_kind(64, flat_fmax + 1.0),
            ArbiterKind::kFlatFsm);
  EXPECT_THROW((void)core::select_arbiter_kind(16, 0.0), CheckError);
  EXPECT_THROW((void)core::select_arbiter_kind(0, 1.0), CheckError);

  EXPECT_EQ(core::resolve_arbiter_choice(ArbiterChoice::kPrefix, 16, 0.0),
            ArbiterKind::kPrefix);
  EXPECT_EQ(core::resolve_arbiter_choice(ArbiterChoice::kAuto, 16, 1.0),
            ArbiterKind::kFlatFsm);
  EXPECT_THROW(
      (void)core::resolve_arbiter_choice(ArbiterChoice::kAuto, 16, 0.0),
      CheckError);
}

TEST(ArbiterFactory, BuildsTheMatchingSubclassWithTypedViews) {
  using core::SystemArbiterSpec;
  auto flat = core::make_system_arbiter(8, SystemArbiterSpec{});
  ASSERT_NE(flat.rr, nullptr);
  EXPECT_EQ(flat.rr, flat.arbiter.get());
  EXPECT_EQ(flat.kind, ArbiterKind::kFlatFsm);

  SystemArbiterSpec wide_spec;
  wide_spec.kind = ArbiterKind::kFlatFsm;
  auto wide = core::make_system_arbiter(128, wide_spec);
  ASSERT_NE(wide.rr, nullptr) << "one flat class at every width";
  EXPECT_EQ(wide.rr, wide.arbiter.get());

  SystemArbiterSpec hier_spec;
  hier_spec.kind = ArbiterKind::kHierarchical;
  hier_spec.arity = 2;
  auto hier = core::make_system_arbiter(96, hier_spec);
  ASSERT_NE(hier.hier, nullptr);
  EXPECT_EQ(hier.kind, ArbiterKind::kHierarchical);

  SystemArbiterSpec prefix_spec;
  prefix_spec.kind = ArbiterKind::kPrefix;
  auto prefix = core::make_system_arbiter(96, prefix_spec);
  ASSERT_NE(prefix.prefix, nullptr);

  core::SystemArbiterSpec dmr;
  dmr.self_check = core::CheckMode::kDuplicate;
  ASSERT_NE(core::make_system_arbiter(8, dmr).sc, nullptr);
  dmr.kind = ArbiterKind::kPrefix;
  EXPECT_THROW((void)core::make_system_arbiter(8, dmr), CheckError)
      << "self-checking is flat-only";

  // The self-checking service path covers the full word width: one F/C
  // state *word* pair per copy past 32 ports, same factory entry point the
  // fault-tolerant service uses.
  for (const auto& [mode, copies] :
       {std::pair{core::CheckMode::kDuplicate, 2},
        std::pair{core::CheckMode::kTmr, 3}}) {
    for (const int n : {48, 64}) {
      core::SystemArbiterSpec spec;
      spec.self_check = mode;
      auto sys = core::make_system_arbiter(n, spec);
      ASSERT_NE(sys.sc, nullptr) << core::to_string(mode) << " n=" << n;
      EXPECT_EQ(sys.sc, sys.arbiter.get());
      EXPECT_EQ(sys.rr, nullptr) << "typed views are exclusive";
      EXPECT_EQ(sys.sc->num_copies(), copies);
      // Error-net side view: a single corrupted copy trips the comparator
      // on the next step and the resync clears it.
      EXPECT_FALSE(sys.sc->error());
      sys.sc->inject_bit_flip(copies - 1, 3);  // second F-word token bit
      (void)sys.sc->step(0b101ull);
      EXPECT_TRUE(sys.sc->error()) << core::to_string(mode) << " n=" << n;
      EXPECT_GE(sys.sc->error_cycles(), 1u);
      if (mode == core::CheckMode::kDuplicate) {
        EXPECT_EQ(sys.sc->resyncs(), 1u) << "DMR reloads the reset code";
      }
      (void)sys.sc->step(0b101ull);
      EXPECT_FALSE(sys.sc->error()) << "copies reconverge within one step";
    }
  }
  // Past the word width there is no per-copy state-word model: refuse.
  core::SystemArbiterSpec sc65;
  sc65.self_check = core::CheckMode::kTmr;
  EXPECT_THROW((void)core::make_system_arbiter(65, sc65), CheckError);
  // ... and the other scalable structures stay un-replicable too.
  core::SystemArbiterSpec sc_hier;
  sc_hier.self_check = core::CheckMode::kDuplicate;
  sc_hier.kind = ArbiterKind::kHierarchical;
  EXPECT_THROW((void)core::make_system_arbiter(16, sc_hier), CheckError);

  // rr preemption/hardening carry to every width: at 128 ports a holder
  // of port 5 is preempted for port 100 after max_hold_cycles grants.
  core::SystemArbiterSpec held;
  held.rr.max_hold_cycles = 4;
  ASSERT_NE(core::make_system_arbiter(8, held).rr, nullptr);
  auto held128 = core::make_system_arbiter(128, held);
  ASSERT_NE(held128.rr, nullptr);
  const std::vector<std::uint64_t> two = {1ull << 5, 1ull << (100 - 64)};
  std::vector<int> grants;
  for (int cyc = 0; cyc < 6; ++cyc)
    grants.push_back(held128.arbiter->step_wide(two));
  EXPECT_EQ(grants, (std::vector<int>{5, 5, 5, 5, 100, 100}));

  // Non-round-robin policies ignore the kind machinery entirely.
  core::SystemArbiterSpec fifo;
  fifo.policy = core::Policy::kFifo;
  fifo.kind = ArbiterKind::kPrefix;
  const auto f = core::make_system_arbiter(8, fifo);
  EXPECT_EQ(f.rr, nullptr);
  EXPECT_EQ(f.prefix, nullptr);
  EXPECT_NE(f.arbiter, nullptr);
}

// ======================================================== synthesis sanity

TEST(ScalableSynthesis, RegisterCountsMatchTheStructures) {
  const auto& flat = core::generate_scalable_cached(ArbiterKind::kFlatFsm, 16);
  const auto& hier =
      core::generate_scalable_cached(ArbiterKind::kHierarchical, 16, 4);
  const auto& prefix = core::generate_scalable_cached(ArbiterKind::kPrefix, 16);
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
  const auto& flat = core::generate_scalable_cached(ArbiterKind::kFlatFsm, 64);
  const auto& hier =
      core::generate_scalable_cached(ArbiterKind::kHierarchical, 64, 4);
  const auto& prefix = core::generate_scalable_cached(ArbiterKind::kPrefix, 64);
  // The ISSUE headline: the flat chain's O(N) scan caps its fmax, the
  // tree overtakes it from N = 64 (bench_arbiter_scaling sweeps further).
  EXPECT_GT(hier.chars.fmax_mhz, flat.chars.fmax_mhz);
  EXPECT_GT(prefix.chars.fmax_mhz, flat.chars.fmax_mhz);
  EXPECT_LT(hier.chars.lut_depth, flat.chars.lut_depth);
}

}  // namespace
}  // namespace rcarb
