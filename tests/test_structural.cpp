#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <ostream>

#include "bdd/bdd.hpp"
#include "core/policy.hpp"
#include "core/rr_fsm.hpp"
#include "core/structural.hpp"
#include "netlist/simulator.hpp"
#include "support/rng.hpp"
#include "synth/flow.hpp"

namespace rcarb::core {
namespace {

struct StructParam {
  int n;
  synth::Encoding encoding;
};

// gtest names each case after the bytes of its parameter. Print them the
// way its default printer does, but with zeros for the padding: left as
// it is, the padding holds whatever the stack held, so the names changed
// from build to build and from run to run.
void PrintTo(const StructParam& p, std::ostream* os) {
  unsigned char bytes[sizeof(StructParam)] = {};
  std::memcpy(bytes + offsetof(StructParam, n), &p.n, sizeof p.n);
  std::memcpy(bytes + offsetof(StructParam, encoding),
             &p.encoding, sizeof p.encoding);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

class StructuralEquivalence : public ::testing::TestWithParam<StructParam> {};

TEST_P(StructuralEquivalence, MappedNetlistMatchesBehavioralModel) {
  const auto [n, encoding] = GetParam();
  const synth::Fsm fsm = build_round_robin_fsm(n);
  const synth::StateCodes codes = synth::encode_states(fsm, encoding);
  const aig::Aig comb = build_round_robin_aig(n, codes);
  const synth::SynthResult result = synth::finish_machine_synthesis(
      comb, n, codes.num_bits, codes.code[fsm.reset_state()], {});

  netlist::Simulator sim(result.netlist);
  RoundRobinArbiter beh(n);
  // Resolve port names once — the cycle loop must not hash strings.
  std::vector<netlist::NetId> req_net, grant_net;
  for (int i = 0; i < n; ++i) {
    req_net.push_back(*result.netlist.find_net("req" + std::to_string(i)));
    grant_net.push_back(
        *result.netlist.find_net("grant" + std::to_string(i)));
  }
  Rng rng(31337 + static_cast<std::uint64_t>(n));
  for (int cyc = 0; cyc < 2000; ++cyc) {
    const std::uint64_t req = rng.next_below(1ull << n);
    for (int i = 0; i < n; ++i)
      sim.set_input(req_net[static_cast<std::size_t>(i)], (req >> i) & 1);
    sim.settle();
    int got = -1;
    for (int i = 0; i < n; ++i) {
      if (sim.get(grant_net[static_cast<std::size_t>(i)])) {
        ASSERT_EQ(got, -1) << "double grant (mutual exclusion violated)";
        got = i;
      }
    }
    EXPECT_EQ(got, beh.step(req)) << "cycle " << cyc;
    sim.clock();
  }
  EXPECT_EQ(sim.name_lookups(), 0u)
      << "a name lookup slipped into the cycle loop";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StructuralEquivalence,
    ::testing::Values(StructParam{2, synth::Encoding::kOneHot},
                      StructParam{3, synth::Encoding::kOneHot},
                      StructParam{4, synth::Encoding::kOneHot},
                      StructParam{6, synth::Encoding::kOneHot},
                      StructParam{10, synth::Encoding::kOneHot},
                      StructParam{2, synth::Encoding::kCompact},
                      StructParam{3, synth::Encoding::kCompact},
                      StructParam{5, synth::Encoding::kCompact},
                      StructParam{8, synth::Encoding::kCompact},
                      StructParam{3, synth::Encoding::kGray},
                      StructParam{6, synth::Encoding::kGray}));

TEST(Structural, FormallyEquivalentToTwoLevelSynthesisOneHot) {
  // BDD equivalence of the structural AIG against the elaborated covers
  // for every grant output (same encoding, same variable order).
  const int n = 4;
  const synth::Fsm fsm = build_round_robin_fsm(n);
  const synth::StateCodes codes =
      synth::encode_states(fsm, synth::Encoding::kOneHot);
  const aig::Aig comb = build_round_robin_aig(n, codes);
  const synth::ElaboratedFsm elab = synth::elaborate(fsm, codes);

  const int nvars = elab.num_vars();
  bdd::Manager m(nvars);

  // Structural AIG outputs as BDDs: inputs and state bits share var order.
  std::vector<bdd::Ref> node_bdd(comb.num_nodes(), bdd::kFalse);
  for (std::uint32_t node = 1; node < comb.num_nodes(); ++node) {
    if (comb.is_input(node)) {
      node_bdd[node] = m.var(static_cast<int>(comb.input_ordinal(node)));
    } else {
      const auto f0 = comb.fanin0(node);
      const auto f1 = comb.fanin1(node);
      bdd::Ref a = node_bdd[aig::lit_node(f0)];
      if (aig::lit_compl(f0)) a = m.lnot(a);
      bdd::Ref b = node_bdd[aig::lit_node(f1)];
      if (aig::lit_compl(f1)) b = m.lnot(b);
      node_bdd[node] = m.land(a, b);
    }
  }
  auto output_bdd = [&](std::size_t o) {
    const auto d = comb.output_driver(o);
    bdd::Ref r = node_bdd[aig::lit_node(d)];
    return aig::lit_compl(d) ? m.lnot(r) : r;
  };

  // Valid-state constraint: exactly one of the 2n one-hot bits set.
  bdd::Ref valid = bdd::kFalse;
  for (std::size_t s = 0; s < 2 * static_cast<std::size_t>(n); ++s) {
    bdd::Ref exactly = bdd::kTrue;
    for (std::size_t u = 0; u < 2 * static_cast<std::size_t>(n); ++u) {
      const bdd::Ref bit = m.var(n + static_cast<int>(u));
      exactly = m.land(exactly, u == s ? bit : m.lnot(bit));
    }
    valid = m.lor(valid, exactly);
  }

  // Under valid states, grants must match the two-level covers.
  for (int o = 0; o < n; ++o) {
    const bdd::Ref structural =
        output_bdd(static_cast<std::size_t>(codes.num_bits) +
                   static_cast<std::size_t>(o));
    const bdd::Ref two_level =
        m.from_cover(elab.outputs[static_cast<std::size_t>(o)]);
    const bdd::Ref diff = m.land(valid, m.lxor(structural, two_level));
    EXPECT_EQ(diff, bdd::kFalse) << "grant" << o << " differs on a valid state";
  }
}

TEST(Structural, AigSizeIsLinearInN) {
  const synth::Fsm f4 = build_round_robin_fsm(4);
  const synth::Fsm f16 = build_round_robin_fsm(16);
  const auto a4 = build_round_robin_aig(
      4, synth::encode_states(f4, synth::Encoding::kOneHot));
  const auto a16 = build_round_robin_aig(
      16, synth::encode_states(f16, synth::Encoding::kOneHot));
  // Linear growth: 4x the ports must cost clearly less than 8x the ANDs.
  EXPECT_LT(a16.num_ands(), 8 * a4.num_ands());
}

}  // namespace
}  // namespace rcarb::core
