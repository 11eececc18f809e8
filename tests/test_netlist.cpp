#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "core/hier.hpp"
#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace rcarb::netlist {
namespace {

TEST(Netlist, BuildAndQuery) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId f = nl.add_lut({a, b}, 0b1000, "and_ab");  // AND
  nl.mark_output(f, "f");
  EXPECT_EQ(nl.num_inputs(), 2u);
  EXPECT_EQ(nl.num_luts(), 1u);
  EXPECT_EQ(nl.driver_kind(a), DriverKind::kPrimaryInput);
  EXPECT_EQ(nl.driver_kind(f), DriverKind::kLut);
  EXPECT_EQ(nl.net_name(f), "and_ab");
  EXPECT_EQ(nl.find_net("and_ab"), f);
  EXPECT_EQ(nl.find_net("f"), f);  // output alias
  EXPECT_EQ(nl.find_net("nope"), std::nullopt);
}

TEST(Netlist, RejectsDuplicateNames) {
  Netlist nl;
  nl.add_input("a");
  EXPECT_THROW(nl.add_input("a"), CheckError);
}

TEST(Netlist, RejectsWideLut) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  EXPECT_THROW(nl.add_lut({a, a, a, a, a}, 0, "bad"), CheckError);
}

TEST(Netlist, FanoutCounts) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId f = nl.add_lut({a}, 0b01, "inv1");
  const NetId g = nl.add_lut({a, f}, 0b1000, "and1");
  nl.mark_output(g, "g");
  const auto fanout = nl.fanout_counts();
  EXPECT_EQ(fanout[a], 2u);
  EXPECT_EQ(fanout[f], 1u);
  EXPECT_EQ(fanout[g], 1u);  // the output marking
}

TEST(Netlist, TopoOrderRespectsDependencies) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId f1 = nl.add_lut({a}, 0b01, "n1");
  const NetId f2 = nl.add_lut({f1}, 0b01, "n2");
  (void)f2;
  const auto order = nl.lut_topo_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
}

TEST(Netlist, DetectsCombinationalLoop) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  // Create two LUTs, then wire a loop through DFF-free paths by building
  // lut2 before lut1's net exists is impossible — so emulate a loop via a
  // LUT that feeds itself (netlist allows construction, topo must throw).
  const NetId f = nl.add_lut({a}, 0b01, "n1");
  const NetId g = nl.add_lut({f}, 0b01, "n2");
  // Rewire n1 to depend on n2 is not exposed; instead build self-loop LUT.
  (void)g;
  Netlist loop;
  const NetId x = loop.add_input("x");
  (void)x;
  // A LUT cannot reference its own output at construction (the net id does
  // not exist yet), so loops can only arise through DFF-less cycles created
  // by connect_dff_d misuse; verify the straight case is loop-free instead.
  EXPECT_NO_THROW(nl.lut_topo_order());
}

/// The vector-of-vectors Kahn sort lut_topo_order used before it moved to
/// CSR arrays, kept as the oracle for its exact pop order (the simulators
/// lay out their evaluation schedules in this order).
std::vector<std::size_t> reference_topo_order(const Netlist& nl) {
  const std::vector<Lut>& luts = nl.luts();
  std::vector<std::size_t> pending(luts.size(), 0);
  std::vector<std::vector<std::size_t>> dependents(luts.size());
  for (std::size_t i = 0; i < luts.size(); ++i) {
    for (NetId in : luts[i].inputs) {
      if (nl.driver_kind(in) == DriverKind::kLut) {
        ++pending[i];
        dependents[nl.driver_index(in)].push_back(i);
      }
    }
  }
  std::vector<std::size_t> order;
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < luts.size(); ++i)
    if (pending[i] == 0) ready.push_back(i);
  while (!ready.empty()) {
    const std::size_t i = ready.back();
    ready.pop_back();
    order.push_back(i);
    for (std::size_t dep : dependents[i])
      if (--pending[dep] == 0) ready.push_back(dep);
  }
  return order;
}

/// A random LUT/DFF netlist: LUT pins read any earlier net (repeats
/// allowed), DFF outputs are extra sources.
Netlist random_netlist(Rng& rng, int inputs, int dffs, int luts) {
  Netlist nl;
  std::vector<NetId> nets;
  for (int i = 0; i < inputs; ++i)
    nets.push_back(nl.add_input(std::string("i").append(std::to_string(i))));
  for (int d = 0; d < dffs; ++d)
    nets.push_back(nl.add_dff(nets.front(), false,
                              std::string("q").append(std::to_string(d))));
  for (int l = 0; l < luts; ++l) {
    std::vector<NetId> ins(rng.next_below(kMaxLutInputs + 1));
    for (NetId& in : ins) {
      // Bias towards recent nets so chains get deep.
      const std::size_t back = rng.chance(2, 3)
                                   ? rng.next_below(std::min<std::size_t>(
                                         nets.size(), 8))
                                   : rng.next_below(nets.size());
      in = nets[nets.size() - 1 - back];
    }
    const auto mask = static_cast<std::uint16_t>(rng.next_below(1u << 16));
    nets.push_back(nl.add_lut(std::move(ins), mask,
                              std::string("l").append(std::to_string(l))));
  }
  for (int d = 0; d < dffs; ++d)
    nl.connect_dff_d(static_cast<std::size_t>(d),
                     nets[rng.next_below(nets.size())]);
  return nl;
}

TEST(Netlist, TopoOrderMatchesTheKahnOracle) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const Netlist nl = random_netlist(
        rng, 1 + static_cast<int>(rng.next_below(6)),
        static_cast<int>(rng.next_below(4)),
        static_cast<int>(rng.next_below(300)));
    EXPECT_EQ(nl.lut_topo_order(), reference_topo_order(nl))
        << "trial " << trial;
  }
  for (const core::ArbiterKind kind :
       {core::ArbiterKind::kFlatFsm, core::ArbiterKind::kHierarchical,
        core::ArbiterKind::kPrefix}) {
    const core::GeneratedArbiter arb = core::generate({.n = 64, .kind = kind});
    const Netlist& nl = arb.synth.netlist;
    EXPECT_EQ(nl.lut_topo_order(), reference_topo_order(nl))
        << core::to_string(kind);
  }
}

TEST(Simulator, CombinationalSettle) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId f = nl.add_lut({a, b}, 0b0110, "xor_ab");  // XOR
  nl.mark_output(f, "f");
  Simulator sim(nl);
  for (int p = 0; p < 4; ++p) {
    sim.set_input("a", p & 1);
    sim.set_input("b", (p >> 1) & 1);
    sim.settle();
    EXPECT_EQ(sim.get("f"), ((p & 1) != ((p >> 1) & 1)));
  }
}

TEST(Simulator, DffCapturesOnClockOnly) {
  Netlist nl;
  const NetId d = nl.add_input("d");
  const NetId q = nl.add_dff(d, false, "q");
  nl.mark_output(q, "out");
  Simulator sim(nl);
  sim.set_input("d", true);
  sim.settle();
  EXPECT_FALSE(sim.get("out")) << "q must not change before the clock edge";
  sim.clock();
  EXPECT_TRUE(sim.get("out"));
  sim.set_input("d", false);
  sim.settle();
  EXPECT_TRUE(sim.get("out"));
  sim.clock();
  EXPECT_FALSE(sim.get("out"));
}

TEST(Simulator, DffInitValueAndReset) {
  Netlist nl;
  const NetId d = nl.add_input("d");
  const NetId q = nl.add_dff(d, true, "q");
  nl.mark_output(q, "out");
  Simulator sim(nl);
  EXPECT_TRUE(sim.get("out"));
  sim.set_input("d", false);
  sim.clock();
  EXPECT_FALSE(sim.get("out"));
  sim.reset();
  EXPECT_TRUE(sim.get("out"));
}

TEST(Simulator, SimultaneousDffUpdate) {
  // Two DFFs swapping values must exchange, not chain, on one edge.
  Netlist nl;
  std::size_t dff_a = nl.num_dffs();
  const NetId qa = nl.add_dff(0, true, "qa");
  std::size_t dff_b = nl.num_dffs();
  const NetId qb = nl.add_dff(0, false, "qb");
  nl.connect_dff_d(dff_a, qb);
  nl.connect_dff_d(dff_b, qa);
  Simulator sim(nl);
  EXPECT_TRUE(sim.get(qa));
  EXPECT_FALSE(sim.get(qb));
  sim.clock();
  EXPECT_FALSE(sim.get(qa));
  EXPECT_TRUE(sim.get(qb));
  sim.clock();
  EXPECT_TRUE(sim.get(qa));
  EXPECT_FALSE(sim.get(qb));
}

TEST(Simulator, ZeroInputLutIsConstant) {
  Netlist nl;
  const NetId c1 = nl.add_lut({}, 0b1, "const1");
  const NetId c0 = nl.add_lut({}, 0b0, "const0");
  nl.mark_output(c1, "one");
  nl.mark_output(c0, "zero");
  Simulator sim(nl);
  EXPECT_TRUE(sim.get("one"));
  EXPECT_FALSE(sim.get("zero"));
}

TEST(Simulator, RejectsSettingNonInput) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId f = nl.add_lut({a}, 0b01, "f");
  Simulator sim(nl);
  EXPECT_THROW(sim.set_input(f, true), CheckError);
  EXPECT_THROW(sim.set_input("missing", true), CheckError);
}

}  // namespace
}  // namespace rcarb::netlist
