#include <gtest/gtest.h>

#include "synth/clb_pack.hpp"

namespace rcarb::synth {
namespace {

netlist::NetId add_and(netlist::Netlist& nl, netlist::NetId a,
                       netlist::NetId b, const std::string& name) {
  return nl.add_lut({a, b}, 0b1000, name);
}

TEST(ClbPack, EmptyNetlistUsesNoClbs) {
  netlist::Netlist nl;
  nl.add_input("a");
  const ClbReport report = pack_xc4000e(nl);
  EXPECT_EQ(report.clbs, 0u);
}

TEST(ClbPack, TwoLutsShareOneClb) {
  netlist::Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto f = add_and(nl, a, b, "f");
  const auto g = add_and(nl, a, b, "g2");
  nl.mark_output(f, "of");
  nl.mark_output(g, "og");
  const ClbReport report = pack_xc4000e(nl);
  EXPECT_EQ(report.luts, 2u);
  EXPECT_EQ(report.clbs, 1u);
}

TEST(ClbPack, ThreeIndependentLutsNeedTwoClbs) {
  netlist::Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  for (int i = 0; i < 3; ++i) {
    const auto f =
        add_and(nl, a, b, std::string("f").append(std::to_string(i)));
    nl.mark_output(f, std::string("o").append(std::to_string(i)));
  }
  EXPECT_EQ(pack_xc4000e(nl).clbs, 2u);
}

TEST(ClbPack, HPatternAbsorbsThreeLutsIntoOneClb) {
  // f and g feed h (2-input) and fan out nowhere else: the classic F-G-H
  // triple occupies a single CLB.
  netlist::Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto c = nl.add_input("c");
  const auto d = nl.add_input("d");
  const auto f = add_and(nl, a, b, "f");
  const auto g = add_and(nl, c, d, "g2");
  const auto h = nl.add_lut({f, g}, 0b0110, "h");
  nl.mark_output(h, "out");
  const ClbReport report = pack_xc4000e(nl);
  EXPECT_EQ(report.luts, 3u);
  EXPECT_EQ(report.h_luts, 1u);
  EXPECT_EQ(report.clbs, 1u);
}

TEST(ClbPack, HPatternNotUsedWhenFeedersFanOut) {
  // When f also feeds another consumer its output must leave the CLB, so
  // the H absorption is illegal.
  netlist::Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto c = nl.add_input("c");
  const auto d = nl.add_input("d");
  const auto f = add_and(nl, a, b, "f");
  const auto g = add_and(nl, c, d, "g2");
  const auto h = nl.add_lut({f, g}, 0b0110, "h");
  const auto k = add_and(nl, f, c, "k");  // second consumer of f
  nl.mark_output(h, "oh");
  nl.mark_output(k, "ok");
  const ClbReport report = pack_xc4000e(nl);
  EXPECT_EQ(report.h_luts, 0u);
  EXPECT_EQ(report.clbs, 2u);  // 4 LUTs -> 2 CLBs
}

TEST(ClbPack, FlipFlopsRideAlongInLogicClbs) {
  netlist::Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto f = add_and(nl, a, b, "f");
  nl.add_dff(f, false, "q0");
  nl.add_dff(f, false, "q1");
  const ClbReport report = pack_xc4000e(nl);
  EXPECT_EQ(report.clbs, 1u) << "1 LUT + 2 FFs fit one CLB";
  EXPECT_EQ(report.ff_only_clbs, 0u);
}

TEST(ClbPack, OverflowFlipFlopsGetTheirOwnClbs) {
  netlist::Netlist nl;
  const auto a = nl.add_input("a");
  for (int i = 0; i < 6; ++i)
    nl.add_dff(a, false, std::string("q").append(std::to_string(i)));
  const ClbReport report = pack_xc4000e(nl);
  EXPECT_EQ(report.ffs, 6u);
  EXPECT_EQ(report.clbs, 3u);  // 6 FFs, 2 per CLB, no logic CLBs
  EXPECT_EQ(report.ff_only_clbs, 3u);
}

TEST(ClbPack, MixedDesignAccounting) {
  netlist::Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  std::vector<netlist::NetId> luts;
  for (int i = 0; i < 5; ++i)
    luts.push_back(
        add_and(nl, a, b, std::string("f").append(std::to_string(i))));
  for (int i = 0; i < 8; ++i)
    nl.add_dff(luts[static_cast<std::size_t>(i) % 5], false,
               std::string("q").append(std::to_string(i)));
  const ClbReport report = pack_xc4000e(nl);
  // 5 LUTs -> 3 logic CLBs (no H patterns: all feed DFFs and nothing else
  // ... feeders are inputs); 3 CLBs hold 6 FFs, 2 overflow -> 1 more CLB.
  EXPECT_EQ(report.clbs, 4u);
  EXPECT_EQ(report.ff_only_clbs, 1u);
}

}  // namespace
}  // namespace rcarb::synth
