#include <gtest/gtest.h>

#include "core/generator.hpp"
#include "fft/fft_design.hpp"
#include "netlist/simulator.hpp"
#include "netlist/vhdl_emit.hpp"
#include "support/check.hpp"
#include "taskgraph/dot_export.hpp"

namespace rcarb {
namespace {

// ------------------------------------------------------- netlist -> VHDL

netlist::Netlist small_netlist() {
  netlist::Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto f = nl.add_lut({a, b}, 0b0110, "xor_ab");
  const auto q = nl.add_dff(f, true, "q_reg");
  const auto g = nl.add_lut({q}, 0b01, "inv_q");
  nl.mark_output(g, "out");
  return nl;
}

TEST(NetlistVhdl, EntityAndPorts) {
  const std::string v = netlist::emit_vhdl(small_netlist(), "toy");
  EXPECT_NE(v.find("entity toy is"), std::string::npos);
  EXPECT_NE(v.find("clk : in std_logic"), std::string::npos);
  EXPECT_NE(v.find("rst : in std_logic"), std::string::npos);
  EXPECT_NE(v.find("a : in std_logic"), std::string::npos);
  EXPECT_NE(v.find("out_o : out std_logic"), std::string::npos);
  EXPECT_NE(v.find("end architecture structural;"), std::string::npos);
}

TEST(NetlistVhdl, LutTruthTableSpelledOut) {
  const std::string v = netlist::emit_vhdl(small_netlist(), "toy");
  // XOR of (b & a): rows 01 and 10 are '1'.
  EXPECT_NE(v.find("'1' when \"01\""), std::string::npos);
  EXPECT_NE(v.find("'1' when \"10\""), std::string::npos);
  EXPECT_NE(v.find("'0' when \"11\""), std::string::npos);
}

TEST(NetlistVhdl, RegisterProcessWithInitReset) {
  const std::string v = netlist::emit_vhdl(small_netlist(), "toy");
  EXPECT_NE(v.find("registers: process (clk, rst)"), std::string::npos);
  EXPECT_NE(v.find("q_reg <= '1';"), std::string::npos)
      << "reset must restore the DFF init value";
  EXPECT_NE(v.find("rising_edge(clk)"), std::string::npos);
  EXPECT_NE(v.find("q_reg <= xor_ab;"), std::string::npos);
}

TEST(NetlistVhdl, ConstantLutEmitsLiteral) {
  netlist::Netlist nl;
  const auto c = nl.add_lut({}, 0b1, "const1");
  nl.mark_output(c, "one");
  const std::string v = netlist::emit_vhdl(nl, "consts");
  EXPECT_NE(v.find("const1 <= '1';"), std::string::npos);
}

TEST(NetlistVhdl, SanitizesAndDeduplicatesNames) {
  netlist::Netlist nl;
  const auto a = nl.add_input("weird name!");
  const auto f = nl.add_lut({a}, 0b10, "weird_name_");  // sanitizes same
  nl.mark_output(f, "o");
  const std::string v = netlist::emit_vhdl(nl, "dedupe");
  EXPECT_NE(v.find("weird_name_ : in std_logic"), std::string::npos);
  EXPECT_NE(v.find("weird_name__1"), std::string::npos)
      << "colliding sanitized names must get a suffix";
  EXPECT_THROW(netlist::emit_vhdl(nl, "bad name"), CheckError);
}

TEST(NetlistVhdl, WholeArbiterEmits) {
  const auto g = core::generate({.n = 4});
  const std::string v = netlist::emit_vhdl(g.synth.netlist, "rr4_mapped");
  EXPECT_NE(v.find("entity rr4_mapped is"), std::string::npos);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(v.find("req" + std::to_string(i) + " : in std_logic"),
              std::string::npos);
    EXPECT_NE(v.find("grant" + std::to_string(i) + "_o"), std::string::npos);
  }
  // One selected assignment per LUT.
  std::size_t count = 0, pos = 0;
  while ((pos = v.find("select\n", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, g.synth.netlist.num_luts());
}

// ----------------------------------------------------------- taskgraph DOT

TEST(DotExport, Fig10ShapesPresent) {
  const fft::FftDesign d = fft::build_fft_design();
  const std::string dot = tg::to_dot(d.graph);
  EXPECT_NE(dot.find("digraph \"fft4x4\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"F1\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"ML3\""), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos)
      << "control deps draw dashed, as in Fig. 10";
}

TEST(DotExport, DataEdgesFollowAccessDirection) {
  tg::TaskGraph g("dirs");
  g.add_segment("S", 16, 4);
  tg::Program writer;
  writer.load_imm(0, 0).store(0, 0, 0).halt();
  tg::Program reader;
  reader.load_imm(0, 0).load(1, 0, 0).halt();
  g.add_task("W", writer, 1);
  g.add_task("R", reader, 1);
  const std::string dot = tg::to_dot(g);
  EXPECT_NE(dot.find("t0 -> m0"), std::string::npos);  // write: task -> mem
  EXPECT_NE(dot.find("m0 -> t1"), std::string::npos);  // read: mem -> task
}

TEST(DotExport, ChannelsCarryLabels) {
  tg::TaskGraph g("chan");
  tg::Program s;
  s.load_imm(0, 1).send(0, 0).halt();
  tg::Program r;
  r.recv(0, 0).halt();
  const auto a = g.add_task("A", s, 1);
  const auto b = g.add_task("B", r, 1);
  g.add_channel("c7", 16, a, b);
  const std::string dot = tg::to_dot(g);
  EXPECT_NE(dot.find("t0 -> t1 [label=\"c7\"]"), std::string::npos);
}

}  // namespace
}  // namespace rcarb
