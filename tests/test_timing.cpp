#include <gtest/gtest.h>

#include "timing/sta.hpp"

namespace rcarb::timing {
namespace {

netlist::NetId add_buf(netlist::Netlist& nl, netlist::NetId in,
                       const std::string& name) {
  return nl.add_lut({in}, 0b10, name);
}

TEST(DelayModel, NetDelayGrowsWithFanout) {
  const DelayModel model;
  EXPECT_DOUBLE_EQ(model.net_delay(1), model.net_base);
  EXPECT_GT(model.net_delay(4), model.net_delay(2));
  EXPECT_DOUBLE_EQ(model.net_delay(0), model.net_base);
}

TEST(Sta, PureRegisterLoopPath) {
  // q -> LUT -> d: one LUT level.
  netlist::Netlist nl;
  const auto dff = nl.num_dffs();
  const auto q = nl.add_dff(0, false, "q");
  const auto f = add_buf(nl, q, "buf");
  nl.connect_dff_d(dff, f);
  const DelayModel model;
  const TimingReport report = analyze(nl, model);
  const double expected = model.clk_to_q + model.net_delay(1) +
                          model.lut_delay + model.net_delay(1) + model.setup;
  EXPECT_DOUBLE_EQ(report.reg_to_reg_ns, expected);
  EXPECT_GT(report.fmax_mhz, 0.0);
  EXPECT_DOUBLE_EQ(report.fmax_mhz,
                   1000.0 / (expected + model.clock_uncertainty));
}

TEST(Sta, DeeperLogicIsSlower) {
  auto build = [](int depth) {
    netlist::Netlist nl;
    const auto dff = nl.num_dffs();
    netlist::NetId n = nl.add_dff(0, false, "q");
    for (int i = 0; i < depth; ++i)
      n = add_buf(nl, n, std::string("b").append(std::to_string(i)));
    nl.connect_dff_d(dff, n);
    return analyze(nl, DelayModel{}).fmax_mhz;
  };
  EXPECT_GT(build(1), build(2));
  EXPECT_GT(build(2), build(5));
}

TEST(Sta, HigherFanoutIsSlower) {
  auto build = [](int fanout) {
    netlist::Netlist nl;
    const auto dff = nl.num_dffs();
    netlist::NetId q = nl.add_dff(0, false, "q");
    netlist::NetId f = add_buf(nl, q, "main");
    for (int i = 1; i < fanout; ++i)
      (void)add_buf(nl, q, std::string("l").append(std::to_string(i)));
    nl.connect_dff_d(dff, f);
    return analyze(nl, DelayModel{}).reg_to_reg_ns;
  };
  EXPECT_LT(build(1), build(4));
}

TEST(Sta, InputToRegisterPathTracked) {
  netlist::Netlist nl;
  const auto in = nl.add_input("in");
  const auto f = add_buf(nl, in, "buf");
  nl.add_dff(f, false, "q");
  const TimingReport report = analyze(nl, DelayModel{});
  EXPECT_GT(report.input_to_reg_ns, 0.0);
  EXPECT_DOUBLE_EQ(report.reg_to_reg_ns, 0.0);
  EXPECT_GT(report.fmax_mhz, 0.0);
}

TEST(Sta, RegisterToOutputPathTracked) {
  netlist::Netlist nl;
  const auto dff = nl.num_dffs();
  const auto q = nl.add_dff(0, false, "q");
  nl.connect_dff_d(dff, q);  // self loop, no logic
  const auto f = add_buf(nl, q, "obuf");
  nl.mark_output(f, "out");
  const TimingReport report = analyze(nl, DelayModel{});
  EXPECT_GT(report.reg_to_out_ns, 0.0);
}

TEST(Sta, CriticalPathNetsReported) {
  netlist::Netlist nl;
  const auto dff = nl.num_dffs();
  netlist::NetId n = nl.add_dff(0, false, "q");
  n = add_buf(nl, n, "stage0");
  n = add_buf(nl, n, "stage1");
  nl.connect_dff_d(dff, n);
  const TimingReport report = analyze(nl, DelayModel{});
  ASSERT_GE(report.critical_nets.size(), 2u);
  EXPECT_EQ(report.critical_nets.back(), "stage1");
}

TEST(Sta, CombinationalOnlyNetlistHasNoRegPath) {
  netlist::Netlist nl;
  const auto a = nl.add_input("a");
  const auto f = add_buf(nl, a, "buf");
  nl.mark_output(f, "out");
  const TimingReport report = analyze(nl, DelayModel{});
  EXPECT_DOUBLE_EQ(report.reg_to_reg_ns, 0.0);
  EXPECT_DOUBLE_EQ(report.input_to_reg_ns, 0.0);
}

}  // namespace
}  // namespace rcarb::timing
