#include <gtest/gtest.h>

#include "core/insertion.hpp"
#include "rcsim/system_sim.hpp"
#include "support/check.hpp"

namespace rcarb::rcsim {
namespace {

using core::Binding;
using tg::Program;
using tg::TaskGraph;
using tg::TaskId;

Binding bare_binding(const TaskGraph& g, std::size_t num_tasks,
                     std::size_t num_banks = 1) {
  Binding b;
  b.task_to_pe.assign(num_tasks, 0);
  b.segment_to_bank.assign(g.num_segments(), 0);
  b.channel_to_phys.assign(g.num_channels(), -1);
  b.num_banks = num_banks;
  for (std::size_t i = 0; i < num_banks; ++i)
    b.bank_names.push_back(std::string("B").append(std::to_string(i)));
  return b;
}

core::ArbitrationPlan no_plan(const Binding& b) {
  core::ArbitrationPlan plan;
  plan.arbiters_of_resource.assign(b.num_resources(), {});
  return plan;
}

// ------------------------------------------------------------ var loops

TEST(VarLoop, TripCountComesFromRegister) {
  TaskGraph g("var");
  g.add_segment("s", 64, 16);
  Program p;
  p.load_imm(0, 0)
      .load(1, 0, 0, 0)  // trip count from memory
      .load_imm(2, 0)
      .loop_begin_var(1)
      .add_imm(2, 2, 1)
      .loop_end()
      .store(0, 0, 2, 1)
      .halt();
  g.add_task("t", p, 1);
  const Binding b = bare_binding(g, 1);
  for (std::int64_t trips : {0, 1, 5, 13}) {
    SystemSimulator sim(g, b, no_plan(b));
    sim.write_segment(0, {trips});
    sim.run({0});
    EXPECT_EQ(sim.segment_data(0)[1], trips) << "trips=" << trips;
  }
}

TEST(VarLoop, NegativeCountClampsToZero) {
  TaskGraph g("neg");
  g.add_segment("s", 64, 16);
  Program p;
  p.load_imm(0, 0)
      .load_imm(1, -5)
      .load_imm(2, 7)
      .loop_begin_var(1)
      .load_imm(2, 99)
      .loop_end()
      .store(0, 0, 2)
      .halt();
  g.add_task("t", p, 1);
  const Binding b = bare_binding(g, 1);
  SystemSimulator sim(g, b, no_plan(b));
  sim.run({0});
  EXPECT_EQ(sim.segment_data(0)[0], 7) << "body must be skipped";
}

TEST(VarLoop, RuntimeMattersNotWorstCase) {
  // The Sec. 2.2 argument in miniature: execution time follows the data.
  TaskGraph g("runtime");
  g.add_segment("s", 64, 16);
  Program p;
  p.load_imm(0, 0)
      .load(1, 0, 0, 0)
      .loop_begin_var(1)
      .compute(3)
      .loop_end()
      .halt();
  g.add_task("t", p, 1);
  const Binding b = bare_binding(g, 1);
  auto run_with = [&](std::int64_t trips) {
    SystemSimulator sim(g, b, no_plan(b));
    sim.write_segment(0, {trips});
    return sim.run({0}).cycles;
  };
  EXPECT_LT(run_with(2), run_with(10));
  EXPECT_EQ(run_with(10) - run_with(2), 8u * 3u);
}

TEST(VarLoop, ValidateCountsVarLoopsLikeLoops) {
  Program open_loop;
  open_loop.loop_begin_var(0);
  EXPECT_THROW(open_loop.validate(), CheckError);
}

TEST(VarLoop, NestsWithFixedLoops) {
  TaskGraph g("nest");
  g.add_segment("s", 64, 16);
  Program p;
  p.load_imm(0, 0)
      .load_imm(1, 3)   // inner trips
      .load_imm(2, 0)   // accumulator
      .loop_begin(4)
      .loop_begin_var(1)
      .add_imm(2, 2, 1)
      .loop_end()
      .loop_end()
      .store(0, 0, 2)
      .halt();
  g.add_task("t", p, 1);
  const Binding b = bare_binding(g, 1);
  SystemSimulator sim(g, b, no_plan(b));
  sim.run({0});
  EXPECT_EQ(sim.segment_data(0)[0], 12);
}

// ------------------------------------------------------------------- TDM

struct TdmFixture {
  TaskGraph g{"tdm"};
  Binding binding;
  tg::SegmentId out;

  TdmFixture() {
    out = g.add_segment("out", 64, 8);
    for (int i = 0; i < 2; ++i) {
      Program producer;
      producer.load_imm(0, 10 + i).send(i, 0).halt();
      Program consumer;
      consumer.recv(1, i).load_imm(0, 0).store(static_cast<int>(out), 0, 1, i).halt();
      const auto p = g.add_task("p" + std::to_string(i), producer, 1);
      const auto c = g.add_task("c" + std::to_string(i), consumer, 1);
      g.add_channel("ch" + std::to_string(i), 8, p, c);
    }
    binding = bare_binding(g, 4);
    binding.channel_to_phys = {0, 0};
    binding.num_phys_channels = 1;
    binding.phys_channel_names = {"shared"};
  }
};

TEST(Tdm, SlotsSerializeWithoutArbiterOrConflicts) {
  TdmFixture fx;
  SimOptions options;
  options.tdm_slots = {{0, 2}, {1, 2}};
  SystemSimulator sim(fx.g, fx.binding, no_plan(fx.binding), options);
  const SimResult r = sim.run({0, 1, 2, 3});
  EXPECT_EQ(r.channel_conflicts, 0u);
  EXPECT_EQ(sim.segment_data(fx.out)[0], 10);
  EXPECT_EQ(sim.segment_data(fx.out)[1], 11);
}

TEST(Tdm, SenderWaitsForItsSlot) {
  TdmFixture fx;
  // Both producers ready at cycle 1; producer 1's slot only comes at
  // cycle % 8 == 7, so it stalls.
  SimOptions options;
  options.tdm_slots = {{0, 8}, {7, 8}};
  SystemSimulator sim(fx.g, fx.binding, no_plan(fx.binding), options);
  const SimResult r = sim.run({0, 1, 2, 3});
  EXPECT_GT(r.tasks[2].grant_wait_cycles, 3u)
      << "producer 1 must idle until its slot";
}

TEST(Tdm, WithoutSlotsSimultaneousSendsConflict) {
  TdmFixture fx;
  SimOptions options;
  options.strict = false;
  SystemSimulator sim(fx.g, fx.binding, no_plan(fx.binding), options);
  const SimResult r = sim.run({0, 1, 2, 3});
  EXPECT_GT(r.channel_conflicts, 0u)
      << "no arbitration and no slots: the wires collide";
}

}  // namespace
}  // namespace rcarb::rcsim
