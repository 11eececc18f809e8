#include <gtest/gtest.h>

#include "board/board.hpp"
#include "partition/binding.hpp"
#include "partition/channel_map.hpp"
#include "partition/estimate.hpp"
#include "partition/memory_map.hpp"
#include "partition/spatial.hpp"
#include "partition/temporal.hpp"
#include "support/check.hpp"

namespace rcarb::part {
namespace {

using tg::Program;
using tg::TaskGraph;
using tg::TaskId;

Program simple_program() {
  Program p;
  p.load_imm(0, 0).compute(4).halt();
  return p;
}

// ------------------------------------------------------------------ estimate

TEST(Estimate, PricesOperationMix) {
  Program alu_only;
  alu_only.add(1, 2, 3).halt();
  Program with_mul = alu_only;
  with_mul.mul(1, 2, 3);
  const EstimateModel model;
  EXPECT_GT(estimate_task_clbs(with_mul, model),
            estimate_task_clbs(alu_only, model) + model.multiplier - 2);
}

TEST(Estimate, LongerProgramsCostMore) {
  Program shorter;
  shorter.compute(1).halt();
  Program longer = shorter;
  for (int i = 0; i < 20; ++i) longer.add(0, 1, 2);
  EXPECT_GT(estimate_task_clbs(longer), estimate_task_clbs(shorter));
}

TEST(Estimate, AnnotateFillsOnlyMissingAreas) {
  TaskGraph g("a");
  g.add_task("auto", simple_program(), 0);
  g.add_task("manual", simple_program(), 123);
  annotate_areas(g);
  EXPECT_GT(g.task(0).area_clbs, 0u);
  EXPECT_EQ(g.task(1).area_clbs, 123u);
}

// ------------------------------------------------------------------ temporal

TaskGraph chain_tasks(int count, std::size_t area) {
  TaskGraph g("chain");
  for (int i = 0; i < count; ++i)
    g.add_task("t" + std::to_string(i), simple_program(), area);
  for (int i = 0; i + 1 < count; ++i)
    g.add_control_dep(static_cast<TaskId>(i), static_cast<TaskId>(i + 1));
  return g;
}

TEST(Temporal, EverythingFitsInOnePartition) {
  const TaskGraph g = chain_tasks(4, 100);
  const TemporalResult r = temporal_partition(g, board::wildforce(), {});
  EXPECT_EQ(r.partitions.size(), 1u);
  EXPECT_EQ(r.partitions[0].tasks.size(), 4u);
}

TEST(Temporal, SplitsWhenAreaOverflows) {
  // Budget = 0.75 * 2304 = 1728 CLBs; 800-CLB tasks go two per partition.
  const TaskGraph g = chain_tasks(5, 800);
  const TemporalResult r = temporal_partition(g, board::wildforce(), {});
  EXPECT_EQ(r.partitions.size(), 3u);
  EXPECT_EQ(r.partitions[0].tasks.size(), 2u);
  EXPECT_EQ(r.partitions[2].tasks.size(), 1u);
}

TEST(Temporal, RespectsControlDependenceOrder) {
  TaskGraph g("dag");
  const TaskId a = g.add_task("a", simple_program(), 1000);
  const TaskId b = g.add_task("b", simple_program(), 1000);
  const TaskId c = g.add_task("c", simple_program(), 1000);
  g.add_control_dep(a, c);
  g.add_control_dep(b, c);
  const TemporalResult r = temporal_partition(g, board::wildforce(), {});
  EXPECT_LE(r.tp_of_task[a], r.tp_of_task[c]);
  EXPECT_LE(r.tp_of_task[b], r.tp_of_task[c]);
}

TEST(Temporal, ThrowsWhenTaskCannotFit) {
  const TaskGraph g = chain_tasks(1, 50'000);
  EXPECT_THROW(temporal_partition(g, board::wildforce(), {}), CheckError);
}

TEST(Temporal, AccountsArbiterAreaWithPrechar) {
  // Two tasks sharing one segment on a tiny board: with pre-characterized
  // arbiter area the pair no longer fits together.
  TaskGraph g("arb");
  g.add_segment("s", 16, 8);
  Program p;
  p.load_imm(0, 0).store(0, 0, 0).halt();
  g.add_task("a", p, 149);
  g.add_task("b", p, 149);
  board::Board tiny("tiny");
  tiny.add_pe("pe", 400, 0);
  tiny.add_bank("m", 1024, 0);

  TemporalOptions no_arb;  // prechar == nullptr: arbiters priced at zero
  no_arb.utilization = 0.75;
  EXPECT_EQ(temporal_partition(g, tiny, no_arb).partitions.size(), 1u);

  core::PrecharCache prechar;
  TemporalOptions with_arb;
  with_arb.utilization = 0.75;
  with_arb.prechar = &prechar;
  EXPECT_EQ(temporal_partition(g, tiny, with_arb).partitions.size(), 2u);
}

TEST(Temporal, MemoryFootprintLimitsPartition) {
  TaskGraph g("mem");
  g.add_segment("big0", 30 * 1024, 64);
  g.add_segment("big1", 30 * 1024, 64);
  Program p0, p1;
  p0.load_imm(0, 0).store(0, 0, 0).halt();
  p1.load_imm(0, 0).store(1, 0, 0).halt();
  g.add_task("a", p0, 10);
  g.add_task("b", p1, 10);
  board::Board b("small-mem");
  b.add_pe("pe", 2000, 0);
  b.add_bank("m", 32 * 1024, 0);  // only one segment fits at a time
  const TemporalResult r = temporal_partition(g, b, {});
  EXPECT_EQ(r.partitions.size(), 2u);
}

// ------------------------------------------------------------------- spatial

TEST(Spatial, RespectsPerPeCapacity) {
  TaskGraph g("cap");
  std::vector<TaskId> tasks;
  for (int i = 0; i < 8; ++i)
    tasks.push_back(g.add_task("t" + std::to_string(i), simple_program(), 200));
  const SpatialResult r =
      spatial_partition(g, tasks, board::wildforce(), {});
  for (std::size_t p = 0; p < 4; ++p)
    EXPECT_LE(r.pe_clbs[p], static_cast<std::size_t>(0.85 * 576));
  for (TaskId t : tasks) EXPECT_GE(r.pe_of_task[t], 0);
}

TEST(Spatial, ThrowsWhenOverCapacity) {
  TaskGraph g("over");
  std::vector<TaskId> tasks;
  for (int i = 0; i < 3; ++i)
    tasks.push_back(g.add_task("t" + std::to_string(i), simple_program(), 500));
  EXPECT_THROW(spatial_partition(g, tasks, board::mini2(), {}), CheckError);
}

TEST(Spatial, ChannelEndpointsPreferColocation) {
  // Two chatty pairs and plenty of room: refinement should place each
  // pair together, cutting zero channels.
  TaskGraph g("pairs");
  Program sender;
  sender.load_imm(0, 1).send(0, 0).halt();
  Program sender2;
  sender2.load_imm(0, 1).send(1, 0).halt();
  Program recv0;
  recv0.recv(0, 0).halt();
  Program recv1;
  recv1.recv(0, 1).halt();
  const TaskId a = g.add_task("a", sender, 50);
  const TaskId b = g.add_task("b", recv0, 50);
  const TaskId c = g.add_task("c", sender2, 50);
  const TaskId d = g.add_task("d", recv1, 50);
  g.add_channel("ab", 32, a, b);
  g.add_channel("cd", 32, c, d);
  const SpatialResult r =
      spatial_partition(g, {a, b, c, d}, board::mini2(), {});
  EXPECT_EQ(r.pe_of_task[a], r.pe_of_task[b]);
  EXPECT_EQ(r.pe_of_task[c], r.pe_of_task[d]);
  EXPECT_EQ(r.cut_bits, 0u);
}

TEST(Spatial, ReportsCutWidth) {
  TaskGraph g("cut");
  Program sender;
  sender.load_imm(0, 1).send(0, 0).halt();
  Program receiver;
  receiver.recv(0, 0).halt();
  const TaskId a = g.add_task("a", sender, 300);
  const TaskId b = g.add_task("b", receiver, 300);
  g.add_channel("c", 16, a, b);
  const SpatialResult r = spatial_partition(g, {a, b}, board::mini2(), {});
  // 300 + 300 > 0.85*400: the pair cannot share a PE, so the channel is cut.
  EXPECT_NE(r.pe_of_task[a], r.pe_of_task[b]);
  EXPECT_EQ(r.cut_bits, 16u) << "pe_a=" << r.pe_of_task[a]
                             << " pe_b=" << r.pe_of_task[b]
                             << " passes=" << r.passes_run;
}

// --------------------------------------------------------------- memory map

TEST(MemoryMap, SpreadsSegmentsWhenBanksSuffice) {
  TaskGraph g("spread");
  g.add_segment("s0", 1024, 16);
  g.add_segment("s1", 1024, 16);
  Program p0, p1;
  p0.load_imm(0, 0).store(0, 0, 0).halt();
  p1.load_imm(0, 0).store(1, 0, 0).halt();
  const TaskId a = g.add_task("a", p0, 10);
  const TaskId b = g.add_task("b", p1, 10);
  const std::vector<int> pes{0, 1};
  const MemoryMapResult r =
      map_memory(g, {a, b}, board::wildforce(), pes);
  EXPECT_GE(r.bank_of_segment[0], 0);
  EXPECT_GE(r.bank_of_segment[1], 0);
  EXPECT_NE(r.bank_of_segment[0], r.bank_of_segment[1]);
  EXPECT_EQ(r.shared_banks, 0u);
}

TEST(MemoryMap, PrefersLocalBank) {
  TaskGraph g("local");
  g.add_segment("s", 1024, 16);
  Program p;
  p.load_imm(0, 0).store(0, 0, 0).halt();
  const TaskId a = g.add_task("a", p, 10);
  for (int pe = 0; pe < 4; ++pe) {
    const std::vector<int> pes{pe};
    const MemoryMapResult r = map_memory(g, {a}, board::wildforce(), pes);
    EXPECT_EQ(r.bank_of_segment[0], pe) << "bank attached to the task's PE";
  }
}

TEST(MemoryMap, MergesWhenSegmentsExceedBanks) {
  TaskGraph g("merge");
  Program p;
  p.load_imm(0, 0);
  for (int s = 0; s < 6; ++s) {
    g.add_segment("s" + std::to_string(s), 1024, 16);
    p.store(s, 0, 0);
  }
  p.halt();
  const TaskId t = g.add_task("t", p, 10);
  const std::vector<int> pes{0};
  const MemoryMapResult r = map_memory(g, {t}, board::wildforce(), pes);
  for (std::size_t s = 0; s < 6; ++s) EXPECT_GE(r.bank_of_segment[s], 0);
  EXPECT_GE(r.shared_banks, 1u) << "6 segments on 4 banks must share";
}

TEST(MemoryMap, InactiveSegmentsStayUnmapped) {
  TaskGraph g("inactive");
  g.add_segment("used", 1024, 16);
  g.add_segment("unused", 1024, 16);
  Program p;
  p.load_imm(0, 0).store(0, 0, 0).halt();
  const TaskId t = g.add_task("t", p, 10);
  const std::vector<int> pes{0};
  const MemoryMapResult r = map_memory(g, {t}, board::wildforce(), pes);
  EXPECT_GE(r.bank_of_segment[0], 0);
  EXPECT_EQ(r.bank_of_segment[1], -1);
}

TEST(MemoryMap, ThrowsWhenSegmentTooLarge) {
  TaskGraph g("huge");
  g.add_segment("s", 1024 * 1024, 16);
  Program p;
  p.load_imm(0, 0).store(0, 0, 0).halt();
  const TaskId t = g.add_task("t", p, 10);
  const std::vector<int> pes{0};
  EXPECT_THROW(map_memory(g, {t}, board::wildforce(), pes), CheckError);
}

TEST(MemoryMap, ContentionAwarePackingAvoidsHotBanks) {
  // 8 segments, each its own accessor task, on 4 banks: the conflict-aware
  // packer should end with at most 2-3 tasks per bank instead of piling up.
  TaskGraph g("fair");
  Program base;
  std::vector<TaskId> tasks;
  for (int s = 0; s < 8; ++s) {
    g.add_segment("s" + std::to_string(s), 1024, 16);
    Program p;
    p.load_imm(0, 0).store(s, 0, 0).halt();
    tasks.push_back(g.add_task("t" + std::to_string(s), p, 10));
  }
  std::vector<int> pes(8);
  for (int i = 0; i < 8; ++i) pes[static_cast<std::size_t>(i)] = i % 4;
  const MemoryMapResult r = map_memory(g, tasks, board::wildforce(), pes);
  std::vector<int> per_bank(4, 0);
  for (std::size_t s = 0; s < 8; ++s)
    ++per_bank[static_cast<std::size_t>(r.bank_of_segment[s])];
  for (int b = 0; b < 4; ++b)
    EXPECT_LE(per_bank[static_cast<std::size_t>(b)], 3);
}

// --------------------------------------------------------------- channel map

struct ChannelFixture {
  TaskGraph g{"chan"};
  std::vector<TaskId> tasks;
  std::vector<int> pes;

  /// Creates `n` sender/receiver pairs across mini2's two PEs, each with a
  /// `width`-bit channel.
  explicit ChannelFixture(int n, int width) {
    for (int i = 0; i < n; ++i) {
      Program snd;
      snd.load_imm(0, i).send(i, 0).halt();
      Program rcv;
      rcv.recv(0, i).halt();
      const TaskId s = g.add_task("s" + std::to_string(i), snd, 10);
      const TaskId r = g.add_task("r" + std::to_string(i), rcv, 10);
      g.add_channel("c" + std::to_string(i), width, s, r);
      tasks.push_back(s);
      tasks.push_back(r);
      pes.push_back(0);
      pes.push_back(1);
    }
  }
};

TEST(ChannelMap, DedicatedWiresWhileTheyLast) {
  ChannelFixture fx(2, 8);  // 16 bits total over a 16-bit link
  const ChannelMapResult r =
      map_channels(fx.g, fx.tasks, board::mini2(), fx.pes);
  EXPECT_EQ(r.phys.size(), 2u);
  EXPECT_EQ(r.merged_channels, 0u);
  EXPECT_EQ(r.link_pins_used[0], 16);
}

TEST(ChannelMap, MergesWhenPinsRunOut) {
  ChannelFixture fx(3, 8);  // 24 bits demanded, 16-bit link, no crossbar
  const ChannelMapResult r =
      map_channels(fx.g, fx.tasks, board::mini2(), fx.pes);
  EXPECT_EQ(r.merged_channels, 1u);
  // One physical channel now carries two logical channels.
  bool found_shared = false;
  for (const PhysChannel& ph : r.phys)
    if (ph.logical.size() == 2) found_shared = true;
  EXPECT_TRUE(found_shared);
}

TEST(ChannelMap, SharedChannelNameListsMembers) {
  ChannelFixture fx(3, 8);
  const ChannelMapResult r =
      map_channels(fx.g, fx.tasks, board::mini2(), fx.pes);
  bool found = false;
  for (const PhysChannel& ph : r.phys)
    if (ph.logical.size() > 1) {
      EXPECT_NE(ph.name.find("shared"), std::string::npos);
      found = true;
    }
  EXPECT_TRUE(found);
}

TEST(ChannelMap, ColocatedChannelsNeedNoWires) {
  ChannelFixture fx(1, 8);
  fx.pes = {0, 0};  // same PE
  const ChannelMapResult r =
      map_channels(fx.g, fx.tasks, board::mini2(), fx.pes);
  EXPECT_EQ(r.phys_of_channel[0], -1);
  EXPECT_TRUE(r.phys.empty());
}

TEST(ChannelMap, CrossbarUsedWhenLinksExhausted) {
  // Wildforce: PE0-PE1 link is 36 bits; a 30-bit and a 20-bit channel need
  // the crossbar for the second one.
  TaskGraph g("xbar");
  Program snd1, snd2, rcv1, rcv2;
  snd1.load_imm(0, 1).send(0, 0).halt();
  snd2.load_imm(0, 2).send(1, 0).halt();
  rcv1.recv(0, 0).halt();
  rcv2.recv(0, 1).halt();
  const TaskId a = g.add_task("a", snd1, 10);
  const TaskId b = g.add_task("b", rcv1, 10);
  const TaskId c = g.add_task("c", snd2, 10);
  const TaskId d = g.add_task("d", rcv2, 10);
  g.add_channel("wide", 30, a, b);
  g.add_channel("also", 20, c, d);
  const std::vector<int> pes{0, 1, 0, 1};
  const ChannelMapResult r =
      map_channels(g, {a, b, c, d}, board::wildforce(), pes);
  EXPECT_EQ(r.merged_channels, 0u);
  bool via_xbar = false;
  for (const PhysChannel& ph : r.phys) via_xbar = via_xbar || ph.via_crossbar;
  EXPECT_TRUE(via_xbar);
  EXPECT_EQ(r.crossbar_pins_used[0], 20);
}

TEST(ChannelMap, ThrowsWhenNoRouteWideEnough) {
  ChannelFixture fx(1, 64);  // wider than mini2's 16-bit link
  EXPECT_THROW(map_channels(fx.g, fx.tasks, board::mini2(), fx.pes),
               CheckError);
}

// ---------------------------------------------- degradation remap planning

TEST(MemoryMap, FailedBanksAreNeverAssigned) {
  TaskGraph g("shrunk");
  g.add_segment("s0", 1024, 16);
  Program p;
  p.load_imm(0, 0).store(0, 0, 0).halt();
  const TaskId a = g.add_task("a", p, 10);
  const std::vector<int> pes{0};
  const board::Board board = board::wildforce();

  MemoryMapOptions opt;
  for (board::BankId b = 0; b + 1 < board.num_banks(); ++b)
    opt.failed_banks.push_back(b);  // only the last bank survives
  const MemoryMapResult r = map_memory(g, {a}, board, pes, opt);
  EXPECT_EQ(r.bank_of_segment[0], static_cast<int>(board.num_banks() - 1));

  MemoryMapOptions none;
  for (board::BankId b = 0; b < board.num_banks(); ++b)
    none.failed_banks.push_back(b);
  EXPECT_THROW(map_memory(g, {a}, board, pes, none), CheckError);
}

TEST(ChannelRemap, GroupMovesOntoAWideEnoughSurvivor) {
  ChannelFixture fx(2, 8);  // two dedicated 8-bit phys channels on mini2
  ChannelMapResult r = map_channels(fx.g, fx.tasks, board::mini2(), fx.pes);
  ASSERT_EQ(r.phys.size(), 2u);

  const ChannelRemap plan =
      remap_channels(fx.g, r, /*dead_phys=*/0, {false, false});
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.target_phys, 1);
  ASSERT_EQ(plan.moved.size(), 1u);
  // The tables were rewritten in place: the dead channel's logical load
  // now rides the survivor.
  EXPECT_EQ(r.phys_of_channel[plan.moved[0]], 1);
  EXPECT_EQ(r.phys[1].logical.size(), 2u);
  EXPECT_TRUE(r.phys[0].logical.empty());
}

TEST(ChannelRemap, TooNarrowSurvivorIsInfeasibleAndLeavesTablesAlone) {
  // 12-bit and 4-bit channels share mini2's 16-bit link as two dedicated
  // phys channels.  The 4-bit survivor cannot carry the 12-bit channel.
  TaskGraph g("narrow");
  Program snd1, snd2, rcv1, rcv2;
  snd1.load_imm(0, 1).send(0, 0).halt();
  snd2.load_imm(0, 2).send(1, 0).halt();
  rcv1.recv(0, 0).halt();
  rcv2.recv(0, 1).halt();
  const TaskId a = g.add_task("a", snd1, 10);
  const TaskId b = g.add_task("b", rcv1, 10);
  const TaskId c = g.add_task("c", snd2, 10);
  const TaskId d = g.add_task("d", rcv2, 10);
  g.add_channel("wide", 12, a, b);
  g.add_channel("thin", 4, c, d);
  const std::vector<int> pes{0, 1, 0, 1};
  ChannelMapResult r = map_channels(g, {a, b, c, d}, board::mini2(), pes);
  ASSERT_EQ(r.phys.size(), 2u);
  const ChannelMapResult before = r;

  const int wide_phys = r.phys_of_channel[0];
  const int thin_phys = r.phys_of_channel[1];
  // Thin dies: the wide survivor has room.
  EXPECT_TRUE(remap_channels(g, r, thin_phys, {false, false}).feasible);
  r = before;
  // Wide dies: the thin survivor is too narrow; tables stay untouched.
  const ChannelRemap no = remap_channels(g, r, wide_phys, {false, false});
  EXPECT_FALSE(no.feasible);
  EXPECT_EQ(r.phys_of_channel, before.phys_of_channel);

  // A survivor already quarantined by an earlier failure is also barred.
  std::vector<bool> failed(2, false);
  failed[static_cast<std::size_t>(wide_phys)] = true;
  EXPECT_FALSE(remap_channels(g, r, thin_phys, failed).feasible);
}

// ------------------------------------------------------------------- binding

TEST(Binding, AssemblesFromPartitionResults) {
  ChannelFixture fx(3, 8);
  const board::Board board = board::mini2();
  SpatialResult spatial;
  spatial.pe_of_task = fx.pes;
  spatial.pe_clbs = {30, 30};
  const MemoryMapResult memory{
      std::vector<int>(fx.g.num_segments(), -1), {16384, 16384}, 0};
  const ChannelMapResult channels =
      map_channels(fx.g, fx.tasks, board, fx.pes);
  const core::Binding binding =
      make_binding(fx.g, board, spatial, memory, channels);
  EXPECT_EQ(binding.num_banks, 2u);
  EXPECT_EQ(binding.num_phys_channels, channels.phys.size());
  EXPECT_EQ(binding.bank_names[0], "MEM1");
  EXPECT_EQ(binding.channel_to_phys, channels.phys_of_channel);
}

}  // namespace
}  // namespace rcarb::part
