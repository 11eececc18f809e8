// Channel sharing (paper Secs. 2.2, 4.3 and Table 1): two logical channels
// merged onto one physical inter-FPGA channel.  The example shows the whole
// path: the channel mapper running out of pins and merging, the insertion
// pass arbitrating the two source tasks, and the receiver-side registers
// keeping an early transfer alive until its consumer wants it.
//
//   $ ./channel_sharing
#include <cstdio>

#include "board/board.hpp"
#include "core/insertion.hpp"
#include "partition/binding.hpp"
#include "partition/channel_map.hpp"
#include "partition/memory_map.hpp"
#include "partition/spatial.hpp"
#include "rcsim/system_sim.hpp"

int main() {
  using namespace rcarb;

  // Three producer->consumer pairs crossing mini2's single 16-bit link,
  // each wanting 8 wires: 24 > 16, so someone has to share.
  tg::TaskGraph graph("sharing");
  const auto out = graph.add_segment("out", 64, 8);
  std::vector<tg::TaskId> tasks;
  for (int i = 0; i < 3; ++i) {
    tg::Program producer;
    producer.compute(i * 2).load_imm(0, 100 + i).send(i, 0).halt();
    tg::Program consumer;
    consumer.compute(10 - i)
        .recv(1, i)
        .load_imm(0, 0)
        .store(static_cast<int>(out), 0, 1, i)
        .halt();
    const auto p = graph.add_task("prod" + std::to_string(i), producer, 60);
    const auto c = graph.add_task("cons" + std::to_string(i), consumer, 60);
    graph.add_channel(std::string("c").append(std::to_string(i)), 8, p, c);
    tasks.push_back(p);
    tasks.push_back(c);
  }

  const board::Board board = board::mini2();
  // Producers on PE1, consumers on PE2 (forced by the fixed placement the
  // spatial partitioner finds for this symmetric case anyway).
  std::vector<int> pes(graph.num_tasks());
  for (std::size_t t = 0; t < graph.num_tasks(); ++t)
    pes[t] = t % 2 == 0 ? 0 : 1;

  const part::ChannelMapResult channels =
      part::map_channels(graph, tasks, board, pes);
  std::printf("channel mapping on %s (16-bit link):\n", board.name().c_str());
  for (std::size_t ph = 0; ph < channels.phys.size(); ++ph) {
    const auto& phys = channels.phys[ph];
    std::printf("  phys[%zu] %-22s width=%d  carries %zu logical channel(s)\n",
                ph, phys.name.c_str(), phys.width_bits, phys.logical.size());
  }
  std::printf("  merged logical channels: %zu\n\n", channels.merged_channels);

  part::SpatialResult spatial;
  spatial.pe_of_task = pes;
  spatial.pe_clbs = {180, 180};
  part::MemoryMapResult memory;
  memory.bank_of_segment.assign(graph.num_segments(), 0);
  memory.bank_free_bytes = {16 * 1024, 16 * 1024};
  const core::Binding binding =
      part::make_binding(graph, board, spatial, memory, channels);

  const core::InsertionResult ins =
      core::insert_arbitration(graph, binding, {});
  std::printf("arbiters inserted:\n");
  for (const auto& a : ins.plan.arbiters)
    std::printf("  %zu-input on %s\n", a.ports.size(),
                a.resource_name.c_str());
  std::printf("line merges planned: %zu (tristate buses, OR-ed enables)\n\n",
              ins.plan.line_merges.size());

  rcsim::SystemSimulator sim(ins.graph, binding, ins.plan);
  const rcsim::SimResult result = sim.run(tasks);
  std::printf("simulation: %llu cycles, %llu conflicts, %llu clobbered reads\n",
              static_cast<unsigned long long>(result.cycles),
              static_cast<unsigned long long>(result.channel_conflicts),
              static_cast<unsigned long long>(result.clobbered_reads));
  for (std::size_t i = 0; i < 3; ++i)
    std::printf("  consumer %zu received %lld (expected %zu)\n", i,
                static_cast<long long>(sim.segment_data(out)[i]), 100 + i);
  std::printf(
      "\nall transfers arrive intact over the shared wires: the receiving-\n"
      "end registers (Fig. 3) plus the request/grant protocol do the work.\n");
  return 0;
}
