#include "flow/sparcs_flow.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"

namespace rcarb::flow {

FlowReport run_flow(const tg::TaskGraph& input, const board::Board& board,
                    const FlowOptions& options) {
  tg::TaskGraph graph = input;  // annotated copy
  part::annotate_areas(graph);
  graph.validate();

  FlowReport report;

  // ---- Temporal partitioning (or pinned memberships). ----
  std::vector<std::vector<tg::TaskId>> partitions;
  if (options.pinned_partitions != nullptr) {
    partitions = *options.pinned_partitions;
  } else {
    part::TemporalOptions temporal = options.temporal;
    temporal.price_arbiters = true;
    const part::TemporalResult tr =
        part::temporal_partition(graph, board, temporal);
    for (const part::TemporalPartition& tp : tr.partitions)
      partitions.push_back(tp.tasks);
  }

  // Memory state carried across partitions (the board is reconfigured, the
  // SRAM banks keep their contents).
  std::vector<std::vector<std::int64_t>> memory_state(graph.num_segments());
  for (tg::SegmentId s = 0; s < graph.num_segments(); ++s)
    memory_state[s].assign(graph.segment(s).words, 0);
  for (const auto& [seg, words] : options.preload) {
    RCARB_CHECK(seg < memory_state.size(), "preload segment out of range");
    RCARB_CHECK(words.size() <= memory_state[seg].size(),
                "preload larger than segment");
    std::copy(words.begin(), words.end(), memory_state[seg].begin());
  }

  double min_fmax = 0.0;
  bool any_arbiter = false;

  for (std::size_t tp = 0; tp < partitions.size(); ++tp) {
    PartitionReport pr;
    pr.tasks = partitions[tp];

    // ---- Binding: pinned, or spatial + memory + channel mapping. ----
    if (options.pinned_binding) {
      pr.binding = options.pinned_binding(tp);
    } else {
      pr.spatial = part::spatial_partition(graph, pr.tasks, board,
                                           options.spatial);
      pr.memory =
          part::map_memory(graph, pr.tasks, board, pr.spatial.pe_of_task);
      pr.channels = part::map_channels(graph, pr.tasks, board,
                                       pr.spatial.pe_of_task);
      pr.binding =
          part::make_binding(graph, board, pr.spatial, pr.memory, pr.channels);
    }

    // ---- The paper's contribution: automatic arbiter insertion. ----
    core::InsertionResult ins =
        core::insert_arbitration(graph, pr.binding, options.insertion,
                                 &pr.tasks);
    pr.plan = std::move(ins.plan);
    pr.rewritten = std::move(ins.graph);

    // ---- Arbiter synthesis & characterization. ----
    // Through the process-wide memo: one netlist per distinct structure
    // across every run_flow call, of the kind the simulator instantiates.
    for (const core::ArbiterInstance& inst : pr.plan.arbiters) {
      const core::ArbiterCharacteristics& chars =
          core::generate_cached(
              {.n = static_cast<int>(inst.ports.size()), .kind = inst.kind})
              .chars;
      pr.arbiter_chars.push_back(chars);
      report.total_arbiter_clbs += chars.clbs;
      min_fmax = any_arbiter ? std::min(min_fmax, chars.fmax_mhz)
                             : chars.fmax_mhz;
      any_arbiter = true;
    }

    // ---- Cycle-level simulation with carried memory. ----
    if (options.simulate) {
      rcsim::SystemSimulator sim(pr.rewritten, pr.binding, pr.plan,
                                 options.sim);
      for (tg::SegmentId s = 0; s < graph.num_segments(); ++s)
        sim.write_segment(s, memory_state[s]);
      pr.sim = sim.run(pr.tasks);
      report.total_cycles += pr.sim.cycles;
      for (tg::SegmentId s = 0; s < graph.num_segments(); ++s)
        memory_state[s] = sim.segment_data(s);
    }

    report.partitions.push_back(std::move(pr));
  }

  report.min_arbiter_fmax_mhz = any_arbiter ? min_fmax : 0.0;
  report.design_clock_mhz =
      any_arbiter ? std::min(options.datapath_clock_mhz, min_fmax)
                  : options.datapath_clock_mhz;
  report.final_memory = std::move(memory_state);
  return report;
}

std::string FlowReport::summary() const {
  std::ostringstream os;
  os << "temporal partitions: " << partitions.size() << '\n';
  for (std::size_t tp = 0; tp < partitions.size(); ++tp) {
    const PartitionReport& pr = partitions[tp];
    os << "  TP" << tp << ": " << pr.tasks.size() << " tasks, arbiters [";
    for (std::size_t a = 0; a < pr.plan.arbiters.size(); ++a) {
      if (a != 0) os << ", ";
      os << pr.plan.arbiters[a].ports.size() << "-input on "
         << pr.plan.arbiters[a].resource_name;
    }
    os << "]";
    if (pr.sim.cycles > 0) os << ", " << pr.sim.cycles << " cycles";
    os << '\n';
    for (const obs::ArbiterMetrics& m : pr.sim.arbiter_obs)
      os << "    " << m.summarize() << '\n';
  }
  os << "total arbiter area: " << total_arbiter_clbs << " CLBs\n";
  os << "design clock: " << design_clock_mhz << " MHz";
  if (min_arbiter_fmax_mhz > 0.0)
    os << " (slowest arbiter Fmax " << min_arbiter_fmax_mhz << " MHz)";
  os << '\n';
  if (total_cycles > 0) os << "total cycles: " << total_cycles << '\n';
  return os.str();
}

}  // namespace rcarb::flow
