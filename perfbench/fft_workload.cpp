// fft_image: the paper's Sec. 5 application.  Set-up runs flow::run_flow
// with the pinned Fig. 11 partitions and binding on the Wildforce board and
// builds one rcsim::SystemSimulator per temporal partition from its
// PartitionReport.  The timed loop then pushes every 4x4 block of a seeded
// 512x512 image through TP0 -> TP1 -> TP2, carrying the segments between
// partitions, and checks each spectrum bit-exact against fft::fft2d_4x4.
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "board/board.hpp"
#include "fft/fft_design.hpp"
#include "fft/reference.hpp"
#include "fft/workload.hpp"
#include "flow/sparcs_flow.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using namespace rcarb;

constexpr std::size_t kImageSide = 512;
constexpr std::size_t kBlocksPerRow = kImageSide / 4;
constexpr std::size_t kBlocksPerImage = kBlocksPerRow * kBlocksPerRow;
/// Blocks per chunk of the timed loop.
constexpr std::size_t kChunkBlocks = 64;
/// The first blocks, always run, that the modelled metrics describe.
constexpr std::size_t kModelledBlocks = 1024;

constexpr const char* kTpSpan[] = {"rcsim.tp0", "rcsim.tp1", "rcsim.tp2"};

fft::Block image_block(const std::vector<std::int64_t>& image,
                       std::size_t b) {
  const std::size_t x0 = (b % kBlocksPerRow) * 4;
  const std::size_t y0 = (b / kBlocksPerRow) * 4;
  fft::Block block{};
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      block[r][c] = image[(y0 + r) * kImageSide + x0 + c];
  return block;
}

bool flow_spectrum_exact(const flow::FlowReport& report,
                         const fft::FftDesign& d, const fft::Block& block) {
  const fft::BlockSpectrum want = fft::fft2d_4x4(block);
  for (std::size_t j = 0; j < 4; ++j) {
    const std::vector<std::int64_t>& words = report.final_memory[d.mo[j]];
    for (std::size_t k = 0; k < 4; ++k)
      if (words[k] != want[j][k].re || words[4 + k] != want[j][k].im)
        return false;
  }
  return true;
}

/// Modelled per-block counts summed over the partitions.
struct BlockModel {
  std::uint64_t cycles[3] = {0, 0, 0};
  std::uint64_t grant_wait = 0;
  std::uint64_t ops = 0;
};

void add_tasks(const rcsim::SimResult& r, BlockModel& m) {
  for (const rcsim::TaskStats& t : r.tasks) {
    m.grant_wait += t.grant_wait_cycles;
    m.ops += t.ops_retired;
  }
}

}  // namespace

Outcome run_fft_image(const Args& args, Tracer& tracer) {
  Outcome out;

  // ---- Set-up: flow, per-partition simulators, image. ----
  fft::FftDesign design;
  std::vector<std::vector<tg::TaskId>> partitions;
  std::vector<std::unique_ptr<rcsim::SystemSimulator>> sims;
  std::vector<std::int64_t> image;
  bool flow_ok = false;
  std::uint64_t flow_cycles = 0;
  Measurement measurement(args, tracer, [&] {
    const Scope span(tracer, "setup");
    design = fft::build_fft_design();
    partitions = fft::paper_partitions(design);
    Rng rng(derive_seed(args.seed, 0));
    image.resize(kImageSide * kImageSide);
    for (std::int64_t& px : image) px = rng.next_in(0, 255);
    const fft::Block first = image_block(image, 0);

    flow::FlowOptions options;
    for (std::size_t r = 0; r < 4; ++r)
      options.preload.emplace_back(
          design.mi[r],
          std::vector<std::int64_t>(first[r].begin(), first[r].end()));
    options.pinned_partitions = &partitions;
    options.pinned_binding = [&](std::size_t tp) {
      return fft::paper_binding(design, tp);
    };
    flow::FlowReport report;
    {
      const Scope flow_span(tracer, "flow.run_flow");
      report = flow::run_flow(design.graph, board::wildforce(), options);
    }
    flow_ok = report.partitions.size() == 3 &&
              flow_spectrum_exact(report, design, first);
    out.check(flow_ok, "run_flow: not three partitions or spectrum not exact");
    flow_cycles = report.total_cycles;

    const Scope build_span(tracer, "rcsim.build");
    sims.clear();
    for (const flow::PartitionReport& pr : report.partitions)
      sims.push_back(std::make_unique<rcsim::SystemSimulator>(
          pr.rewritten, pr.binding, pr.plan));
  });
  if (!flow_ok) return out;
  out.notes.push_back("pinned flow: 3 partitions, " +
                      std::to_string(flow_cycles) + " cycles per block");

  // ---- Timed loop: the image's blocks through TP0 -> TP1 -> TP2. ----
  const std::size_t num_segments = design.graph.num_segments();
  std::vector<BlockModel> traced_models;
  BlockModel modelled;  // summed over the first kModelledBlocks blocks
  std::size_t next_block = 0;
  std::size_t exact_blocks = 0;
  auto run_block = [&](std::size_t b) -> BlockModel {
    const std::uint64_t group = b + 1;
    const Scope block_span(tracer, "fft.block", group);
    const fft::Block block = image_block(image, b % kBlocksPerImage);
    BlockModel m;
    fft::load_block(*sims[0], design, block);
    for (std::size_t tp = 0; tp < 3; ++tp) {
      if (tp > 0) {
        const Scope span(tracer, "rcsim.carry", group);
        for (tg::SegmentId s = 0; s < num_segments; ++s)
          sims[tp]->write_segment(s, sims[tp - 1]->segment_data(s));
      }
      const Scope span(tracer, kTpSpan[tp], group);
      const rcsim::SimResult r = sims[tp]->run(partitions[tp]);
      m.cycles[tp] = r.cycles;
      add_tasks(r, m);
    }
    const Scope span(tracer, "fft.check", group);
    const bool exact =
        fft::read_spectrum(*sims[2], design) == fft::fft2d_4x4(block);
    out.check(exact, exact ? std::string()
                           : "block " + std::to_string(b) +
                                 " spectrum not bit-exact");
    return m;
  };
  measurement.run(kModelledBlocks / kChunkBlocks, [&](std::size_t) {
    ChunkWork work;
    const bool traced = tracer.enabled();
    for (std::size_t k = 0; k < kChunkBlocks; ++k, ++next_block) {
      const std::uint64_t failed_before = out.failed;
      BlockModel m;
      try {
        m = run_block(next_block);
      } catch (const std::exception& e) {
        out.check(false,
                  "block " + std::to_string(next_block) + ": " + e.what());
      }
      work.cycles +=
          static_cast<double>(m.cycles[0] + m.cycles[1] + m.cycles[2]);
      if (out.failed == failed_before) {
        work.goodput += 1.0;
        ++exact_blocks;
      }
      if (traced) traced_models.push_back(m);
      if (next_block < kModelledBlocks) {
        for (std::size_t tp = 0; tp < 3; ++tp)
          modelled.cycles[tp] += m.cycles[tp];
        modelled.grant_wait += m.grant_wait;
        modelled.ops += m.ops;
      }
    }
    return work;
  });
  measurement.record(out);
  out.notes.push_back(std::to_string(next_block) + " blocks (" +
                      std::to_string(next_block / kBlocksPerImage) +
                      " whole images)");

  // ---- Modelled per-block metrics over the first kModelledBlocks. ----
  const auto per_block = [](std::uint64_t total) {
    return static_cast<double>(total) / static_cast<double>(kModelledBlocks);
  };
  auto& m = out.metrics;
  m["hw_cycles_per_block"] = per_block(
      modelled.cycles[0] + modelled.cycles[1] + modelled.cycles[2]);
  m["rcsim.tp0.cycles"] = per_block(modelled.cycles[0]);
  m["rcsim.tp1.cycles"] = per_block(modelled.cycles[1]);
  m["rcsim.tp2.cycles"] = per_block(modelled.cycles[2]);
  m["rcsim.grant_wait_cycles"] = per_block(modelled.grant_wait);
  m["rcsim.ops_retired"] = per_block(modelled.ops);
  m["fail_share"] = static_cast<double>(next_block - exact_blocks) /
                    static_cast<double>(next_block);

  // ---- Per-layer host time from the spans. ----
  m["flow.run_flow_s"] = median(tracer.durations("flow.run_flow"));
  double tp_seconds = 0.0;
  std::uint64_t ops = 0;
  for (const BlockModel& b : traced_models) ops += b.ops;
  static constexpr const char* kNsPerCycle[] = {
      "rcsim.tp0.ns_per_cycle", "rcsim.tp1.ns_per_cycle",
      "rcsim.tp2.ns_per_cycle"};
  for (std::size_t tp = 0; tp < 3; ++tp) {
    const std::vector<double> runs = tracer.durations(kTpSpan[tp]);
    std::vector<double> ns_per_cycle;
    for (std::size_t j = 0; j < runs.size(); ++j) {
      tp_seconds += runs[j];
      ns_per_cycle.push_back(
          runs[j] / static_cast<double>(traced_models[j].cycles[tp]) * 1e9);
    }
    m[kNsPerCycle[tp]] = median(ns_per_cycle);
  }
  if (ops > 0)
    m["rcsim.ns_per_op"] = tp_seconds / static_cast<double>(ops) * 1e9;
  m["rcsim.carry_s"] = median(tracer.durations("rcsim.carry"));
  m["fft.check_s"] = median(tracer.durations("fft.check"));
  return out;
}

}  // namespace perfbench
