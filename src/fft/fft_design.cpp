#include "fft/fft_design.hpp"

#include "support/check.hpp"
#include "support/text.hpp"

namespace rcarb::fft {

namespace {

/// Area annotations (CLBs).  Chosen so that four F tasks plus two g tasks
/// fill a Wildforce partition, reproducing the paper's three partitions.
constexpr std::size_t kFAreaClbs = 200;
constexpr std::size_t kGAreaClbs = 380;
/// Datapath padding cycles per task: the 1-cycle-per-op IR is far leaner
/// than the multi-cycle HLS datapaths SPARCS generated (address
/// generation, serialized butterflies, controller states), so each task
/// carries a busy-cycle annotation.  Calibrated once so the pinned Sec. 5
/// flow lands on the paper's ~1600 cycles per 4x4 block (4.4 s for 512x512
/// at 6 MHz), then held fixed for every experiment.
constexpr std::int64_t kFPadCycles = 210;
constexpr std::int64_t kGPadCycles = 400;

/// F_i: load row i, 4-point real DFT, scatter transposed into ML_0..ML_3.
/// ML_j layout: words [0..3] = re of rows 0..3, words [4..7] = im.
tg::Program make_f_program(const FftDesign& d, int i) {
  const int mi = static_cast<int>(d.mi[static_cast<std::size_t>(i)]);
  const auto ml = [&](int j) {
    return static_cast<int>(d.ml[static_cast<std::size_t>(j)]);
  };
  tg::Program p;
  p.load_imm(0, 0);  // address base
  // x0..x3 -> r1..r4
  for (int n = 0; n < 4; ++n) p.load(1 + n, mi, 0, n);
  p.compute(kFPadCycles);
  // Row DFT (twiddles are 1, -j, -1, j — pure add/sub):
  p.add(5, 1, 2).add(6, 3, 4).add(7, 5, 6);    // X0.re
  p.sub(8, 1, 3);                               // X1.re == X3.re
  p.sub(9, 4, 2);                               // X1.im
  p.sub(10, 1, 2).sub(11, 3, 4).add(12, 10, 11);  // X2.re
  p.sub(13, 2, 4);                              // X3.im
  p.load_imm(14, 0);                            // X0.im == X2.im == 0
  // Scatter transposed: ML_k[i] = X_k.re, ML_k[4+i] = X_k.im.
  p.store(ml(0), 0, 7, i).store(ml(0), 0, 14, 4 + i);
  p.store(ml(1), 0, 8, i).store(ml(1), 0, 9, 4 + i);
  p.store(ml(2), 0, 12, i).store(ml(2), 0, 14, 4 + i);
  p.store(ml(3), 0, 8, i).store(ml(3), 0, 13, 4 + i);
  p.halt();
  return p;
}

/// g_jr: column-j DFT, real outputs into MO_j[0..3].
tg::Program make_gr_program(const FftDesign& d, int j) {
  const int ml = static_cast<int>(d.ml[static_cast<std::size_t>(j)]);
  const int mo = static_cast<int>(d.mo[static_cast<std::size_t>(j)]);
  tg::Program p;
  p.load_imm(0, 0);
  for (int n = 0; n < 4; ++n) p.load(1 + n, ml, 0, n);      // re0..re3
  for (int n = 0; n < 4; ++n) p.load(5 + n, ml, 0, 4 + n);  // im0..im3
  p.compute(kGPadCycles);
  p.add(9, 1, 2).add(10, 3, 4).add(11, 9, 10);     // Y0.re = re0+re1+re2+re3
  p.add(12, 1, 6).sub(13, 12, 3).sub(14, 13, 8);   // Y1.re = re0+im1-re2-im3
  p.sub(15, 1, 2).sub(16, 3, 4).add(17, 15, 16);   // Y2.re = re0-re1+re2-re3
  p.sub(18, 1, 6).sub(19, 18, 3).add(20, 19, 8);   // Y3.re = re0-im1-re2+im3
  p.store(mo, 0, 11, 0).store(mo, 0, 14, 1);
  p.store(mo, 0, 17, 2).store(mo, 0, 20, 3);
  p.halt();
  return p;
}

/// g_ji: column-j DFT, imaginary outputs into MO_j[4..7].
tg::Program make_gi_program(const FftDesign& d, int j) {
  const int ml = static_cast<int>(d.ml[static_cast<std::size_t>(j)]);
  const int mo = static_cast<int>(d.mo[static_cast<std::size_t>(j)]);
  tg::Program p;
  p.load_imm(0, 0);
  for (int n = 0; n < 4; ++n) p.load(1 + n, ml, 0, n);      // re0..re3
  for (int n = 0; n < 4; ++n) p.load(5 + n, ml, 0, 4 + n);  // im0..im3
  p.compute(kGPadCycles);
  p.add(9, 5, 6).add(10, 7, 8).add(11, 9, 10);     // Y0.im = im0+im1+im2+im3
  p.sub(12, 5, 2).sub(13, 12, 7).add(14, 13, 4);   // Y1.im = im0-re1-im2+re3
  p.sub(15, 5, 6).sub(16, 7, 8).add(17, 15, 16);   // Y2.im = im0-im1+im2-im3
  p.add(18, 5, 2).sub(19, 18, 7).sub(20, 19, 4);   // Y3.im = im0+re1-im2-re3
  p.store(mo, 0, 11, 4).store(mo, 0, 14, 5);
  p.store(mo, 0, 17, 6).store(mo, 0, 20, 7);
  p.halt();
  return p;
}

}  // namespace

FftDesign build_fft_design() {
  FftDesign d;
  for (std::size_t i = 0; i < 4; ++i)
    d.mi[i] = d.graph.add_segment(signal_name("MI", i + 1), 4 * 2, 4);
  for (std::size_t i = 0; i < 4; ++i)
    d.ml[i] = d.graph.add_segment(signal_name("ML", i + 1), 8 * 2, 8);
  for (std::size_t i = 0; i < 4; ++i)
    d.mo[i] = d.graph.add_segment(signal_name("MO", i + 1), 8 * 2, 8);

  // Creation order fixes the greedy temporal fill: F1..F4, g1r..g4r,
  // g1i..g4i, matching the paper's partition membership.
  for (std::size_t i = 0; i < 4; ++i)
    d.f[i] = d.graph.add_task(signal_name("F", i + 1), tg::Program{},
                              kFAreaClbs);
  for (std::size_t j = 0; j < 4; ++j)
    d.gr[j] = d.graph.add_task(std::string("g")
                                   .append(std::to_string(j + 1))
                                   .append("r"),
                               tg::Program{}, kGAreaClbs);
  for (std::size_t j = 0; j < 4; ++j)
    d.gi[j] = d.graph.add_task(std::string("g")
                                   .append(std::to_string(j + 1))
                                   .append("i"),
                               tg::Program{}, kGAreaClbs);

  for (std::size_t i = 0; i < 4; ++i)
    d.graph.task(d.f[i]).program = make_f_program(d, static_cast<int>(i));
  for (std::size_t j = 0; j < 4; ++j) {
    d.graph.task(d.gr[j]).program = make_gr_program(d, static_cast<int>(j));
    d.graph.task(d.gi[j]).program = make_gi_program(d, static_cast<int>(j));
  }

  // Every g waits for every F (each F contributes to every ML column).
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      d.graph.add_control_dep(d.f[i], d.gr[j]);
      d.graph.add_control_dep(d.f[i], d.gi[j]);
    }
  }
  d.graph.validate();
  return d;
}

std::vector<std::vector<tg::TaskId>> paper_partitions(const FftDesign& d) {
  return {
      {d.f[0], d.f[1], d.f[2], d.f[3], d.gr[0], d.gr[1]},
      {d.gr[2], d.gr[3], d.gi[0], d.gi[1]},
      {d.gi[2], d.gi[3]},
  };
}

std::vector<int> paper_placement(const FftDesign& d, std::size_t tp_index) {
  std::vector<int> pe(d.graph.num_tasks(), -1);
  switch (tp_index) {
    case 0:
      // Fig. 11: PE1 {F2}, PE2 {F1, F3}, PE3 {g1r, F4}, PE4 {g2r}.
      pe[d.f[1]] = 0;
      pe[d.f[0]] = 1;
      pe[d.f[2]] = 1;
      pe[d.gr[0]] = 2;
      pe[d.f[3]] = 2;
      pe[d.gr[1]] = 3;
      break;
    case 1:
      pe[d.gr[2]] = 0;
      pe[d.gr[3]] = 1;
      pe[d.gi[0]] = 2;
      pe[d.gi[1]] = 3;
      break;
    case 2:
      pe[d.gi[2]] = 0;
      pe[d.gi[3]] = 1;
      break;
    default:
      RCARB_CHECK(false, "the paper flow has three partitions");
  }
  return pe;
}

std::vector<int> paper_memory_map(const FftDesign& d, std::size_t tp_index) {
  std::vector<int> bank(d.graph.num_segments(), -1);
  switch (tp_index) {
    case 0:
      // Fig. 11: MEM1 {MI2}, MEM2 {MI1, MI3, ML1..ML4}, MEM3 {MI4},
      // MEM4 {MO1, MO2}.  The ML bank is contested by all six tasks
      // (Arb6); the MO bank by g1r and g2r (Arb2).
      bank[d.mi[1]] = 0;
      bank[d.mi[0]] = 1;
      bank[d.mi[2]] = 1;
      for (std::size_t j = 0; j < 4; ++j) bank[d.ml[j]] = 1;
      bank[d.mi[3]] = 2;
      bank[d.mo[0]] = 3;
      bank[d.mo[1]] = 3;
      break;
    case 1:
      // All ML segments again share MEM2 (Arb4 over g3r, g4r, g1i, g2i);
      // MO2 rides along with its writer already on that arbiter.
      for (std::size_t j = 0; j < 4; ++j) bank[d.ml[j]] = 1;
      bank[d.mo[2]] = 1;
      bank[d.mo[0]] = 0;
      bank[d.mo[1]] = 2;
      bank[d.mo[3]] = 3;
      break;
    case 2:
      // Four active segments, four banks: no sharing, no arbiter.
      bank[d.ml[2]] = 0;
      bank[d.mo[2]] = 1;
      bank[d.ml[3]] = 2;
      bank[d.mo[3]] = 3;
      break;
    default:
      RCARB_CHECK(false, "the paper flow has three partitions");
  }
  return bank;
}

core::Binding paper_binding(const FftDesign& d, std::size_t tp_index) {
  core::Binding binding;
  binding.task_to_pe = paper_placement(d, tp_index);
  binding.segment_to_bank = paper_memory_map(d, tp_index);
  binding.channel_to_phys.assign(d.graph.num_channels(), -1);
  binding.num_banks = 4;
  binding.bank_names = {"MEM1", "MEM2", "MEM3", "MEM4"};
  binding.num_phys_channels = 0;
  return binding;
}

void load_block(rcsim::SystemSimulator& sim, const FftDesign& d,
                const Block& block) {
  for (std::size_t r = 0; r < 4; ++r) {
    std::vector<std::int64_t> row(block[r].begin(), block[r].end());
    sim.write_segment(d.mi[r], row);
  }
  // Clear the intermediate and output segments between blocks.
  for (std::size_t j = 0; j < 4; ++j) {
    sim.write_segment(d.ml[j], {});
    sim.write_segment(d.mo[j], {});
  }
}

BlockSpectrum read_spectrum(const rcsim::SystemSimulator& sim,
                            const FftDesign& d) {
  BlockSpectrum out;
  for (std::size_t j = 0; j < 4; ++j) {
    const auto& words = sim.segment_data(d.mo[j]);
    RCARB_ASSERT(words.size() == 8, "MO segment must hold 8 words");
    for (std::size_t k = 0; k < 4; ++k)
      out[j][k] = {words[k], words[4 + k]};
  }
  return out;
}

}  // namespace rcarb::fft
