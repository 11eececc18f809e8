#include <gtest/gtest.h>

#include "core/insertion.hpp"
#include "fft/fft_design.hpp"
#include "fft/reference.hpp"
#include "fft/workload.hpp"
#include "rcsim/system_sim.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace rcarb::fft {
namespace {

// ----------------------------------------------------------- reference DFT

TEST(Reference, ImpulseHasFlatSpectrum) {
  // DFT of a delta is constant.
  const auto spectrum = dft4(std::array<std::int64_t, 4>{1, 0, 0, 0});
  for (const Complex64& x : spectrum) EXPECT_EQ(x, (Complex64{1, 0}));
}

TEST(Reference, ConstantHasDcOnly) {
  const auto spectrum = dft4(std::array<std::int64_t, 4>{3, 3, 3, 3});
  EXPECT_EQ(spectrum[0], (Complex64{12, 0}));
  for (std::size_t k = 1; k < 4; ++k)
    EXPECT_EQ(spectrum[k], (Complex64{0, 0}));
}

TEST(Reference, KnownVector) {
  // x = [0 1 2 3]: X0 = 6, X1 = -2+2j, X2 = -2, X3 = -2-2j.
  const auto s = dft4(std::array<std::int64_t, 4>{0, 1, 2, 3});
  EXPECT_EQ(s[0], (Complex64{6, 0}));
  EXPECT_EQ(s[1], (Complex64{-2, 2}));
  EXPECT_EQ(s[2], (Complex64{-2, 0}));
  EXPECT_EQ(s[3], (Complex64{-2, -2}));
}

TEST(Reference, LinearityOfRealDft) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::array<std::int64_t, 4> a, b, sum;
    for (std::size_t i = 0; i < 4; ++i) {
      a[i] = rng.next_in(-100, 100);
      b[i] = rng.next_in(-100, 100);
      sum[i] = a[i] + b[i];
    }
    const auto sa = dft4(a), sb = dft4(b), ss = dft4(sum);
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(ss[k].re, sa[k].re + sb[k].re);
      EXPECT_EQ(ss[k].im, sa[k].im + sb[k].im);
    }
  }
}

TEST(Reference, ComplexDftMatchesDirectSummation) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::array<Complex64, 4> x;
    for (auto& v : x) v = {rng.next_in(-50, 50), rng.next_in(-50, 50)};
    const auto got = dft4(x);
    // Direct O(N^2) DFT with exact twiddles (1, -j, -1, j powers).
    for (std::size_t k = 0; k < 4; ++k) {
      std::int64_t re = 0, im = 0;
      for (std::size_t n = 0; n < 4; ++n) {
        switch ((n * k) % 4) {
          case 0: re += x[n].re; im += x[n].im; break;          // *1
          case 1: re += x[n].im; im -= x[n].re; break;          // *-j
          case 2: re -= x[n].re; im -= x[n].im; break;          // *-1
          case 3: re -= x[n].im; im += x[n].re; break;          // *j
        }
      }
      EXPECT_EQ(got[k].re, re) << "k=" << k;
      EXPECT_EQ(got[k].im, im) << "k=" << k;
    }
  }
}

TEST(Reference, ParsevalHoldsFor2d) {
  // Sum |x|^2 * 16 == sum |X|^2 for the 4x4 2-D DFT (exact integers).
  Rng rng(11);
  Block block{};
  std::int64_t input_energy = 0;
  for (auto& row : block)
    for (auto& v : row) {
      v = rng.next_in(-20, 20);
      input_energy += v * v;
    }
  const BlockSpectrum spec = fft2d_4x4(block);
  std::int64_t output_energy = 0;
  for (const auto& col : spec)
    for (const Complex64& v : col) output_energy += v.re * v.re + v.im * v.im;
  EXPECT_EQ(output_energy, 16 * input_energy);
}

// -------------------------------------------------------------- the design

TEST(FftDesign, GraphShapeMatchesFig10) {
  const FftDesign d = build_fft_design();
  EXPECT_EQ(d.graph.num_tasks(), 12u);    // 4 F + 8 g
  EXPECT_EQ(d.graph.num_segments(), 12u); // MI, ML, MO x 4
  EXPECT_EQ(d.graph.num_channels(), 0u);  // all communication via memory
  // Every F precedes every g.
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_TRUE(d.graph.precedes(d.f[i], d.gr[j]));
      EXPECT_TRUE(d.graph.precedes(d.f[i], d.gi[j]));
    }
  // F tasks are mutually concurrent, as are g tasks.
  EXPECT_FALSE(d.graph.serialized(d.f[0], d.f[3]));
  EXPECT_FALSE(d.graph.serialized(d.gr[0], d.gi[2]));
}

TEST(FftDesign, FTasksScatterToEveryMl) {
  const FftDesign d = build_fft_design();
  for (std::size_t i = 0; i < 4; ++i) {
    const auto segs = d.graph.task(d.f[i]).program.accessed_segments();
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_NE(std::find(segs.begin(), segs.end(),
                          static_cast<int>(d.ml[j])),
                segs.end())
          << "F" << i << " must write ML" << j;
  }
}

TEST(FftDesign, GTasksReadExactlyTheirColumn) {
  const FftDesign d = build_fft_design();
  for (std::size_t j = 0; j < 4; ++j) {
    for (const tg::TaskId t : {d.gr[j], d.gi[j]}) {
      const auto segs = d.graph.task(t).program.accessed_segments();
      EXPECT_EQ(segs.size(), 2u) << "one ML and one MO";
      EXPECT_NE(std::find(segs.begin(), segs.end(),
                          static_cast<int>(d.ml[j])),
                segs.end());
      EXPECT_NE(std::find(segs.begin(), segs.end(),
                          static_cast<int>(d.mo[j])),
                segs.end());
    }
  }
}

/// Runs the whole design in one pass with one bank per segment.  The four
/// F tasks still contend (each scatters into every ML bank), so the design
/// goes through arbiter insertion like any other.
TEST(FftDesign, ComputesTheExactSpectrum) {
  const FftDesign d = build_fft_design({200, 380, 0, 0});
  core::Binding binding;
  binding.task_to_pe.assign(d.graph.num_tasks(), 0);
  binding.segment_to_bank.resize(12);
  for (int s = 0; s < 12; ++s) binding.segment_to_bank[static_cast<std::size_t>(s)] = s;
  binding.num_banks = 12;
  for (int b = 0; b < 12; ++b) binding.bank_names.push_back("B" + std::to_string(b));
  const core::InsertionResult ins =
      core::insert_arbitration(d.graph, binding, {});

  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    Block block{};
    for (auto& row : block)
      for (auto& v : row) v = rng.next_in(-128, 127);
    rcsim::SystemSimulator sim(ins.graph, binding, ins.plan);
    load_block(sim, d, block);
    std::vector<tg::TaskId> all;
    for (tg::TaskId t = 0; t < 12; ++t) all.push_back(t);
    sim.run(all);
    const BlockSpectrum got = read_spectrum(sim, d);
    const BlockSpectrum want = fft2d_4x4(block);
    for (std::size_t j = 0; j < 4; ++j)
      for (std::size_t k = 0; k < 4; ++k)
        EXPECT_EQ(got[j][k], want[j][k]) << "MO" << j << "[" << k << "]";
  }
}

// ----------------------------------------------------- paper (Fig. 11) pins

TEST(FftPaperPins, PartitionsMatchSec5Membership) {
  const FftDesign d = build_fft_design();
  const auto parts = paper_partitions(d);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size(), 6u);
  EXPECT_EQ(parts[1].size(), 4u);
  EXPECT_EQ(parts[2].size(), 2u);
}

TEST(FftPaperPins, Tp0MemoryMapPutsAllMlOnOneBank) {
  const FftDesign d = build_fft_design();
  const auto bank = paper_memory_map(d, 0);
  const int ml_bank = bank[d.ml[0]];
  for (std::size_t j = 1; j < 4; ++j) EXPECT_EQ(bank[d.ml[j]], ml_bank);
  EXPECT_EQ(bank[d.mo[0]], bank[d.mo[1]]);
  EXPECT_NE(bank[d.mo[0]], ml_bank);
}

TEST(FftPaperPins, BindingsCoverOnlyActiveSegments) {
  const FftDesign d = build_fft_design();
  for (std::size_t tp = 0; tp < 3; ++tp) {
    const core::Binding b = paper_binding(d, tp);
    EXPECT_EQ(b.segment_to_bank.size(), 12u);
    EXPECT_EQ(b.num_banks, 4u);
  }
  EXPECT_THROW(paper_binding(d, 3), rcarb::CheckError);
}

// ------------------------------------------------------------- cost models

TEST(Workload, BlockCount) {
  EXPECT_EQ(ImageWorkload{}.blocks(), 128u * 128u);
  EXPECT_EQ((ImageWorkload{256, 128}).blocks(), 64u * 32u);
}

TEST(Workload, HardwareSecondsScaleWithCyclesAndClock) {
  const ImageWorkload w{};
  const HardwareModel hw{6.0};
  EXPECT_NEAR(hw.seconds(w, 1600), 4.37, 0.05);
  EXPECT_GT(hw.seconds(w, 3200), 2 * hw.seconds(w, 1600) - 0.01);
  const HardwareModel faster{12.0};
  EXPECT_NEAR(faster.seconds(w, 1600), hw.seconds(w, 1600) / 2, 1e-9);
}

TEST(Workload, PentiumModelReproducesPaperBallpark) {
  // The paper measured 6.8 s on the Pentium-150; the calibrated model must
  // stay in that band.
  const PentiumModel cpu;
  EXPECT_NEAR(cpu.seconds(ImageWorkload{}), 6.8, 0.4);
}

TEST(Workload, SwOpCountsAreNaiveDftSized) {
  const SwOpCounts counts = sw_op_counts_per_block();
  EXPECT_EQ(counts.trig_calls, 256u);  // 2 per term, 128 terms
  EXPECT_EQ(counts.fmuls, 512u);
  EXPECT_GT(counts.loop_iters, 128u);
}

}  // namespace
}  // namespace rcarb::fft
