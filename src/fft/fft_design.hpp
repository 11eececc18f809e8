// The Fig. 10 FFT taskgraph and the Fig. 11 pinned binding.
//
// Four "F" tasks perform the first FFT dimension: F_i reads input row i
// from segment MI_i and scatters its (complex) row spectrum *transposed*
// across the ML segments, so that ML_j accumulates column j.  Eight "g"
// tasks perform the second dimension: g_jr / g_ji read ML_j and write the
// real / imaginary halves of MO_j.  Control dependencies make every g task
// wait for every F task ("the g tasks execute after termination of the F
// tasks"), which is exactly the serialization the paper's elision
// optimization can exploit.
//
// Task areas carry the SPARCS light-weight-HLS annotations that make the
// Wildforce board produce the paper's three temporal partitions; the
// paper_* helpers pin spatial placement and memory mapping to Fig. 11 so
// the Sec. 5 arbiter profile {6,2}/{4}/{} is reproduced bit-for-bit, while
// the automatic flow is free to find its own (often better) mapping.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/insertion.hpp"
#include "fft/reference.hpp"
#include "rcsim/system_sim.hpp"
#include "taskgraph/taskgraph.hpp"

namespace rcarb::fft {

struct FftDesign {
  tg::TaskGraph graph{"fft4x4"};
  std::array<tg::SegmentId, 4> mi{};  // input rows
  std::array<tg::SegmentId, 4> ml{};  // transposed row spectra (columns)
  std::array<tg::SegmentId, 4> mo{};  // column spectra
  std::array<tg::TaskId, 4> f{};      // F1..F4
  std::array<tg::TaskId, 4> gr{};     // g1r..g4r
  std::array<tg::TaskId, 4> gi{};     // g1i..g4i
};

/// Builds the taskgraph of Fig. 10.
[[nodiscard]] FftDesign build_fft_design();

/// The paper's three temporal partitions (task membership).
[[nodiscard]] std::vector<std::vector<tg::TaskId>> paper_partitions(
    const FftDesign& design);

/// Fig. 11 spatial placement for one partition: PE per TaskId (-1 outside).
[[nodiscard]] std::vector<int> paper_placement(const FftDesign& design,
                                               std::size_t tp_index);

/// Fig. 11 memory mapping for one partition: bank per SegmentId (-1
/// inactive).  Bank ids follow board::wildforce() order.
[[nodiscard]] std::vector<int> paper_memory_map(const FftDesign& design,
                                                std::size_t tp_index);

/// Assembles the pinned core::Binding for one partition (no channels — the
/// FFT design communicates through memory).
[[nodiscard]] core::Binding paper_binding(const FftDesign& design,
                                          std::size_t tp_index);

/// Preloads an input block into the MI segments.
void load_block(rcsim::SystemSimulator& sim, const FftDesign& design,
                const Block& block);

/// Reads the simulated spectrum back out of the MO segments.
[[nodiscard]] BlockSpectrum read_spectrum(const rcsim::SystemSimulator& sim,
                                          const FftDesign& design);

}  // namespace rcarb::fft
