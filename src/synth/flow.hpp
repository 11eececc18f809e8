// FSM synthesis flows.
//
// Bundles encoding, two-level minimization, AIG construction, LUT mapping
// and CLB packing into one call.  Two presets model the two commercial
// tools of the paper's Figs. 6-7:
//   * kSynplifyLike — always one-hot regardless of the requested encoding
//     (the paper notes "Synplify used one-hot encoding regardless of what
//     the VHDL files specified"), area-oriented mapping.
//   * kExpressLike  — honors the requested encoding, depth-oriented
//     mapping (FPGA Express implemented both schemes).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "synth/clb_pack.hpp"
#include "synth/elaborate.hpp"
#include "synth/encoding.hpp"
#include "synth/fsm.hpp"
#include "synth/lut_map.hpp"

namespace rcarb::synth {

/// Synthesis tool persona.
enum class FlowKind : std::uint8_t { kSynplifyLike, kExpressLike };

[[nodiscard]] const char* to_string(FlowKind k);

struct FlowOptions {
  FlowKind kind = FlowKind::kExpressLike;
  Encoding encoding = Encoding::kOneHot;  // the "VHDL-requested" encoding
  /// Two-level minimization of every cover; wide or large covers only get
  /// cheap reductions (limits in flow.cpp).
  bool run_minimizer = true;
  /// SEU hardening: elaborate with illegal-state recovery logic (see
  /// synth::elaborate).  Costs area; Fig. 6-style figures stay unhardened.
  bool harden = false;
};

struct SynthResult {
  netlist::Netlist netlist;
  Encoding used_encoding = Encoding::kOneHot;
  ClbReport clb;
  MapStats map;
  std::size_t aig_ands = 0;
  std::size_t sop_cubes = 0;  // total cubes after minimization
};

/// Synthesizes a validated FSM to a LUT/DFF netlist and packs it.
/// Netlist interface: one PI per FSM input (FSM input names), one PO per FSM
/// output (FSM output names); state registers are nets "state<b>".
[[nodiscard]] SynthResult synthesize_fsm(const Fsm& fsm,
                                         const FlowOptions& options);

/// Lower half of the flow, shared with structural generators: takes the
/// combinational AIG of an already-encoded machine (AIG inputs must be
/// [machine inputs..., state bits...] and AIG outputs [next-state bits...,
/// machine outputs...]), maps it, closes the register loop and packs.
/// Output nets are marked with the AIG output names.
[[nodiscard]] SynthResult finish_machine_synthesis(const aig::Aig& comb,
                                                   int num_inputs,
                                                   int num_state_bits,
                                                   std::uint64_t reset_code,
                                                   const MapOptions& map_options);

/// Wide-register variant: `reset_bits[b]` is the init value of state bit b,
/// so machines with more than 64 state bits (the N = 64..1024 scalable
/// arbiters) can close their register loop.  The std::uint64_t overload
/// delegates here.
[[nodiscard]] SynthResult finish_machine_synthesis(
    const aig::Aig& comb, int num_inputs, int num_state_bits,
    const std::vector<bool>& reset_bits, const MapOptions& map_options);

}  // namespace rcarb::synth
