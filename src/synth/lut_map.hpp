// Technology mapping: AIG -> k-input LUT netlist.
//
// Classic k-feasible structural cut enumeration with priority cuts
// (Mishchenko et al., ICCAD 2007): every AIG node keeps a bounded set of
// cuts ranked by the mapping objective (depth-oriented or area-oriented),
// and the best cut per node induces the LUT cover.  Cuts are fixed-size
// leaf arrays with a 64-bit leaf signature that rejects oversized merges
// before the sorted merge runs; all of them live in one pool with
// per-node offsets.  Each emitted LUT's truth table comes from one
// bit-parallel walk of its cone: leaf i starts as its projection pattern
// (0xAAAA, 0xCCCC, 0xF0F0, 0xFF00), so every node's 16-bit word holds its
// value on all input rows at once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "netlist/netlist.hpp"

namespace rcarb::synth {

/// Mapping objective: minimize logic depth or LUT count.
enum class MapObjective : std::uint8_t { kDepth, kArea };

struct MapOptions {
  int cut_size = 4;        // k (<= netlist::kMaxLutInputs)
  int cuts_per_node = 8;   // priority-cut bound
  MapObjective objective = MapObjective::kDepth;
};

struct MapStats {
  std::size_t luts = 0;
  int depth = 0;  // LUT levels on the longest output path
};

/// Maps `aig` into `out`.  `input_nets[i]` is the pre-existing net in `out`
/// that carries AIG input i.  Fresh net names are prefixed with `prefix`.
/// Returns the net driving each AIG output, in output order, and fills
/// `stats` if non-null.
std::vector<netlist::NetId> map_aig(const aig::Aig& aig,
                                    const MapOptions& options,
                                    netlist::Netlist& out,
                                    const std::vector<netlist::NetId>& input_nets,
                                    const std::string& prefix,
                                    MapStats* stats = nullptr);

}  // namespace rcarb::synth
