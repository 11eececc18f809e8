#include "synth/flow.hpp"

#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "support/check.hpp"

namespace rcarb::synth {

namespace {

/// Covers wider than this many variables skip the full espresso loop and
/// only get cheap reductions (the loop's tautology checks are exponential
/// in the worst case).
constexpr int kMinimizeVarLimit = 22;
/// Covers with more cubes than this also skip the full loop (espresso's
/// inner passes are quadratic in the cube count).
constexpr std::size_t kMinimizeCubeLimit = 256;

}  // namespace

const char* to_string(FlowKind k) {
  switch (k) {
    case FlowKind::kSynplifyLike:
      return "synplify-like";
    case FlowKind::kExpressLike:
      return "express-like";
  }
  return "?";
}

SynthResult finish_machine_synthesis(const aig::Aig& comb, int num_inputs,
                                     int num_state_bits,
                                     std::uint64_t reset_code,
                                     const MapOptions& map_options) {
  RCARB_CHECK(num_state_bits <= 64,
              "a 64-bit reset code covers at most 64 state bits");
  std::vector<bool> reset_bits(static_cast<std::size_t>(num_state_bits));
  for (int b = 0; b < num_state_bits; ++b)
    reset_bits[static_cast<std::size_t>(b)] = ((reset_code >> b) & 1u) != 0;
  return finish_machine_synthesis(comb, num_inputs, num_state_bits,
                                  reset_bits, map_options);
}

SynthResult finish_machine_synthesis(const aig::Aig& comb, int num_inputs,
                                     int num_state_bits,
                                     const std::vector<bool>& reset_bits,
                                     const MapOptions& map_options) {
  RCARB_CHECK(reset_bits.size() == static_cast<std::size_t>(num_state_bits),
              "one reset bit per state bit");
  RCARB_CHECK(comb.num_inputs() ==
                  static_cast<std::size_t>(num_inputs + num_state_bits),
              "AIG inputs must be machine inputs plus state bits");
  RCARB_CHECK(comb.num_outputs() >= static_cast<std::size_t>(num_state_bits),
              "AIG must produce every next-state bit");

  // Netlist skeleton: PIs (named after the AIG inputs), then the register
  // bank (named after the state-bit AIG inputs).
  netlist::Netlist nl;
  std::vector<netlist::NetId> input_nets;
  for (int i = 0; i < num_inputs; ++i)
    input_nets.push_back(
        nl.add_input(comb.input_name(static_cast<std::size_t>(i))));
  std::vector<std::size_t> dff_index;
  for (int b = 0; b < num_state_bits; ++b) {
    const bool init = reset_bits[static_cast<std::size_t>(b)];
    dff_index.push_back(nl.num_dffs());
    input_nets.push_back(nl.add_dff(
        /*d=*/0, init,
        comb.input_name(static_cast<std::size_t>(num_inputs + b))));
  }

  SynthResult result;
  const std::vector<netlist::NetId> out_nets =
      map_aig(comb, map_options, nl, input_nets, "m_", &result.map);

  // Close the state loop, then publish the remaining outputs.
  for (int b = 0; b < num_state_bits; ++b)
    nl.connect_dff_d(dff_index[static_cast<std::size_t>(b)],
                     out_nets[static_cast<std::size_t>(b)]);
  for (std::size_t o = static_cast<std::size_t>(num_state_bits);
       o < comb.num_outputs(); ++o)
    nl.mark_output(out_nets[o], comb.output_name(o));

  result.aig_ands = comb.num_ands();
  result.clb = pack_xc4000e(nl);
  result.netlist = std::move(nl);
  return result;
}

SynthResult synthesize_fsm(const Fsm& fsm, const FlowOptions& options) {
  fsm.validate();

  const Encoding used = options.kind == FlowKind::kSynplifyLike
                            ? Encoding::kOneHot
                            : options.encoding;
  const StateCodes codes = encode_states(fsm, used);
  ElaboratedFsm elab = elaborate(fsm, codes, options.harden);

  // Two-level minimization of every next-state / output cover.
  std::size_t sop_cubes = 0;
  auto reduce = [&](logic::Cover& cover) {
    if (!options.run_minimizer) return;
    if (elab.num_vars() <= kMinimizeVarLimit &&
        cover.size() <= kMinimizeCubeLimit) {
      const logic::Cover* dc = elab.dc ? &*elab.dc : nullptr;
      logic::minimize(cover, dc);
    } else {
      cover.remove_single_cube_contained();
    }
  };
  for (auto& cover : elab.next_state) reduce(cover);
  for (auto& cover : elab.outputs) reduce(cover);
  for (const auto& cover : elab.next_state) sop_cubes += cover.size();
  for (const auto& cover : elab.outputs) sop_cubes += cover.size();

  // Build the combinational AIG over [inputs..., state bits...].
  aig::Aig graph;
  std::vector<aig::Lit> in_lits;
  for (const auto& name : elab.input_names)
    in_lits.push_back(graph.add_input(name));
  for (const auto& name : elab.state_bit_names)
    in_lits.push_back(graph.add_input(name));
  for (std::size_t b = 0; b < elab.next_state.size(); ++b)
    graph.add_output("ns" + std::to_string(b),
                     graph.from_cover(elab.next_state[b], in_lits));
  for (std::size_t o = 0; o < elab.outputs.size(); ++o)
    graph.add_output(elab.output_names[o],
                     graph.from_cover(elab.outputs[o], in_lits));

  MapOptions map_options;
  map_options.objective = options.kind == FlowKind::kSynplifyLike
                              ? MapObjective::kArea
                              : MapObjective::kDepth;
  SynthResult result =
      finish_machine_synthesis(graph, elab.num_inputs, elab.num_state_bits,
                               elab.reset_code, map_options);
  result.used_encoding = used;
  result.sop_cubes = sop_cubes;
  return result;
}

}  // namespace rcarb::synth
