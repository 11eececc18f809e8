// VHDL emission for generated arbiters.
//
// The paper's arbiter generator "takes the number of tasks to be arbitrated
// (N) as input and generates a corresponding VHDL file", with a choice of
// FSM encoding scheme.  This emitter reproduces that artifact: synthesizable
// VHDL-93 with one case alternative per Fig. 5 scan step.  (Our own flow
// synthesizes from the Fsm object directly; the VHDL is the user-facing
// deliverable for external tools.)
#pragma once

#include <string>

#include "synth/encoding.hpp"

namespace rcarb::core {

/// Emits VHDL for an N-input round-robin arbiter.  The encoding request is
/// carried as an enum_encoding attribute, mirroring how the paper's
/// generator parameterized the schemes.
[[nodiscard]] std::string emit_round_robin_vhdl(int n,
                                                synth::Encoding encoding);

}  // namespace rcarb::core
