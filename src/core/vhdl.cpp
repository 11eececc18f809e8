#include "core/vhdl.hpp"

#include <sstream>

#include "core/rr_fsm.hpp"
#include "support/check.hpp"
#include "support/text.hpp"
#include "synth/fsm.hpp"

namespace rcarb::core {

namespace {

// Guard cube -> VHDL condition over the input signals, e.g.
// "req(2) = '1' and req(0) = '0'".
std::string guard_condition(const logic::Cube& guard, const synth::Fsm& fsm) {
  std::vector<std::string> terms;
  for (int v = 0; v < fsm.num_inputs(); ++v) {
    if (!guard.has_var(v)) continue;
    terms.push_back(fsm.input_name(v) +
                    (guard.polarity(v) ? " = '1'" : " = '0'"));
  }
  if (terms.empty()) return "true";
  return join(terms, " and ");
}

// VHDL for a validated Mealy FSM: clk/rst, inputs, outputs, one process.
std::string emit_fsm_vhdl(const synth::Fsm& fsm, synth::Encoding encoding) {
  fsm.validate();
  std::ostringstream os;

  std::vector<std::string> state_names;
  for (synth::StateId s = 0; s < fsm.num_states(); ++s)
    state_names.push_back(fsm.state_name(s));

  os << "-- Generated by the rcarb arbiter generator.\n"
     << "-- FSM: " << fsm.name() << ", encoding request: "
     << synth::to_string(encoding) << "\n"
     << "library ieee;\n"
     << "use ieee.std_logic_1164.all;\n\n"
     << "entity " << fsm.name() << " is\n"
     << "  port (\n"
     << "    clk : in std_logic;\n"
     << "    rst : in std_logic;\n";
  for (int i = 0; i < fsm.num_inputs(); ++i)
    os << "    " << fsm.input_name(i) << " : in std_logic;\n";
  for (int o = 0; o < fsm.num_outputs(); ++o)
    os << "    " << fsm.output_name(o) << " : out std_logic"
       << (o + 1 < fsm.num_outputs() ? ";" : "") << "\n";
  os << "  );\n"
     << "end entity " << fsm.name() << ";\n\n"
     << "architecture rtl of " << fsm.name() << " is\n"
     << "  type state_t is (" << join(state_names, ", ") << ");\n"
     << "  signal state : state_t := " << fsm.state_name(fsm.reset_state())
     << ";\n";
  if (encoding != synth::Encoding::kOneHot) {
    os << "  attribute enum_encoding : string;\n"
       << "  attribute enum_encoding of state_t : type is \""
       << (encoding == synth::Encoding::kGray ? "gray" : "sequential")
       << "\";\n";
  } else {
    os << "  attribute enum_encoding : string;\n"
       << "  attribute enum_encoding of state_t : type is \"one-hot\";\n";
  }
  os << "begin\n"
     << "  -- Mealy machine: grants are combinational on the requests.\n"
     << "  process (clk, rst)\n"
     << "  begin\n"
     << "    if rst = '1' then\n"
     << "      state <= " << fsm.state_name(fsm.reset_state()) << ";\n"
     << "    elsif rising_edge(clk) then\n"
     << "      case state is\n";
  for (synth::StateId s = 0; s < fsm.num_states(); ++s) {
    os << "        when " << fsm.state_name(s) << " =>\n";
    bool first = true;
    for (const synth::Transition& t : fsm.transitions()) {
      if (t.from != s) continue;
      os << "          " << (first ? "if " : "elsif ")
         << guard_condition(t.guard, fsm) << " then\n"
         << "            state <= " << fsm.state_name(t.to) << ";\n";
      first = false;
    }
    os << "          end if;\n";
  }
  os << "      end case;\n"
     << "    end if;\n"
     << "  end process;\n\n"
     << "  -- Output logic (Mealy).\n";
  for (int o = 0; o < fsm.num_outputs(); ++o) {
    os << "  " << fsm.output_name(o) << " <= '1' when\n";
    std::vector<std::string> arms;
    for (const synth::Transition& t : fsm.transitions()) {
      if (!((t.outputs >> o) & 1u)) continue;
      arms.push_back("(state = " + fsm.state_name(t.from) + " and " +
                     guard_condition(t.guard, fsm) + ")");
    }
    if (arms.empty())
      os << "    false\n";
    else
      os << indent(join(arms, " or\n"), 4);
    os << "    else '0';\n";
  }
  os << "end architecture rtl;\n";
  return os.str();
}

}  // namespace

std::string emit_round_robin_vhdl(int n, synth::Encoding encoding) {
  return emit_fsm_vhdl(build_round_robin_fsm(n), encoding);
}

}  // namespace rcarb::core
