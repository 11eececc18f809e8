// arbgen — the paper's arbiter generator as a command-line tool.
//
// "An arbiter generator was implemented.  It takes the number of tasks to
// be arbitrated (N) as input and it generates a corresponding VHDL file.
// The generator also has the option to produce different encoding schemes
// for the FSM."  (Sec. 4.2)
//
//   $ ./arbgen 6                 # one-hot (default), VHDL on stdout
//   $ ./arbgen 6 compact         # dense binary encoding
//   $ ./arbgen 6 gray            # gray encoding
//   $ ./arbgen 10 one-hot > arb10.vhd
//
// Characterization (CLBs / Fmax under the XC4000e-3 model) goes to stderr
// so the VHDL can be redirected cleanly.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/generator.hpp"
#include "core/vhdl.hpp"

int main(int argc, char** argv) {
  using namespace rcarb;

  if (argc < 2 || argc > 3) {
    std::fprintf(stderr,
                 "usage: %s <N> [one-hot|compact|gray]\n"
                 "  generates an N-input round-robin arbiter (2 <= N <= 20)\n",
                 argv[0]);
    return 2;
  }
  const int n = std::atoi(argv[1]);
  if (n < 2 || n > 20) {
    std::fprintf(stderr, "error: N must be in [2, 20], got '%s'\n", argv[1]);
    return 2;
  }
  synth::Encoding encoding = synth::Encoding::kOneHot;
  if (argc == 3) {
    const std::string req = argv[2];
    if (req == "one-hot") {
      encoding = synth::Encoding::kOneHot;
    } else if (req == "compact") {
      encoding = synth::Encoding::kCompact;
    } else if (req == "gray") {
      encoding = synth::Encoding::kGray;
    } else {
      std::fprintf(stderr, "error: unknown encoding '%s'\n", argv[2]);
      return 2;
    }
  }

  const std::string vhdl = core::emit_round_robin_vhdl(n, encoding);
  std::fwrite(vhdl.data(), 1, vhdl.size(), stdout);

  const core::GeneratedArbiter g =
      core::generate({.n = n, .encoding = encoding});
  std::fprintf(stderr,
               "-- %d-input round-robin arbiter, %s encoding\n"
               "-- pre-characterization (XC4000e-3 model): %zu CLBs "
               "(%zu LUTs, %zu FFs), Fmax %.1f MHz\n"
               "-- protocol cost: +%d cycles per arbitered burst\n",
               n, synth::to_string(encoding), g.chars.clbs, g.chars.luts,
               g.chars.ffs, g.chars.fmax_mhz, g.chars.overhead_cycles);
  return 0;
}
