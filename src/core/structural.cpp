#include "core/structural.hpp"

#include <vector>

#include "support/check.hpp"
#include "support/text.hpp"

namespace rcarb::core {

void build_round_robin_chain(aig::Aig& g, const std::vector<aig::Lit>& req,
                             const std::vector<aig::Lit>& present,
                             std::vector<aig::Lit>& grant,
                             std::vector<aig::Lit>& next_state) {
  const std::size_t un = req.size();
  RCARB_CHECK(present.size() == 2 * un,
              "the chain needs one recognizer per Fi/Ci state");

  // A[i]: the priority index is i (state Fi or Ci).
  std::vector<aig::Lit> at(un);
  for (std::size_t i = 0; i < un; ++i)
    at[i] = g.lor(present[i], present[un + i]);

  // Duplicated rotating priority chain: reach[t] means "the scan token has
  // reached position t mod n without meeting an asserted request".
  std::vector<aig::Lit> reach(2 * un);
  for (std::size_t t = 0; t < 2 * un; ++t) {
    const std::size_t p = t % un;
    aig::Lit carried = aig::kConstFalse;
    if (t > 0) {
      const std::size_t prev = (t - 1) % un;
      carried = g.land(reach[t - 1], aig::lit_not(req[prev]));
    }
    reach[t] = g.lor(at[p], carried);
  }

  // Grants: the first asserted request the token meets.
  grant.assign(un, aig::kConstFalse);
  for (std::size_t j = 0; j < un; ++j)
    grant[j] = g.land(req[j], reach[j + un]);

  // Next state.  Grant j moves to Cj.  With no requests, Fi holds and Ci
  // retires to F(i+1).
  const aig::Lit any_req = g.lor_many(req);
  next_state.assign(2 * un, aig::kConstFalse);
  for (std::size_t j = 0; j < un; ++j) {
    const std::size_t c_prev = un + (j + un - 1) % un;
    next_state[j] = g.land(aig::lit_not(any_req),
                           g.lor(present[j], present[c_prev]));
    next_state[un + j] = grant[j];
  }
}

aig::Aig build_round_robin_aig(int n, const synth::StateCodes& codes) {
  RCARB_CHECK(n >= 2 && n <= 32, "structural arbiter supports n in [2, 32]");
  const auto un = static_cast<std::size_t>(n);
  RCARB_CHECK(codes.code.size() == 2 * un,
              "state codes must cover the 2N round-robin states");

  aig::Aig g;
  std::vector<aig::Lit> req(un);
  for (std::size_t i = 0; i < un; ++i)
    req[i] = g.add_input(signal_name("req", i));
  std::vector<aig::Lit> state_bit(static_cast<std::size_t>(codes.num_bits));
  for (std::size_t b = 0; b < state_bit.size(); ++b)
    state_bit[b] = g.add_input(signal_name("state", b));

  // present[s]: the machine is in state s (AND-decode of the state code;
  // a single literal under one-hot).
  auto decode = [&](std::size_t s) {
    std::vector<aig::Lit> lits;
    if (codes.encoding == synth::Encoding::kOneHot) {
      for (int b = 0; b < codes.num_bits; ++b)
        if ((codes.code[s] >> b) & 1u)
          lits.push_back(state_bit[static_cast<std::size_t>(b)]);
    } else {
      for (int b = 0; b < codes.num_bits; ++b) {
        const aig::Lit sb = state_bit[static_cast<std::size_t>(b)];
        lits.push_back(((codes.code[s] >> b) & 1u) ? sb : aig::lit_not(sb));
      }
    }
    return g.land_many(std::move(lits));
  };
  std::vector<aig::Lit> present(2 * un);
  for (std::size_t s = 0; s < 2 * un; ++s) present[s] = decode(s);

  std::vector<aig::Lit> grant, next_state;
  build_round_robin_chain(g, req, present, grant, next_state);

  // Encode next-state signals back into register bits.
  for (int b = 0; b < codes.num_bits; ++b) {
    std::vector<aig::Lit> hot;
    for (std::size_t s = 0; s < 2 * un; ++s)
      if ((codes.code[s] >> b) & 1u) hot.push_back(next_state[s]);
    g.add_output("ns" + std::to_string(b), g.lor_many(std::move(hot)));
  }
  for (std::size_t j = 0; j < un; ++j)
    g.add_output(signal_name("grant", j), grant[j]);
  return g;
}

}  // namespace rcarb::core
