#include "core/selfcheck.hpp"

#include <bit>
#include <string>

#include "core/structural.hpp"
#include "support/check.hpp"

namespace rcarb::core {

const char* to_string(CheckMode m) {
  switch (m) {
    case CheckMode::kNone: return "plain";
    case CheckMode::kDuplicate: return "dmr";
    case CheckMode::kTmr: return "tmr";
  }
  return "?";
}

SelfCheckingArbiter::SelfCheckingArbiter(int n, CheckMode mode,
                                         RoundRobinOptions options)
    : Arbiter(n), mode_(mode) {
  RCARB_CHECK(mode != CheckMode::kNone,
              "SelfCheckingArbiter needs kDuplicate or kTmr");
  RCARB_CHECK(n <= 64, "self-checking model requires n <= 64");
  // The copies stay unhardened: the replication layer *is* the hardening,
  // and per-copy recovery logic would let the copies resync to different
  // legal states, pinning the comparator high forever.
  options.harden = false;
  const int copies = mode == CheckMode::kDuplicate ? 2 : 3;
  for (int c = 0; c < copies; ++c) copies_.emplace_back(n, options);
  latched_state_.assign(copies_.size(), {});
  latched_.assign(copies_.size(), false);
}

void SelfCheckingArbiter::force_state(int copy,
                                      RoundRobinArbiter::StateWords want) {
  auto& a = copies_[static_cast<std::size_t>(copy)];
  std::uint64_t diff = a.state_words().f ^ want.f;
  while (diff != 0) {
    a.inject_bit_flip(std::countr_zero(diff));
    diff &= diff - 1;
  }
  diff = a.state_words().c ^ want.c;
  while (diff != 0) {
    a.inject_bit_flip(n_ + std::countr_zero(diff));
    diff &= diff - 1;
  }
}

int SelfCheckingArbiter::do_step(std::uint64_t requests) {
  grant_mask_ = 0;
  // A latched-up register refuses every load: re-assert the frozen value
  // before the comparator samples.
  for (std::size_t c = 0; c < copies_.size(); ++c)
    if (latched_[c]) force_state(static_cast<int>(c), latched_state_[c]);

  const RoundRobinArbiter::StateWords s0 = copies_[0].state_words();
  error_ = false;
  for (std::size_t c = 1; c < copies_.size(); ++c)
    error_ = error_ || !(copies_[c].state_words() == s0);
  if (error_) ++error_cycles_;

  if (mode_ == CheckMode::kDuplicate) {
    if (error_) {
      // Fail-safe: grants gated off; both registers reload the reset code
      // at this clock edge (one-cycle grant gap, then clean resync).
      ++resyncs_;
      force_state(0, {1, 0});
      force_state(1, {1, 0});
      return -1;
    }
    const int g = copies_[0].step(requests);
    copies_[1].step(requests);
    grant_mask_ = copies_[0].last_grant_mask();
    return g;
  }

  // TMR: step all copies, vote grants and next states bitwise, rewrite
  // every copy with the voted words — the minority is outvoted in 1 clock
  // and the voted grants never gap.
  RoundRobinArbiter::StateWords next[3];
  std::uint64_t mask[3] = {0, 0, 0};
  for (std::size_t c = 0; c < copies_.size(); ++c) {
    copies_[c].step(requests);
    next[c] = copies_[c].state_words();
    mask[c] = copies_[c].last_grant_mask();
  }
  const RoundRobinArbiter::StateWords voted = {
      (next[0].f & next[1].f) | (next[0].f & next[2].f) |
          (next[1].f & next[2].f),
      (next[0].c & next[1].c) | (next[0].c & next[2].c) |
          (next[1].c & next[2].c)};
  grant_mask_ =
      (mask[0] & mask[1]) | (mask[0] & mask[2]) | (mask[1] & mask[2]);
  bool rewrote = false;
  for (std::size_t c = 0; c < copies_.size(); ++c) {
    if (next[c] == voted) continue;
    force_state(static_cast<int>(c), voted);
    rewrote = true;
  }
  if (rewrote) ++resyncs_;
  return grant_mask_ == 0 ? -1 : std::countr_zero(grant_mask_);
}

void SelfCheckingArbiter::reset() {
  for (RoundRobinArbiter& a : copies_) a.reset();
  error_ = false;
  grant_mask_ = 0;
}

std::string SelfCheckingArbiter::describe() const {
  return std::string(to_string(mode_)) + "(round-robin(" +
         std::to_string(n_) + "))";
}

std::uint64_t SelfCheckingArbiter::state_bits(int copy) const {
  RCARB_CHECK(copy >= 0 && copy < num_copies(), "copy out of range");
  return copies_[static_cast<std::size_t>(copy)].state_bits();
}

RoundRobinArbiter::StateWords SelfCheckingArbiter::state_words(
    int copy) const {
  RCARB_CHECK(copy >= 0 && copy < num_copies(), "copy out of range");
  return copies_[static_cast<std::size_t>(copy)].state_words();
}

void SelfCheckingArbiter::inject_bit_flip(int copy, int bit) {
  RCARB_CHECK(copy >= 0 && copy < num_copies(), "copy out of range");
  copies_[static_cast<std::size_t>(copy)].inject_bit_flip(bit);
}

void SelfCheckingArbiter::latch_up(int copy) {
  RCARB_CHECK(copy >= 0 && copy < num_copies(), "copy out of range");
  latched_[static_cast<std::size_t>(copy)] = true;
  latched_state_[static_cast<std::size_t>(copy)] =
      copies_[static_cast<std::size_t>(copy)].state_words();
}

void SelfCheckingArbiter::clear_latch_up() {
  latched_.assign(copies_.size(), false);
}

bool SelfCheckingArbiter::latched() const {
  for (const bool l : latched_)
    if (l) return true;
  return false;
}

namespace {

/// Name prefix of copy c's state and next-state nets: none for copy 0
/// (it keeps the plain arbiter's names), "c<c>_" for the others.
std::string copy_prefix(int c) {
  std::string prefix;
  if (c != 0) prefix.append("c").append(std::to_string(c)).append("_");
  return prefix;
}

}  // namespace

aig::Aig build_self_checking_aig(int n, const synth::StateCodes& codes,
                                 CheckMode mode, std::uint64_t reset_code) {
  RCARB_CHECK(mode != CheckMode::kNone,
              "build_self_checking_aig needs kDuplicate or kTmr");
  const int copies = mode == CheckMode::kDuplicate ? 2 : 3;
  const int nb = codes.num_bits;
  RCARB_CHECK(copies * nb <= 64, "replicated state must fit 64 bits");
  const aig::Aig plain = build_round_robin_aig(n, codes);

  aig::Aig g;
  std::vector<aig::Lit> req(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    req[static_cast<std::size_t>(i)] = g.add_input("req" + std::to_string(i));
  std::vector<std::vector<aig::Lit>> state(
      static_cast<std::size_t>(copies));
  for (int c = 0; c < copies; ++c) {
    auto& bits = state[static_cast<std::size_t>(c)];
    bits.resize(static_cast<std::size_t>(nb));
    for (int b = 0; b < nb; ++b)
      bits[static_cast<std::size_t>(b)] =
          g.add_input(copy_prefix(c).append("state").append(std::to_string(b)));
  }

  // One instantiation of the plain combinational core per copy; the strash
  // table shares whatever the request-only subtrees have in common.
  std::vector<std::vector<aig::Lit>> out(static_cast<std::size_t>(copies));
  for (int c = 0; c < copies; ++c) {
    std::vector<aig::Lit> input_map = req;
    const auto& bits = state[static_cast<std::size_t>(c)];
    input_map.insert(input_map.end(), bits.begin(), bits.end());
    out[static_cast<std::size_t>(c)] = g.append(plain, input_map);
  }
  auto ns_of = [&](int c, int b) {
    return out[static_cast<std::size_t>(c)][static_cast<std::size_t>(b)];
  };
  auto grant_of = [&](int c, int j) {
    return out[static_cast<std::size_t>(c)][static_cast<std::size_t>(nb + j)];
  };

  // Comparator: any pairwise mismatch of the *current* state registers.
  std::vector<aig::Lit> mismatches;
  for (int c1 = 0; c1 < copies; ++c1)
    for (int c2 = c1 + 1; c2 < copies; ++c2)
      for (int b = 0; b < nb; ++b)
        mismatches.push_back(
            g.lxor(state[static_cast<std::size_t>(c1)]
                        [static_cast<std::size_t>(b)],
                   state[static_cast<std::size_t>(c2)]
                        [static_cast<std::size_t>(b)]));
  const aig::Lit error = g.lor_many(std::move(mismatches));

  auto maj = [&g](aig::Lit a, aig::Lit b, aig::Lit c) {
    return g.lor(g.land(a, b), g.lor(g.land(a, c), g.land(b, c)));
  };

  // Next-state bits, copy-major (the register-bank order expected by
  // finish_machine_synthesis).
  for (int c = 0; c < copies; ++c) {
    for (int b = 0; b < nb; ++b) {
      aig::Lit ns;
      if (mode == CheckMode::kDuplicate) {
        const aig::Lit reset_bit =
            ((reset_code >> b) & 1u) ? aig::kConstTrue : aig::kConstFalse;
        ns = g.mux(error, reset_bit, ns_of(c, b));
      } else {
        ns = maj(ns_of(0, b), ns_of(1, b), ns_of(2, b));
      }
      g.add_output(copy_prefix(c).append("ns").append(std::to_string(b)), ns);
    }
  }

  // Grants: DMR gates with ~error (fail-safe), TMR votes.
  for (int j = 0; j < n; ++j) {
    const aig::Lit gj =
        mode == CheckMode::kDuplicate
            ? g.land(grant_of(0, j), aig::lit_not(error))
            : maj(grant_of(0, j), grant_of(1, j), grant_of(2, j));
    g.add_output("grant" + std::to_string(j), gj);
  }
  g.add_output("error", error);
  return g;
}

}  // namespace rcarb::core
