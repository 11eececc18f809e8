#include "core/selfcheck.hpp"

#include <bit>
#include <string>

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

int num_copies(CheckMode m) {
  switch (m) {
    case CheckMode::kNone: return 1;
    case CheckMode::kDuplicate: return 2;
    case CheckMode::kTmr: return 3;
  }
  return 1;
}

SelfCheckingArbiter::SelfCheckingArbiter(int n, CheckMode mode,
                                         ArbiterKind kind, int arity)
    : Arbiter(WideTag{}, n), mode_(mode) {
  RCARB_CHECK(mode != CheckMode::kNone,
              "SelfCheckingArbiter needs kDuplicate or kTmr");
  // The copies stay unhardened: the replication layer *is* the hardening,
  // and per-copy recovery logic would let the copies resync to different
  // legal states, pinning the comparator high forever.
  for (int c = 0; c < core::num_copies(mode); ++c)
    copies_.push_back(make_scalable_arbiter(kind, n, arity));
  copy_bits_ = copies_[0]->num_state_bits();
  copies_[0]->read_state(reset_state_);
  state_.resize(copies_.size());
}

int SelfCheckingArbiter::do_step(std::span<const std::uint64_t> requests) {
  // A latched-up copy re-presents its frozen register before the
  // comparator samples.
  for (auto& copy : copies_) copy->hold_frozen();
  copies_[0]->read_state(state_[0]);
  error_ = false;
  for (std::size_t c = 1; c < copies_.size(); ++c) {
    copies_[c]->read_state(state_[c]);
    error_ = error_ || state_[c] != state_[0];
  }
  if (error_) ++error_cycles_;

  if (mode_ == CheckMode::kDuplicate) {
    if (error_) {
      // Fail-safe: grants gated off; both registers reload the reset code
      // at this clock edge (one-cycle grant gap, then clean resync).
      ++resyncs_;
      for (auto& copy : copies_) copy->load_state(reset_state_);
      return grant_only(-1);
    }
    const int g = copies_[0]->step(requests);
    copies_[1]->step(requests);
    grant_ = copies_[0]->last_grant_words();
    grant_count_ = copies_[0]->last_grant_count();
    return g;
  }

  // TMR: step all copies, vote grants and next states bitwise, rewrite
  // every copy with the voted register — the minority is outvoted in 1
  // clock and the voted grants never gap.
  for (std::size_t c = 0; c < copies_.size(); ++c) {
    copies_[c]->step(requests);
    copies_[c]->read_state(state_[c]);
  }
  auto maj = [](std::uint64_t a, std::uint64_t b, std::uint64_t c) {
    return (a & b) | (a & c) | (b & c);
  };
  voted_.resize(state_[0].size());
  for (std::size_t w = 0; w < voted_.size(); ++w)
    voted_[w] = maj(state_[0][w], state_[1][w], state_[2][w]);
  int g = -1;
  grant_count_ = 0;
  for (std::size_t w = 0; w < grant_.size(); ++w) {
    grant_[w] = maj(copies_[0]->last_grant_words()[w],
                    copies_[1]->last_grant_words()[w],
                    copies_[2]->last_grant_words()[w]);
    grant_count_ += std::popcount(grant_[w]);
    if (g < 0 && grant_[w] != 0)
      g = static_cast<int>(w * 64) + std::countr_zero(grant_[w]);
  }
  bool rewrote = false;
  for (std::size_t c = 0; c < copies_.size(); ++c) {
    if (state_[c] == voted_) continue;
    copies_[c]->load_state(voted_);
    rewrote = true;
  }
  if (rewrote) ++resyncs_;
  return g;
}

void SelfCheckingArbiter::reset() {
  for (auto& copy : copies_) copy->reset();
  error_ = false;
  grant_only(-1);
}

std::string SelfCheckingArbiter::describe() const {
  return std::string(to_string(mode_)) + "(" + copies_[0]->describe() + ")";
}

void SelfCheckingArbiter::read_state(std::vector<std::uint64_t>& words) const {
  words.assign(static_cast<std::size_t>((num_state_bits() + 63) / 64), 0);
  std::vector<std::uint64_t> copy;
  for (std::size_t c = 0; c < copies_.size(); ++c) {
    copies_[c]->read_state(copy);
    deposit_bits(copy.data(), copy_bits_, words,
                 static_cast<int>(c) * copy_bits_);
  }
}

void SelfCheckingArbiter::flip_bit(int bit) {
  copies_[static_cast<std::size_t>(bit / copy_bits_)]->flip_state_bit(
      bit % copy_bits_);
}

void SelfCheckingArbiter::thaw() {
  for (auto& copy : copies_) copy->thaw();
}

bool SelfCheckingArbiter::frozen() const {
  for (const auto& copy : copies_)
    if (copy->frozen()) return true;
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

aig::Aig build_self_checking_aig(const aig::Aig& plain, int n,
                                 const std::vector<bool>& reset_bits,
                                 CheckMode mode) {
  RCARB_CHECK(mode != CheckMode::kNone,
              "build_self_checking_aig needs kDuplicate or kTmr");
  const int copies = core::num_copies(mode);
  const int nb = static_cast<int>(reset_bits.size());
  RCARB_CHECK(plain.num_inputs() == static_cast<std::size_t>(n + nb) &&
                  plain.num_outputs() == static_cast<std::size_t>(nb + n),
              "plain arbiter AIG must map n requests + state to next state + "
              "n grants");

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
        const aig::Lit reset_bit = reset_bits[static_cast<std::size_t>(b)]
                                       ? aig::kConstTrue
                                       : aig::kConstFalse;
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
