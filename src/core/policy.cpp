#include "core/policy.hpp"

#include <algorithm>
#include <bit>

#include "support/check.hpp"

namespace rcarb::core {

const char* to_string(Policy p) {
  switch (p) {
    case Policy::kRoundRobin: return "round-robin";
    case Policy::kFifo: return "fifo";
    case Policy::kPriority: return "priority";
    case Policy::kRandom: return "random";
  }
  return "?";
}

Arbiter::Arbiter(int n) : n_(n) {
  // N=1 is degenerate (the sole requester always wins) but well-defined;
  // the self-checking model checks cover it.
  RCARB_CHECK(n >= 1 && n <= 64, "arbiter size must be in [1, 64]");
  grant_.assign(1, 0);
}

Arbiter::Arbiter(WideTag, int n) : n_(n) {
  RCARB_CHECK(n >= 1 && n <= kMaxWideInputs,
              "wide arbiter size must be in [1, kMaxWideInputs]");
  grant_.assign(static_cast<std::size_t>((n + 63) / 64), 0);
}

void Arbiter::flip_state_bit(int bit) {
  RCARB_CHECK(bit >= 0 && bit < num_state_bits(), "state bit out of range");
  flip_bit(bit);
}

void Arbiter::flip_bit(int) {
  RCARB_CHECK(false, "this arbiter has no state register");
}

void Arbiter::load_state(const std::vector<std::uint64_t>& words) {
  std::vector<std::uint64_t> now;
  read_state(now);
  RCARB_CHECK(words.size() == now.size(), "state width mismatch");
  for (std::size_t w = 0; w < now.size(); ++w)
    for (std::uint64_t d = now[w] ^ words[w]; d != 0; d &= d - 1)
      flip_bit(static_cast<int>(w * 64) + std::countr_zero(d));
}

void Arbiter::freeze() {
  frozen_ = true;
  read_state(frozen_state_);
}

int Arbiter::grant_only(int g) {
  std::fill(grant_.begin(), grant_.end(), 0);
  grant_count_ = g >= 0 ? 1 : 0;
  if (g >= 0) set_bit(grant_, g);
  return g;
}

void deposit_bits(const std::uint64_t* src, int nbits,
                  std::vector<std::uint64_t>& dst, int offset) {
  const unsigned shift = static_cast<unsigned>(offset) & 63u;
  std::size_t at = static_cast<std::size_t>(offset) >> 6;
  for (int done = 0; done < nbits; done += 64, ++at) {
    std::uint64_t v = src[static_cast<std::size_t>(done) >> 6];
    if (nbits - done < 64) v &= (1ull << (nbits - done)) - 1;
    dst[at] |= v << shift;
    if (shift != 0 && at + 1 < dst.size()) dst[at + 1] |= v >> (64 - shift);
  }
}

// ---------------------------------------------------------------- RoundRobin

RoundRobinArbiter::RoundRobinArbiter(int n, bool harden)
    : Arbiter(WideTag{}, n), harden_(harden) {
  const auto words = static_cast<std::size_t>((n + 63) / 64);
  f_bits_.assign(words, 0);
  f_bits_[0] = 1;
  c_bits_.assign(words, 0);
}

namespace {

// scan runs on every step; declared inline so GCC folds it into the step
// rather than calling it (measurably slower at word widths).  first_hot
// runs only on upsets, rewrites and multi-hot steps (recount).

/// First requesting port cyclically at or after `start` among the n ports
/// of a (n + 63) / 64-word request vector, or -1.
inline int scan(const std::uint64_t* requests, int n, int start) {
  const auto words = static_cast<std::size_t>((n + 63) / 64);
  const std::uint64_t top = (n & 63) != 0 ? (1ull << (n & 63)) - 1 : ~0ull;
  auto word = [&](std::size_t w) {
    return w + 1 == words ? requests[w] & top : requests[w];
  };
  // Start's word from start up, then the following words cyclically.  The
  // wrap back into start's word needs no mask: its bits at or above start
  // were just found clear.
  const std::size_t first = static_cast<std::size_t>(start) >> 6;
  const std::uint64_t head =
      word(first) & (~0ull << (static_cast<unsigned>(start) & 63u));
  if (head != 0) return (start & ~63) + std::countr_zero(head);
  for (std::size_t k = 1; k <= words; ++k) {
    const std::size_t w = first + k < words ? first + k : first + k - words;
    const std::uint64_t r = word(w);
    if (r != 0) return static_cast<int>(w * 64) + std::countr_zero(r);
  }
  return -1;
}

/// Lowest hot bit of the Fi/Ci register pair as a state bit (Fi = i, else
/// Ci = n + i), or -1; `count` receives the number of hot bits, capped at 2.
inline int first_hot(const std::vector<std::uint64_t>& f_bits,
              const std::vector<std::uint64_t>& c_bits, int n, int* count) {
  int f_hot = -1;
  int c_hot = -1;
  *count = 0;
  for (std::size_t w = 0; w < f_bits.size(); ++w) {
    const std::uint64_t f = f_bits[w];
    const std::uint64_t c = c_bits[w];
    if ((f | c) == 0) continue;
    // Exactly one hot bit in this word pair, or (counted as 2) several.
    const bool one = (f == 0) != (c == 0) && ((f | c) & ((f | c) - 1)) == 0;
    *count = std::min(2, *count + (one ? 1 : 2));
    const int base = static_cast<int>(w * 64);
    if (f_hot < 0 && f != 0) f_hot = base + std::countr_zero(f);
    if (c_hot < 0 && c != 0) c_hot = base + std::countr_zero(c);
  }
  if (f_hot >= 0) return f_hot;
  return c_hot >= 0 ? n + c_hot : -1;
}

}  // namespace

int RoundRobinArbiter::do_step(std::span<const std::uint64_t> words) {
  const std::uint64_t* requests = words.data();
  clear_words(grant_);
  grant_count_ = 0;
  if (hot_count_ != 1) {
    if (!harden_) {
      // Zero-hot: no state recognizer fires; the machine is dead.
      if (hot_count_ == 0) return -1;
      const int granted = step_multi_hot(requests);
      recount();
      return granted;
    }
    // Hardened register bank: any non-one-hot code loads the reset state
    // F0 — the safe all-free state — and arbitration resumes in the same
    // step (recovery within one cycle, matching the hardened netlist).
    reset();
    ++recoveries_;
  }

  const bool in_c = hot_ >= n_;
  const int index = in_c ? hot_ - n_ : hot_;

  const int granted = scan(requests, n_, index);
  if (granted < 0) {
    // Fig. 5: no requests — Fi stays, Ci retires to F(i+1).
    if (in_c) {
      clear_bit(c_bits_, index);
      hot_ = (index + 1) % n_;
      set_bit(f_bits_, hot_);
    }
    return -1;
  }
  clear_bit(in_c ? c_bits_ : f_bits_, index);
  set_bit(c_bits_, granted);
  hot_ = n_ + granted;
  set_bit(grant_, granted);
  grant_count_ = 1;
  return granted;
}

int RoundRobinArbiter::step_multi_hot(const std::uint64_t* requests) {
  // Every hot state's single-literal recognizer fires, so the register ORs
  // all their successors and every scan winner is granted at once — mutual
  // exclusion is gone.  Faithful to the unhardened one-hot netlist.  With
  // a request pending each hot state goes to C(its scan winner); with
  // none, Fi stays and Ci retires to F(i+1).
  const bool any_request = scan(requests, n_, 0) >= 0;
  for (std::size_t w = 0; w < f_bits_.size(); ++w) {
    const std::uint64_t hot =
        any_request ? f_bits_[w] | c_bits_[w] : c_bits_[w];
    for (std::uint64_t m = hot; m != 0; m &= m - 1) {
      const int i = static_cast<int>(w * 64) + std::countr_zero(m);
      if (any_request)
        set_bit(grant_, scan(requests, n_, i));
      else
        set_bit(f_bits_, (i + 1) % n_);
    }
  }
  std::fill(c_bits_.begin(), c_bits_.end(), 0);
  if (!any_request) return -1;
  std::fill(f_bits_.begin(), f_bits_.end(), 0);
  c_bits_ = grant_;
  for (const std::uint64_t w : grant_) grant_count_ += std::popcount(w);
  return scan(grant_.data(), n_, 0);
}

void RoundRobinArbiter::reset() {
  std::fill(f_bits_.begin(), f_bits_.end(), 0);
  f_bits_[0] = 1;
  std::fill(c_bits_.begin(), c_bits_.end(), 0);
  hot_count_ = 1;
  hot_ = 0;
  grant_only(-1);
}

void RoundRobinArbiter::recount() {
  hot_ = first_hot(f_bits_, c_bits_, n_, &hot_count_);
}

std::string RoundRobinArbiter::describe() const {
  return "round-robin(" + std::to_string(n_) + ")";
}

std::string RoundRobinArbiter::state_name() const {
  RCARB_CHECK(hot_count_ == 1, "state_name on an illegal register");
  std::string name = hot_ < n_ ? "F" : "C";
  name += std::to_string(hot_ < n_ ? hot_ : hot_ - n_);
  return name;
}

void RoundRobinArbiter::read_state(std::vector<std::uint64_t>& words) const {
  words.assign(static_cast<std::size_t>((2 * n_ + 63) / 64), 0);
  deposit_bits(f_bits_.data(), n_, words, 0);
  deposit_bits(c_bits_.data(), n_, words, n_);
}

void RoundRobinArbiter::flip_bit(int bit) {
  std::vector<std::uint64_t>& reg = bit < n_ ? f_bits_ : c_bits_;
  const int i = bit < n_ ? bit : bit - n_;
  reg[static_cast<std::size_t>(i) >> 6] ^=
      1ull << (static_cast<unsigned>(i) & 63u);
  recount();
}

// ---------------------------------------------------------------------- FIFO

FifoArbiter::FifoArbiter(int n) : Arbiter(n) {}

int FifoArbiter::do_step(std::span<const std::uint64_t> words) {
  const std::uint64_t requests = words[0];  // at most 64 ports
  // Newly asserted requests join the queue in index order (simultaneous
  // arrivals tie-break by index, as a hardware FIFO arbiter would).
  for (int t = 0; t < n_; ++t) {
    const std::uint64_t bit = 1ull << t;
    if ((requests & bit) && !(enqueued_ & bit) && holder_ != t) {
      queue_.push_back(t);
      enqueued_ |= bit;
    }
  }

  // Holder keeps the grant while it requests.
  if (holder_ >= 0 && ((requests >> holder_) & 1u)) return grant_only(holder_);
  holder_ = -1;

  // Otherwise serve the oldest still-live request.
  while (!queue_.empty()) {
    const int t = queue_.front();
    queue_.pop_front();
    enqueued_ &= ~(1ull << t);
    if ((requests >> t) & 1u) {
      holder_ = t;
      return grant_only(t);
    }
  }
  return grant_only(-1);
}

void FifoArbiter::reset() {
  grant_only(-1);
  queue_.clear();
  enqueued_ = 0;
  holder_ = -1;
}

std::string FifoArbiter::describe() const {
  return "fifo(" + std::to_string(n_) + ")";
}

// ------------------------------------------------------------------ Priority

PriorityArbiter::PriorityArbiter(int n) : Arbiter(n) {}

int PriorityArbiter::do_step(std::span<const std::uint64_t> words) {
  const std::uint64_t requests = words[0];  // at most 64 ports
  if (holder_ >= 0 && ((requests >> holder_) & 1u)) return grant_only(holder_);
  holder_ = -1;
  if (requests == 0) return grant_only(-1);
  holder_ = std::countr_zero(requests);  // lowest index = highest priority
  return grant_only(holder_);
}

void PriorityArbiter::reset() {
  grant_only(-1);
  holder_ = -1;
}

std::string PriorityArbiter::describe() const {
  return "priority(" + std::to_string(n_) + ")";
}

// -------------------------------------------------------------------- Random

RandomArbiter::RandomArbiter(int n, std::uint64_t seed)
    : Arbiter(n), seed_(seed), rng_(seed) {}

int RandomArbiter::do_step(std::span<const std::uint64_t> words) {
  const std::uint64_t requests = words[0];  // at most 64 ports
  if (holder_ >= 0 && ((requests >> holder_) & 1u)) return grant_only(holder_);
  holder_ = -1;
  const int waiting = std::popcount(requests);
  if (waiting == 0) return grant_only(-1);
  auto pick = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(waiting)));
  for (int t = 0; t < n_; ++t) {
    if (!((requests >> t) & 1u)) continue;
    if (pick-- == 0) {
      holder_ = t;
      return grant_only(t);
    }
  }
  RCARB_ASSERT(false, "unreachable: requests were nonzero");
  return -1;
}

void RandomArbiter::reset() {
  grant_only(-1);
  rng_ = Rng(seed_);
  holder_ = -1;
}

std::string RandomArbiter::describe() const {
  return "random(" + std::to_string(n_) + ")";
}

// ------------------------------------------------------------------- Factory

std::unique_ptr<Arbiter> make_arbiter(Policy policy, int n,
                                      std::uint64_t seed) {
  switch (policy) {
    case Policy::kRoundRobin:
      return std::make_unique<RoundRobinArbiter>(n);
    case Policy::kFifo:
      return std::make_unique<FifoArbiter>(n);
    case Policy::kPriority:
      return std::make_unique<PriorityArbiter>(n);
    case Policy::kRandom:
      return std::make_unique<RandomArbiter>(n, seed);
  }
  RCARB_CHECK(false, "unknown policy");
  return nullptr;
}

}  // namespace rcarb::core
