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
}

Arbiter::Arbiter(WideTag, int n) : n_(n) {
  RCARB_CHECK(n >= 1 && n <= kMaxWideInputs,
              "wide arbiter size must be in [1, kMaxWideInputs]");
}

int Arbiter::step_wide(const std::vector<std::uint64_t>& requests) {
  RCARB_CHECK(n_ <= 64,
              "this arbiter kind is word-width; widths past 64 ports need a "
              "wide kind (core/hier.hpp)");
  return step(requests.empty() ? 0 : requests[0]);
}

// ---------------------------------------------------------------- RoundRobin

RoundRobinArbiter::RoundRobinArbiter(int n, RoundRobinOptions options)
    : Arbiter(WideTag{}, n), options_(options) {
  RCARB_CHECK(options.max_hold_cycles >= 0, "negative max_hold_cycles");
  const auto words = static_cast<std::size_t>((n + 63) / 64);
  f_bits_.assign(words, 0);
  f_bits_[0] = 1;
  c_bits_.assign(words, 0);
  grant_.assign(words, 0);
  req_scratch_.assign(words, 0);
}

namespace {

// scan and first_hot run on every step; declared inline so GCC folds them
// into it rather than calling them (measurably slower at word widths).

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

void set_bit(std::vector<std::uint64_t>& words, int i) {
  words[static_cast<std::size_t>(i) >> 6] |=
      1ull << (static_cast<unsigned>(i) & 63u);
}

void clear_bit(std::vector<std::uint64_t>& words, int i) {
  words[static_cast<std::size_t>(i) >> 6] &=
      ~(1ull << (static_cast<unsigned>(i) & 63u));
}

}  // namespace

int RoundRobinArbiter::step_words(const std::uint64_t* requests) {
  // Clears only the words the last step granted in: at word widths a load
  // and a branch rather than a memset call.
  for (std::uint64_t& w : grant_)
    if (w != 0) w = 0;
  int hot_count = 0;
  int hot = first_hot(f_bits_, c_bits_, n_, &hot_count);
  if (hot_count != 1) {
    if (!options_.harden) {
      // Zero-hot: no state recognizer fires; the machine is dead.
      return hot_count == 0 ? -1 : step_multi_hot(requests);
    }
    // Hardened register bank: any non-one-hot code loads the reset state
    // F0 — the safe all-free state — and arbitration resumes in the same
    // step (recovery within one cycle, matching the hardened netlist).
    reset();
    hot = 0;
    ++recoveries_;
  }

  const bool in_c = hot >= n_;
  const int index = in_c ? hot - n_ : hot;

  // Future-work preemption: a saturated holder loses its turn when someone
  // else is waiting; the scan then starts past it.
  if (in_c && options_.max_hold_cycles > 0 &&
      held_cycles_ >= options_.max_hold_cycles) {
    const int j = scan(requests, n_, (index + 1) % n_);
    if (j >= 0 && j != index) {
      clear_bit(c_bits_, index);
      set_bit(c_bits_, j);
      set_bit(grant_, j);
      held_cycles_ = 1;
      return j;
    }
  }

  const int granted = scan(requests, n_, index);
  if (granted < 0) {
    // Fig. 5: no requests — Fi stays, Ci retires to F(i+1).
    held_cycles_ = 0;
    if (in_c) {
      clear_bit(c_bits_, index);
      set_bit(f_bits_, (index + 1) % n_);
    }
    return -1;
  }
  held_cycles_ = (in_c && granted == index) ? held_cycles_ + 1 : 1;
  clear_bit(in_c ? c_bits_ : f_bits_, index);
  set_bit(c_bits_, granted);
  set_bit(grant_, granted);
  return granted;
}

int RoundRobinArbiter::step_multi_hot(const std::uint64_t* requests) {
  // Every hot state's single-literal recognizer fires, so the register ORs
  // all their successors and every scan winner is granted at once — mutual
  // exclusion is gone.  Faithful to the unhardened one-hot netlist.  With
  // a request pending each hot state goes to C(its scan winner); with
  // none, Fi stays and Ci retires to F(i+1).
  held_cycles_ = 0;
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
  return scan(grant_.data(), n_, 0);
}

int RoundRobinArbiter::do_step(std::uint64_t requests) {
  if (n_ <= 64) return step_words(&requests);
  // The word entry addresses ports 0..63; the rest of the scratch vector
  // stays zero.
  req_scratch_[0] = requests;
  return step_words(req_scratch_.data());
}

int RoundRobinArbiter::step_wide(const std::vector<std::uint64_t>& requests) {
  if (n_ <= 64) return Arbiter::step_wide(requests);
  RCARB_CHECK(requests.size() >= grant_.size(),
              "request vector narrower than the arbiter");
  const int g = step_words(requests.data());
  notify_wide(requests, g);
  return g;
}

void RoundRobinArbiter::reset() {
  std::fill(f_bits_.begin(), f_bits_.end(), 0);
  f_bits_[0] = 1;
  std::fill(c_bits_.begin(), c_bits_.end(), 0);
  std::fill(grant_.begin(), grant_.end(), 0);
  held_cycles_ = 0;
}

std::string RoundRobinArbiter::describe() const {
  return "round-robin(" + std::to_string(n_) + ")";
}

std::string RoundRobinArbiter::state_name() const {
  int count = 0;
  const int hot = first_hot(f_bits_, c_bits_, n_, &count);
  RCARB_CHECK(count == 1, "state_name on an illegal register");
  std::string name = hot < n_ ? "F" : "C";
  name += std::to_string(hot < n_ ? hot : hot - n_);
  return name;
}

std::uint64_t RoundRobinArbiter::state_bits() const {
  RCARB_CHECK(n_ <= 32, "state_bits requires 2n <= 64");
  return f_bits_[0] | (c_bits_[0] << n_);
}

RoundRobinArbiter::StateWords RoundRobinArbiter::state_words() const {
  RCARB_CHECK(n_ <= 64, "state_words requires n <= 64");
  return {f_bits_[0], c_bits_[0]};
}

bool RoundRobinArbiter::state_legal() const {
  int count = 0;
  (void)first_hot(f_bits_, c_bits_, n_, &count);
  return count == 1;
}

int RoundRobinArbiter::last_grant_count() const {
  int count = 0;
  for (const std::uint64_t w : grant_) count += std::popcount(w);
  return count;
}

void RoundRobinArbiter::inject_bit_flip(int bit) {
  RCARB_CHECK(bit >= 0 && bit < 2 * n_, "state bit out of range");
  std::vector<std::uint64_t>& reg = bit < n_ ? f_bits_ : c_bits_;
  const int i = bit < n_ ? bit : bit - n_;
  reg[static_cast<std::size_t>(i) >> 6] ^=
      1ull << (static_cast<unsigned>(i) & 63u);
}

// ---------------------------------------------------------------------- FIFO

FifoArbiter::FifoArbiter(int n) : Arbiter(n) {}

int FifoArbiter::do_step(std::uint64_t requests) {
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
  if (holder_ >= 0 && ((requests >> holder_) & 1u)) return holder_;
  holder_ = -1;

  // Otherwise serve the oldest still-live request.
  while (!queue_.empty()) {
    const int t = queue_.front();
    queue_.pop_front();
    enqueued_ &= ~(1ull << t);
    if ((requests >> t) & 1u) {
      holder_ = t;
      return t;
    }
  }
  return -1;
}

void FifoArbiter::reset() {
  queue_.clear();
  enqueued_ = 0;
  holder_ = -1;
}

std::string FifoArbiter::describe() const {
  return "fifo(" + std::to_string(n_) + ")";
}

// ------------------------------------------------------------------ Priority

PriorityArbiter::PriorityArbiter(int n) : Arbiter(n) {}

int PriorityArbiter::do_step(std::uint64_t requests) {
  if (holder_ >= 0 && ((requests >> holder_) & 1u)) return holder_;
  holder_ = -1;
  if (requests == 0) return -1;
  holder_ = std::countr_zero(requests);  // lowest index = highest priority
  return holder_;
}

void PriorityArbiter::reset() { holder_ = -1; }

std::string PriorityArbiter::describe() const {
  return "priority(" + std::to_string(n_) + ")";
}

// -------------------------------------------------------------------- Random

RandomArbiter::RandomArbiter(int n, std::uint64_t seed)
    : Arbiter(n), seed_(seed), rng_(seed) {}

int RandomArbiter::do_step(std::uint64_t requests) {
  if (holder_ >= 0 && ((requests >> holder_) & 1u)) return holder_;
  holder_ = -1;
  const int waiting = std::popcount(requests);
  if (waiting == 0) return -1;
  auto pick = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(waiting)));
  for (int t = 0; t < n_; ++t) {
    if (!((requests >> t) & 1u)) continue;
    if (pick-- == 0) {
      holder_ = t;
      return t;
    }
  }
  RCARB_ASSERT(false, "unreachable: requests were nonzero");
  return -1;
}

void RandomArbiter::reset() {
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
