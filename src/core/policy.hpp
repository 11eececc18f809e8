// Behavioral arbitration policies.
//
// The paper examines random, FIFO, round-robin and priority-based
// contention resolution (Sec. 4) and selects round-robin.  Every policy is
// available here as a cycle-level behavioral model with a common interface:
// present the request vector, receive at most one grant.  A grant persists
// while its task keeps requesting (the Fig. 8 protocol releases by
// deasserting Req); the policies differ in whom they pick next.
//
// The round-robin model implements Fig. 5 *exactly* (states Ci/Fi, cyclic
// scan from the priority index), and is proven equivalent to the
// synthesized FSM netlist in the test suite.  Hogging is bounded by the
// Fig. 8 batch size M, not by preemption (the paper's future work).
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace rcarb::core {

/// Contention-resolution technique (paper Sec. 4).
enum class Policy : std::uint8_t {
  kRoundRobin,  // cyclic order (the paper's choice)
  kFifo,        // order of request arrival
  kPriority,    // statically-determined weighed order (index = priority)
  kRandom,      // uniformly random among requesters
};

[[nodiscard]] const char* to_string(Policy p);

/// Fixed protocol cost of one arbitered burst (Fig. 8: assert Req, ...,
/// deassert Req) when the grant is immediate.
inline constexpr int kProtocolOverheadCycles = 2;

/// Largest request-vector width of the wide (vector-request) arbiters:
/// RoundRobinArbiter and the core/hier.hpp kinds.  The other policies stay
/// capped at 64.
inline constexpr int kMaxWideInputs = 4096;

/// Observation hook over the request/grant wire traffic of one arbiter.
/// Implementations (src/obs) derive wait/hold/fairness metrics from the raw
/// stream without the arbiter knowing what is measured.
class ArbiterObserver {
 public:
  virtual ~ArbiterObserver() = default;
  /// Called once per step with the sampled request words (bit p of word
  /// p / 64 = port p) and the resulting grant (-1 = none).  Up to 64 ports
  /// the one word is masked to the arbiter's width; past 64, bits past the
  /// width in the last word may carry garbage and must be ignored.
  virtual void on_step(std::span<const std::uint64_t> requests,
                       int grant) = 0;
};

/// Cycle-level behavioral arbiter.  Its state register — the thing a fault
/// hits (Fig. 5) — is one surface for every kind: packed reads, upsets, a
/// legality check and latch-up.  FIFO, priority and random model none.
class Arbiter {
 public:
  virtual ~Arbiter() = default;

  /// One clock cycle: presents the request words (bit p of word p / 64 =
  /// port p, at least (size() + 63) / 64 words) and returns the granted
  /// port, or -1 when no grant is issued.  At most one port is ever
  /// granted in a legal state (mutual exclusion).  With no observer
  /// attached the hook costs one pointer test.
  int step(std::span<const std::uint64_t> requests) {
    RCARB_CHECK(requests.size() >= grant_.size(),
                "request vector narrower than the arbiter");
    if (frozen_) hold_frozen();
    // Up to 64 ports the one word is masked to the width; wider arbiters
    // ignore their tail bits themselves.
    std::uint64_t word = 0;
    if (n_ <= 64) {
      word = requests[0] & (n_ == 64 ? ~0ull : (1ull << n_) - 1);
      requests = {&word, 1};
    }
    const int granted = do_step(requests);
    if (observer_ != nullptr) observer_->on_step(requests, granted);
    return granted;
  }

  /// step() over one request word (bit i = port i), for arbiters of at
  /// most 64 ports.
  int step(std::uint64_t requests) {
    RCARB_CHECK(n_ <= 64, "a one-word request covers at most 64 ports");
    return step(std::span<const std::uint64_t>(&requests, 1));
  }

  /// Attaches (or detaches, with nullptr) a borrowed observer.
  void set_observer(ArbiterObserver* observer) { observer_ = observer; }

  /// Returns to the reset state.  A frozen register keeps its frozen value
  /// (the next step re-presents it): only thaw() clears a latch-up.
  virtual void reset() = 0;

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] virtual std::string describe() const = 0;

  // ---- The state register. ----

  /// Register width, bits in the synthesized netlist's DFF order
  /// (copy-major for a replicated arbiter).
  [[nodiscard]] virtual int num_state_bits() const { return 0; }
  /// Packed read at any width: state bit b is bit b % 64 of word b / 64.
  virtual void read_state(std::vector<std::uint64_t>& words) const {
    words.clear();
  }
  /// SEU injection: XOR state bit `bit` (0 <= bit < num_state_bits()).
  void flip_state_bit(int bit);
  /// Rewrites the register to `words` by flipping every differing bit.
  void load_state(const std::vector<std::uint64_t>& words);
  /// False on a code the netlist never reaches from reset (a non-one-hot
  /// flat register).
  [[nodiscard]] virtual bool state_legal() const { return true; }

  /// Latch-up: pins the register at its current value.  Every clock edge
  /// re-presents it, so resets, rewrites and upsets last until the next
  /// step; the grant logic still runs on it.  A self-checking arbiter pins
  /// copy 0.  thaw() (reconfiguration) clears it.
  virtual void freeze();
  virtual void thaw() { frozen_ = false; }
  [[nodiscard]] virtual bool frozen() const { return frozen_; }
  /// Re-presents a frozen register's pinned value: step() does so first,
  /// and so does a wrapper sampling its copies before stepping them.
  void hold_frozen() {
    if (frozen_) load_state(frozen_state_);
  }

  /// True when the register holds one port's grant that every later step
  /// re-asserts, leaving the register unchanged, for as long as that
  /// port's Req stays up, whatever the other lines do: the Fig. 8 hold is
  /// a fixed point.  After a step that granted one port, that port is the
  /// held one.  False on a frozen register, on an illegal one and for an
  /// arbiter that does not answer (the default, and a self-checking one).
  [[nodiscard]] bool holds_grant() const { return !frozen() && holds(); }

  /// Every grant asserted by the last step, words-encoded.  Legal states
  /// assert at most one; an unhardened multi-hot flat register can assert
  /// several (the mutual-exclusion violation a fault campaign must surface).
  [[nodiscard]] const std::vector<std::uint64_t>& last_grant_words() const {
    return grant_;
  }
  /// Number of grants asserted by the last step, at any width.
  [[nodiscard]] int last_grant_count() const { return grant_count_; }
  /// Self-check comparator output of the last step (false without one).
  [[nodiscard]] bool error() const { return error_; }

  /// Steps on which the self-check comparator fired.
  [[nodiscard]] std::uint64_t error_cycles() const { return error_cycles_; }
  /// Self-check resyncs: DMR reset reloads / TMR minority rewrites.
  [[nodiscard]] std::uint64_t resyncs() const { return resyncs_; }
  /// Illegal-state recoveries of a hardened flat register.
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }

 protected:
  explicit Arbiter(int n);
  /// Wide-arbiter constructor tag: lifts the 64-input cap to
  /// kMaxWideInputs.
  struct WideTag {};
  Arbiter(WideTag, int n);
  /// Policy-specific transition over (n + 63) / 64 request words; at most
  /// 64 ports the one word is already width-masked.
  virtual int do_step(std::span<const std::uint64_t> requests) = 0;
  /// XORs one state bit; `bit` is already range-checked.
  virtual void flip_bit(int bit);
  /// holds_grant() of an unfrozen register.
  [[nodiscard]] virtual bool holds() const { return false; }
  /// Sets the grant words to exactly `g` (none when g < 0); returns g.
  int grant_only(int g);

  int n_;
  std::vector<std::uint64_t> grant_;  // (n + 63) / 64 words
  int grant_count_ = 0;               // hot bits of grant_
  bool error_ = false;
  std::uint64_t error_cycles_ = 0;
  std::uint64_t resyncs_ = 0;
  std::uint64_t recoveries_ = 0;

 private:
  ArbiterObserver* observer_ = nullptr;
  bool frozen_ = false;
  std::vector<std::uint64_t> frozen_state_;
};

// ---- Packed port words: bit p % 64 of word p / 64 is port (or bit) p.

[[nodiscard]] inline bool test_bit(std::span<const std::uint64_t> words,
                                   std::integral auto p) {
  const auto i = static_cast<std::size_t>(p);
  return ((words[i >> 6] >> (i & 63)) & 1) != 0;
}
inline void set_bit(std::span<std::uint64_t> words, std::integral auto p) {
  const auto i = static_cast<std::size_t>(p);
  words[i >> 6] |= 1ull << (i & 63);
}
inline void clear_bit(std::span<std::uint64_t> words, std::integral auto p) {
  const auto i = static_cast<std::size_t>(p);
  words[i >> 6] &= ~(1ull << (i & 63));
}
/// Zeroes `words`, storing only to the nonzero ones: at word widths a
/// load and a branch rather than a memset call.
inline void clear_words(std::span<std::uint64_t> words) {
  for (std::uint64_t& w : words)
    if (w != 0) w = 0;
}
/// Calls f(p) for every set bit p of `words`, in ascending order.  Each
/// word is read before its bits are visited, so f may clear them.
template <class F>
void for_each_bit(std::span<const std::uint64_t> words, F&& f) {
  for (std::size_t w = 0; w < words.size(); ++w)
    for (std::uint64_t b = words[w]; b != 0; b &= b - 1)
      f(w * 64 + static_cast<std::size_t>(std::countr_zero(b)));
}

/// Copies state bits [0, nbits) of `src` into `dst` starting at bit
/// `offset` (both packed as Arbiter::read_state); `dst` must be sized.
void deposit_bits(const std::uint64_t* src, int nbits,
                  std::vector<std::uint64_t>& dst, int offset);

/// Fig. 5 round-robin arbiter at every width up to kMaxWideInputs.  The 2N
/// states Ci/Fi live in an explicit one-hot register — (n + 63) / 64 words
/// of Fi one-hots and as many of Ci one-hots, bit i%64 of word i/64 for
/// port i — so single-event upsets can be injected and the hardened
/// recovery modeled bit-exactly against the synthesized netlist.  One
/// masked count-trailing-zeros scan, cyclic from the priority index, picks
/// the grant on the legal and multi-hot paths alike.  State bit i is Fi and
/// bit n+i is Ci.
///
/// `harden` adds illegal-state recovery.  The one-hot Fig. 5 register is
/// SEU-exposed: a single flip leaves it zero-hot (dead — no grants ever
/// again) or multi-hot (several states active at once — mutual exclusion
/// breaks).  Hardened, step() detects a non-one-hot register and recovers
/// to the safe all-free reset state F0 within that same step.
class RoundRobinArbiter final : public Arbiter {
 public:
  explicit RoundRobinArbiter(int n, bool harden = false);
  void reset() override;
  [[nodiscard]] std::string describe() const override;

  /// Exposed for FSM-equivalence tests: current state as "Ci"/"Fi" text.
  /// Requires a legal (exactly one-hot) register.
  [[nodiscard]] std::string state_name() const;

  [[nodiscard]] int num_state_bits() const override { return 2 * n_; }
  void read_state(std::vector<std::uint64_t>& words) const override;
  /// True when the register holds exactly one hot bit.
  [[nodiscard]] bool state_legal() const override { return hot_count_ == 1; }

 protected:
  /// The Fig. 5 transition.
  int do_step(std::span<const std::uint64_t> requests) override;
  void flip_bit(int bit) override;
  /// In Ci alone: the scan from i re-grants a requesting i.
  [[nodiscard]] bool holds() const override {
    return hot_count_ == 1 && hot_ >= n_;
  }

 private:
  /// The transition of an unhardened multi-hot register.
  int step_multi_hot(const std::uint64_t* requests);
  /// Re-derives hot_ and hot_count_ from the register by a scan.
  void recount();

  bool harden_;
  std::vector<std::uint64_t> f_bits_;  // one-hot among F0..F(n-1); reset F0
  std::vector<std::uint64_t> c_bits_;  // one-hot among C0..C(n-1)
  // The register's hot bits, kept current by every write (do_step, reset,
  // flip_bit): their count capped at 2, and the lowest as a state bit (Fi
  // = i, else Ci = n + i; meaningful when the count is 1).
  int hot_count_ = 1;
  int hot_ = 0;
};

/// FIFO arbiter: requests are served in arrival order.
class FifoArbiter final : public Arbiter {
 public:
  explicit FifoArbiter(int n);
  void reset() override;
  [[nodiscard]] std::string describe() const override;

 protected:
  int do_step(std::span<const std::uint64_t> requests) override;

 private:
  std::deque<int> queue_;
  std::uint64_t enqueued_ = 0;  // bitmask of tasks currently in the queue
  int holder_ = -1;
};

/// Static-priority arbiter: lowest index wins among waiters.
class PriorityArbiter final : public Arbiter {
 public:
  explicit PriorityArbiter(int n);
  void reset() override;
  [[nodiscard]] std::string describe() const override;

 protected:
  int do_step(std::span<const std::uint64_t> requests) override;

 private:
  int holder_ = -1;
};

/// Random arbiter: uniform among requesters (deterministic given the seed).
class RandomArbiter final : public Arbiter {
 public:
  RandomArbiter(int n, std::uint64_t seed);
  void reset() override;
  [[nodiscard]] std::string describe() const override;

 protected:
  int do_step(std::span<const std::uint64_t> requests) override;

 private:
  std::uint64_t seed_;
  Rng rng_;
  int holder_ = -1;
};

/// Factory over the Policy enum.  `seed` is only used by kRandom.
[[nodiscard]] std::unique_ptr<Arbiter> make_arbiter(Policy policy, int n,
                                                    std::uint64_t seed = 1);

}  // namespace rcarb::core
