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
// synthesized FSM netlist in the test suite.  The paper's future-work
// preemption appears as RoundRobinOptions::max_hold_cycles.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

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
  /// Called once per step() with the sampled request vector (masked to the
  /// arbiter's width) and the resulting grant (-1 = none).
  virtual void on_step(std::uint64_t requests, int grant) = 0;
  /// Called once per step_wide() on a wide (vector-request) arbiter with
  /// the words-encoded request vector (bit i of word i/64 = port i; bits
  /// past the arbiter's width may carry garbage and must be ignored).  The
  /// default narrows to the first word, exact for widths <= 64.
  virtual void on_step_wide(const std::vector<std::uint64_t>& requests,
                            int grant) {
    on_step(requests.empty() ? 0 : requests[0], grant);
  }
};

/// Cycle-level behavioral arbiter.
class Arbiter {
 public:
  virtual ~Arbiter() = default;

  /// One clock cycle: presents the request vector (bit i = task i) and
  /// returns the granted task index, or -1 when no grant is issued.  At
  /// most one task is ever granted (mutual exclusion).  With no observer
  /// attached the hook costs one pointer test.
  int step(std::uint64_t requests) {
    // Wide arbiters (n > 64) accept every bit of the word; the rest are
    // masked to their width (the >= keeps the shift in range for both).
    requests &= (n_ >= 64) ? ~0ull : ((1ull << n_) - 1);
    const int granted = do_step(requests);
    if (observer_ != nullptr) observer_->on_step(requests, granted);
    return granted;
  }

  /// One clock cycle over a words-encoded request vector (bit i of word
  /// i/64 = port i).  The base implementation serves word-width arbiters
  /// by forwarding to step() (and CHECK-fails past 64 ports); the wide
  /// arbiters (RoundRobinArbiter, core/hier.hpp) override it, notify
  /// observers through on_step_wide, and accept up to kMaxWideInputs.
  virtual int step_wide(const std::vector<std::uint64_t>& requests);

  /// Attaches (or detaches, with nullptr) a borrowed observer.
  void set_observer(ArbiterObserver* observer) { observer_ = observer; }

  /// Returns to the reset state.
  virtual void reset() = 0;

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] virtual std::string describe() const = 0;

 protected:
  explicit Arbiter(int n);
  /// Wide-arbiter constructor tag: lifts the 64-input cap to
  /// kMaxWideInputs.  Word-request step() only addresses the first 64
  /// ports of a wide arbiter; subclasses expose a vector-request entry.
  struct WideTag {};
  Arbiter(WideTag, int n);
  /// Policy-specific transition; `requests` is already width-masked.
  virtual int do_step(std::uint64_t requests) = 0;
  /// For step_wide overrides: fires the observer's wide hook.
  void notify_wide(const std::vector<std::uint64_t>& requests, int granted) {
    if (observer_ != nullptr) observer_->on_step_wide(requests, granted);
  }
  int n_;

 private:
  ArbiterObserver* observer_ = nullptr;
};

/// Options for the round-robin model.
struct RoundRobinOptions {
  /// 0 disables preemption (the paper's presented form).  Otherwise a
  /// holder that keeps its request beyond this many consecutive granted
  /// cycles is preempted while other requests are pending (the paper's
  /// future-work extension, ensuring no task "never relinquishes").
  int max_hold_cycles = 0;
  /// Illegal-state recovery.  The one-hot Fig. 5 register is SEU-exposed: a
  /// single flip leaves it zero-hot (dead — no grants ever again) or
  /// multi-hot (several states active at once — mutual exclusion breaks).
  /// Hardened, step() detects a non-one-hot register and recovers to the
  /// safe all-free reset state F0 within that same step.
  bool harden = false;
};

/// Fig. 5 round-robin arbiter at every width up to kMaxWideInputs.  The 2N
/// states Ci/Fi live in an explicit one-hot register — (n + 63) / 64 words
/// of Fi one-hots and as many of Ci one-hots, bit i%64 of word i/64 for
/// port i — so single-event upsets can be injected and the hardened
/// recovery modeled bit-exactly against the synthesized netlist.  One
/// masked count-trailing-zeros scan, cyclic from the priority index, picks
/// the grant on the legal, multi-hot and preemption paths alike.
class RoundRobinArbiter final : public Arbiter {
 public:
  explicit RoundRobinArbiter(int n, RoundRobinOptions options = {});
  void reset() override;
  [[nodiscard]] std::string describe() const override;

  /// Up to 64 ports this is the base forwarding to step() (word observer
  /// hook); past 64 it steps the full vector and fires on_step_wide.
  int step_wide(const std::vector<std::uint64_t>& requests) override;

  /// Exposed for FSM-equivalence tests: current state as "Ci"/"Fi" text.
  /// Requires a legal (exactly one-hot) register.
  [[nodiscard]] std::string state_name() const;

  /// The one-hot state register: bit i = Fi, bit n+i = Ci.  Requires
  /// n <= 32 (2n bits must fit one word).
  [[nodiscard]] std::uint64_t state_bits() const;

  /// The state register as separate words (f = Fi one-hots, c = Ci
  /// one-hots) — the form the self-checking wrapper compares and votes.
  /// Requires n <= 64.
  struct StateWords {
    std::uint64_t f = 0;
    std::uint64_t c = 0;
    [[nodiscard]] bool operator==(const StateWords&) const = default;
  };
  [[nodiscard]] StateWords state_words() const;

  /// True when the register holds exactly one hot bit.
  [[nodiscard]] bool state_legal() const;

  /// SEU injection: XOR one bit of the state register (0 <= bit < 2n:
  /// bit i = Fi, bit n+i = Ci).
  void inject_bit_flip(int bit);

  /// Every grant asserted by the last step(), words-encoded.  Legal states
  /// assert at most one; an unhardened multi-hot register can assert
  /// several (the mutual-exclusion violation a fault campaign must
  /// surface).
  [[nodiscard]] const std::vector<std::uint64_t>& last_grant_words() const {
    return grant_;
  }
  /// Ports 0..63 of last_grant_words() — all of it up to 64 ports.
  [[nodiscard]] std::uint64_t last_grant_mask() const { return grant_[0]; }
  /// Number of grants asserted by the last step, at any width.
  [[nodiscard]] int last_grant_count() const;

  /// Illegal-state recoveries performed so far (hardened mode only).
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }

 protected:
  int do_step(std::uint64_t requests) override;

 private:
  /// The Fig. 5 transition over (n + 63) / 64 request words.
  int step_words(const std::uint64_t* requests);
  /// The transition of an unhardened multi-hot register.
  int step_multi_hot(const std::uint64_t* requests);

  RoundRobinOptions options_;
  std::vector<std::uint64_t> f_bits_;  // one-hot among F0..F(n-1); reset F0
  std::vector<std::uint64_t> c_bits_;  // one-hot among C0..C(n-1)
  std::vector<std::uint64_t> grant_;
  std::vector<std::uint64_t> req_scratch_;  // step() past 64 ports
  std::uint64_t recoveries_ = 0;
  int held_cycles_ = 0;
};

/// FIFO arbiter: requests are served in arrival order.
class FifoArbiter final : public Arbiter {
 public:
  explicit FifoArbiter(int n);
  void reset() override;
  [[nodiscard]] std::string describe() const override;

 protected:
  int do_step(std::uint64_t requests) override;

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
  int do_step(std::uint64_t requests) override;

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
  int do_step(std::uint64_t requests) override;

 private:
  std::uint64_t seed_;
  Rng rng_;
  int holder_ = -1;
};

/// Factory over the Policy enum.  `seed` is only used by kRandom.
[[nodiscard]] std::unique_ptr<Arbiter> make_arbiter(Policy policy, int n,
                                                    std::uint64_t seed = 1);

}  // namespace rcarb::core
