#include "core/policy_fsms.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <sstream>
#include <tuple>

#include "support/check.hpp"
#include "support/text.hpp"

namespace rcarb::core {

namespace {

/// Adds the cyclic-scan transitions shared by the priority and LFSR
/// machines: from `from`, scanning request indices in `order`, the first
/// asserted request j wins (-> holder_state(j), grant j); if `keep` >= 0
/// that index is checked first (grant-hold); no requests -> idle_to.
void add_scan_transitions(synth::Fsm& fsm, synth::StateId from,
                          const std::vector<int>& order, int keep,
                          const std::function<synth::StateId(int)>& holder_state,
                          synth::StateId idle_to, int n) {
  std::vector<int> scan;
  if (keep >= 0) scan.push_back(keep);
  for (int j : order)
    if (j != keep) scan.push_back(j);

  logic::Cube all_zero;
  for (int v = 0; v < n; ++v) all_zero = all_zero.with_literal(v, false);
  fsm.add_transition(from, all_zero, idle_to, 0);

  logic::Cube prefix;  // conjunction of ~R over already-scanned indices
  for (int j : scan) {
    fsm.add_transition(from, prefix.with_literal(j, true), holder_state(j),
                       1ull << j);
    prefix = prefix.with_literal(j, false);
  }
}

}  // namespace

// ------------------------------------------------------------------ priority

synth::Fsm build_priority_fsm(int n) {
  RCARB_CHECK(n >= 2 && n <= 20, "priority FSM supports n in [2, 20]");
  synth::Fsm fsm("prio_arbiter" + std::to_string(n));
  const synth::StateId idle = fsm.add_state("IDLE");
  std::vector<synth::StateId> hold;
  for (int i = 0; i < n; ++i)
    hold.push_back(fsm.add_state(signal_name("H", static_cast<std::size_t>(i))));
  for (int i = 0; i < n; ++i)
    fsm.add_input(signal_name("req", static_cast<std::size_t>(i)));
  for (int i = 0; i < n; ++i)
    fsm.add_output(signal_name("grant", static_cast<std::size_t>(i)));

  std::vector<int> descending;  // index order = priority order
  for (int j = 0; j < n; ++j) descending.push_back(j);

  auto holder_state = [&](int j) { return hold[static_cast<std::size_t>(j)]; };
  add_scan_transitions(fsm, idle, descending, /*keep=*/-1, holder_state, idle,
                       n);
  for (int i = 0; i < n; ++i)
    add_scan_transitions(fsm, hold[static_cast<std::size_t>(i)], descending,
                         /*keep=*/i, holder_state, idle, n);
  return fsm;
}

// ----------------------------------------------------------------- LFSR/rand

int lfsr3_next(int state) {
  RCARB_CHECK(state >= 1 && state <= 7, "LFSR state out of range");
  const int fb = ((state >> 2) ^ (state >> 1)) & 1;  // taps x2, x1
  return ((state << 1) & 0b110) | fb;
}

synth::Fsm build_lfsr_random_fsm(int n) {
  RCARB_CHECK(n >= 2 && n <= 6,
              "LFSR-random FSM supports n in [2, 6] (one-hot variable budget)");
  synth::Fsm fsm("rand_arbiter" + std::to_string(n));

  // State (h, l): h in {-1 (idle), 0..n-1}, l in {1..7}.
  std::map<std::pair<int, int>, synth::StateId> id;
  for (int l = 1; l <= 7; ++l)
    for (int h = -1; h < n; ++h) {
      std::ostringstream name;
      if (h < 0)
        name << "I";
      else
        name << "H" << h;
      name << "L" << l;
      id[{h, l}] = fsm.add_state(name.str());
    }
  fsm.set_reset_state(id[{-1, 1}]);

  for (int i = 0; i < n; ++i)
    fsm.add_input(signal_name("req", static_cast<std::size_t>(i)));
  for (int i = 0; i < n; ++i)
    fsm.add_output(signal_name("grant", static_cast<std::size_t>(i)));

  for (int l = 1; l <= 7; ++l) {
    const int next_l = lfsr3_next(l);
    const int offset = l % n;
    std::vector<int> order;
    for (int k = 0; k < n; ++k) order.push_back((offset + k) % n);
    auto holder_state = [&](int j) { return id[{j, next_l}]; };
    for (int h = -1; h < n; ++h)
      add_scan_transitions(fsm, id[{h, l}], order, /*keep=*/h, holder_state,
                           id[{-1, next_l}], n);
  }
  return fsm;
}

LfsrRandomArbiter::LfsrRandomArbiter(int n) : Arbiter(n) {}

int LfsrRandomArbiter::do_step(std::span<const std::uint64_t> words) {
  const std::uint64_t requests = words[0];  // at most 64 ports
  const int next_l = lfsr3_next(lfsr_);
  const int offset = lfsr_ % n_;
  int granted = -1;
  if (holder_ >= 0 && ((requests >> holder_) & 1u)) {
    granted = holder_;
  } else if (requests != 0) {
    for (int k = 0; k < n_; ++k) {
      const int j = (offset + k) % n_;
      if ((requests >> j) & 1u) {
        granted = j;
        break;
      }
    }
  }
  holder_ = granted;
  lfsr_ = next_l;
  return grant_only(granted);
}

void LfsrRandomArbiter::reset() {
  grant_only(-1);
  holder_ = -1;
  lfsr_ = 1;
}

std::string LfsrRandomArbiter::describe() const {
  return "lfsr-random(" + std::to_string(n_) + ")";
}

// ---------------------------------------------------------------------- FIFO

namespace {

/// Pure-function mirror of FifoArbiter's transition (kept in lockstep by
/// the equivalence tests).
struct FifoState {
  int holder = -1;
  std::deque<int> queue;  // waiting tasks, oldest first (may contain stale)

  bool operator<(const FifoState& o) const {
    if (holder != o.holder) return holder < o.holder;
    return std::lexicographical_compare(queue.begin(), queue.end(),
                                        o.queue.begin(), o.queue.end());
  }
};

std::pair<FifoState, int> fifo_step(const FifoState& s, std::uint64_t req,
                                    int n) {
  FifoState next = s;
  auto in_queue = [&](int t) {
    for (int q : next.queue)
      if (q == t) return true;
    return false;
  };
  for (int t = 0; t < n; ++t)
    if (((req >> t) & 1u) && !in_queue(t) && next.holder != t)
      next.queue.push_back(t);

  int granted = -1;
  if (next.holder >= 0 && ((req >> next.holder) & 1u)) {
    granted = next.holder;
  } else {
    next.holder = -1;
    while (!next.queue.empty()) {
      const int t = next.queue.front();
      next.queue.pop_front();
      if ((req >> t) & 1u) {
        next.holder = t;
        granted = t;
        break;
      }
    }
  }
  return {next, granted};
}

std::string fifo_state_name(const FifoState& s) {
  std::string name = s.holder < 0 ? "I" : "H";
  if (s.holder >= 0) name += std::to_string(s.holder);
  name += "q";
  for (int t : s.queue) name += std::to_string(t);
  return name;
}

}  // namespace

synth::Fsm build_fifo_fsm(int n) {
  RCARB_CHECK(n >= 2 && n <= 4,
              "FIFO FSM supports n in [2, 4] (state space is O(sum k-perms))");
  synth::Fsm fsm("fifo_arbiter" + std::to_string(n));
  for (int i = 0; i < n; ++i)
    fsm.add_input(signal_name("req", static_cast<std::size_t>(i)));
  for (int i = 0; i < n; ++i)
    fsm.add_output(signal_name("grant", static_cast<std::size_t>(i)));

  // Reachability exploration from the empty state; every (state, input
  // minterm) pair becomes one transition.
  std::map<FifoState, synth::StateId> ids;
  std::deque<FifoState> frontier;
  const FifoState start{};
  ids.emplace(start, fsm.add_state(fifo_state_name(start)));
  frontier.push_back(start);
  constexpr std::size_t kStateLimit = 512;

  std::vector<std::tuple<FifoState, std::uint64_t, FifoState, int>> edges;
  while (!frontier.empty()) {
    const FifoState s = frontier.front();
    frontier.pop_front();
    for (std::uint64_t req = 0; req < (1ull << n); ++req) {
      auto [next, granted] = fifo_step(s, req, n);
      if (!ids.contains(next)) {
        RCARB_CHECK(ids.size() < kStateLimit, "FIFO state space exploded");
        ids.emplace(next, fsm.add_state(fifo_state_name(next)));
        frontier.push_back(next);
      }
      edges.emplace_back(s, req, next, granted);
    }
  }
  for (const auto& [from, req, to, granted] : edges) {
    logic::Cube minterm;
    for (int v = 0; v < n; ++v)
      minterm = minterm.with_literal(v, ((req >> v) & 1u) != 0);
    fsm.add_transition(ids.at(from), minterm, ids.at(to),
                       granted < 0 ? 0 : (1ull << granted));
  }
  return fsm;
}

}  // namespace rcarb::core
