#include "core/hier.hpp"

#include <algorithm>
#include <bit>

#include "core/structural.hpp"
#include "support/check.hpp"
#include "support/text.hpp"

namespace rcarb::core {
namespace {

int ceil_log2(int m) {
  RCARB_ASSERT(m >= 1, "ceil_log2 of a non-positive count");
  return m <= 1 ? 0
               : static_cast<int>(std::bit_width(
                     static_cast<unsigned>(m) - 1u));
}

std::size_t word_count(int n) {
  return static_cast<std::size_t>((n + 63) / 64);
}

bool word_bit(const std::vector<std::uint64_t>& words, int i) {
  return ((words[static_cast<std::size_t>(i) >> 6] >>
           (static_cast<unsigned>(i) & 63u)) &
          1u) != 0;
}

/// Recursively builds the subtree over leaves [lo, hi); returns the child
/// encoding for the parent (leaf ~lo or a node index).
int build_subtree(HierShape& shape, int lo, int hi, int arity) {
  if (hi - lo == 1) return ~lo;
  const int index = static_cast<int>(shape.nodes.size());
  shape.nodes.emplace_back();
  const int span = hi - lo;
  const int groups = std::min(arity, span);
  std::vector<int> child;
  int at = lo;
  for (int c = 0; c < groups; ++c) {
    // Even split: the first (span % groups) groups get one extra leaf.
    const int size = span / groups + (c < span % groups ? 1 : 0);
    child.push_back(build_subtree(shape, at, at + size, arity));
    at += size;
  }
  RCARB_ASSERT(at == hi, "split must cover the span");
  shape.nodes[static_cast<std::size_t>(index)].child = std::move(child);
  shape.nodes[static_cast<std::size_t>(index)].ptr_bits =
      std::max(1, ceil_log2(groups));
  return index;
}

void fill_bounds(const HierShape& shape, int node, std::uint64_t product,
                 std::vector<std::uint64_t>& bound) {
  const HierShape::Node& nd = shape.nodes[static_cast<std::size_t>(node)];
  const std::uint64_t p = product * nd.child.size();
  for (const int c : nd.child) {
    if (c < 0)
      bound[static_cast<std::size_t>(~c)] = p - 1;
    else
      fill_bounds(shape, c, p, bound);
  }
}

}  // namespace

const char* to_string(ArbiterKind k) {
  switch (k) {
    case ArbiterKind::kFlatFsm:
      return "flat";
    case ArbiterKind::kHierarchical:
      return "hier";
    case ArbiterKind::kPrefix:
      return "prefix";
  }
  return "?";
}

HierShape make_hier_shape(int n, int arity) {
  RCARB_CHECK(n >= 1 && n <= kMaxWideInputs,
              "hierarchical arbiter size must be in [1, kMaxWideInputs]");
  RCARB_CHECK(arity >= 2 && arity <= 4, "node arity must be in [2, 4]");
  HierShape shape;
  shape.n = n;
  shape.arity = arity;
  shape.held_bits = ceil_log2(n);
  shape.bound.assign(static_cast<std::size_t>(n), 0);
  if (n > 1) {
    const int root = build_subtree(shape, 0, n, arity);
    RCARB_ASSERT(root == 0, "root must be the first pre-order node");
    int offset = 0;
    for (HierShape::Node& nd : shape.nodes) {
      nd.first_state_bit = offset;
      offset += nd.ptr_bits;
    }
    shape.ptr_bits_total = offset;
    fill_bounds(shape, 0, 1, shape.bound);
  }
  return shape;
}

// ---------------------------------------------------------- HierarchicalArbiter

HierarchicalArbiter::HierarchicalArbiter(int n, int arity)
    : Arbiter(WideTag{}, n), shape_(make_hier_shape(n, arity)) {
  ptr_.assign(shape_.nodes.size(), 0);
  grant_.assign(word_count(n), 0);
  req_scratch_.assign(word_count(n), 0);
  any_scratch_.assign(std::max<std::size_t>(shape_.nodes.size(), 1), 0);
}

void HierarchicalArbiter::reset() {
  std::fill(ptr_.begin(), ptr_.end(), 0);
  held_ = 0;
  valid_ = false;
  std::fill(grant_.begin(), grant_.end(), 0);
}

std::string HierarchicalArbiter::describe() const {
  return "hier-rr(n=" + std::to_string(n_) +
         ", arity=" + std::to_string(shape_.arity) + ")";
}

int HierarchicalArbiter::step_wide(const std::vector<std::uint64_t>& requests) {
  const int g = step_wide_impl(requests);
  notify_wide(requests, g);
  return g;
}

int HierarchicalArbiter::step_wide_impl(
    const std::vector<std::uint64_t>& requests) {
  RCARB_CHECK(requests.size() >= grant_.size(),
              "request vector narrower than the arbiter");
  std::fill(grant_.begin(), grant_.end(), 0);

  int g = -1;
  bool new_grant = false;
  // Hold path: the current holder keeps its grant while requesting.  An
  // SEU can point held_ past n-1 (held_bits covers a power of two); such a
  // code matches no port, exactly like the netlist's one-hot decode.
  if (valid_ && held_ < n_ && word_bit(requests, held_)) {
    g = held_;
  } else if (shape_.nodes.empty()) {
    if (word_bit(requests, 0)) {
      g = 0;
      new_grant = true;
    }
  } else {
    // Bottom-up any-request per node (children follow parents in
    // pre-order, so a reverse sweep sees children first).
    const auto& nodes = shape_.nodes;
    auto child_any = [&](int c) {
      return c < 0 ? word_bit(requests, ~c)
                   : any_scratch_[static_cast<std::size_t>(c)] != 0;
    };
    for (std::size_t k = nodes.size(); k-- > 0;) {
      bool any = false;
      for (const int c : nodes[k].child) any = any || child_any(c);
      any_scratch_[k] = any ? 1 : 0;
    }
    if (any_scratch_[0] != 0) {
      // Descend: each node scans its slots cyclically from its pointer
      // (padded slots >= the child count never request) and rotates the
      // pointer past the winning slot.
      int v = 0;
      while (g < 0) {
        const HierShape::Node& nd = nodes[static_cast<std::size_t>(v)];
        const int slots = 1 << nd.ptr_bits;
        const int m = static_cast<int>(nd.child.size());
        [[maybe_unused]] const int v_before = v;
        for (int k = 0; k < slots; ++k) {
          const int s = (ptr_[static_cast<std::size_t>(v)] + k) & (slots - 1);
          if (s >= m || !child_any(nd.child[static_cast<std::size_t>(s)]))
            continue;
          ptr_[static_cast<std::size_t>(v)] = (s + 1) & (slots - 1);
          const int c = nd.child[static_cast<std::size_t>(s)];
          if (c < 0)
            g = ~c;
          else
            v = c;
          break;
        }
        RCARB_ASSERT(g >= 0 || v != v_before,
                     "a node with any-request must pick a child");
      }
      new_grant = true;
    }
  }

  if (new_grant) held_ = g;
  valid_ = g >= 0;
  if (g >= 0)
    grant_[static_cast<std::size_t>(g) >> 6] |=
        1ull << (static_cast<unsigned>(g) & 63u);
  return g;
}

int HierarchicalArbiter::do_step(std::uint64_t requests) {
  // step() fires the word-based observer hook itself; going through the
  // impl avoids notifying twice.
  std::fill(req_scratch_.begin(), req_scratch_.end(), 0);
  req_scratch_[0] = requests;
  return step_wide_impl(req_scratch_);
}

std::uint64_t HierarchicalArbiter::state_bits() const {
  RCARB_CHECK(shape_.num_state_bits() <= 64,
              "packed state requires <= 64 state bits");
  std::uint64_t bits = 0;
  for (std::size_t k = 0; k < shape_.nodes.size(); ++k)
    bits |= static_cast<std::uint64_t>(ptr_[k])
            << shape_.nodes[k].first_state_bit;
  bits |= static_cast<std::uint64_t>(held_) << shape_.ptr_bits_total;
  if (valid_) bits |= 1ull << (shape_.num_state_bits() - 1);
  return bits;
}

void HierarchicalArbiter::inject_state_bit(int bit) {
  RCARB_CHECK(bit >= 0 && bit < shape_.num_state_bits(),
              "state bit out of range");
  if (bit < shape_.ptr_bits_total) {
    for (std::size_t k = 0; k < shape_.nodes.size(); ++k) {
      const HierShape::Node& nd = shape_.nodes[k];
      if (bit < nd.first_state_bit + nd.ptr_bits) {
        ptr_[k] ^= 1 << (bit - nd.first_state_bit);
        return;
      }
    }
  }
  bit -= shape_.ptr_bits_total;
  if (bit < shape_.held_bits)
    held_ ^= 1 << bit;
  else
    valid_ = !valid_;
}

// ----------------------------------------------------------- PrefixArbiter

PrefixArbiter::PrefixArbiter(int n) : Arbiter(WideTag{}, n) {
  ptr_.assign(word_count(n), 0);
  ptr_[0] = 1;
  grant_.assign(word_count(n), 0);
  req_scratch_.assign(word_count(n), 0);
}

void PrefixArbiter::reset() {
  std::fill(ptr_.begin(), ptr_.end(), 0);
  ptr_[0] = 1;
  std::fill(grant_.begin(), grant_.end(), 0);
}

std::string PrefixArbiter::describe() const {
  return "prefix-rr(n=" + std::to_string(n_) + ")";
}

int PrefixArbiter::step_wide(const std::vector<std::uint64_t>& requests) {
  const int g = step_wide_impl(requests);
  notify_wide(requests, g);
  return g;
}

int PrefixArbiter::step_wide_impl(const std::vector<std::uint64_t>& requests) {
  RCARB_CHECK(requests.size() >= grant_.size(),
              "request vector narrower than the arbiter");
  std::fill(grant_.begin(), grant_.end(), 0);

  // Thermometer mask from the lowest pointer bit (an SEU can leave the
  // register multi-hot — the mask still starts at the lowest hot bit, or
  // covers nothing when zero-hot, matching the prefix-OR netlist).
  int lowest = -1;
  for (std::size_t w = 0; w < ptr_.size() && lowest < 0; ++w)
    if (ptr_[w] != 0)
      lowest = static_cast<int>(w * 64) + std::countr_zero(ptr_[w]);

  int first_hi = -1;
  int first_req = -1;
  const std::size_t words = grant_.size();
  for (std::size_t w = 0; w < words && (first_hi < 0 || first_req < 0); ++w) {
    std::uint64_t r = requests[w];
    if (w + 1 == words && (n_ & 63) != 0) r &= (1ull << (n_ & 63)) - 1;
    if (first_req < 0 && r != 0)
      first_req = static_cast<int>(w * 64) + std::countr_zero(r);
    if (first_hi < 0 && lowest >= 0) {
      std::uint64_t mask = 0;
      const std::size_t lw = static_cast<std::size_t>(lowest) >> 6;
      if (w > lw)
        mask = ~0ull;
      else if (w == lw)
        mask = ~0ull << (static_cast<unsigned>(lowest) & 63u);
      const std::uint64_t h = r & mask;
      if (h != 0) first_hi = static_cast<int>(w * 64) + std::countr_zero(h);
    }
  }

  const int g = first_hi >= 0 ? first_hi : first_req;
  if (g >= 0) {
    // Any request: the pointer loads the (one-hot) grant.
    std::fill(ptr_.begin(), ptr_.end(), 0);
    ptr_[static_cast<std::size_t>(g) >> 6] =
        1ull << (static_cast<unsigned>(g) & 63u);
    grant_[static_cast<std::size_t>(g) >> 6] =
        1ull << (static_cast<unsigned>(g) & 63u);
  }
  return g;
}

int PrefixArbiter::do_step(std::uint64_t requests) {
  std::fill(req_scratch_.begin(), req_scratch_.end(), 0);
  req_scratch_[0] = requests;
  return step_wide_impl(req_scratch_);
}

std::uint64_t PrefixArbiter::state_bits() const {
  RCARB_CHECK(n_ <= 64, "packed state requires <= 64 state bits");
  return ptr_[0];
}

void PrefixArbiter::inject_state_bit(int bit) {
  RCARB_CHECK(bit >= 0 && bit < n_, "state bit out of range");
  ptr_[static_cast<std::size_t>(bit) >> 6] ^=
      1ull << (static_cast<unsigned>(bit) & 63u);
}

std::unique_ptr<Arbiter> make_scalable_arbiter(ArbiterKind kind, int n,
                                               int arity) {
  switch (kind) {
    case ArbiterKind::kFlatFsm:
      return std::make_unique<RoundRobinArbiter>(n);
    case ArbiterKind::kHierarchical:
      return std::make_unique<HierarchicalArbiter>(n, arity);
    case ArbiterKind::kPrefix:
      return std::make_unique<PrefixArbiter>(n);
  }
  RCARB_CHECK(false, "unknown arbiter kind");
  return nullptr;
}

// ---------------------------------------------------------- AIG generators

aig::Aig build_hierarchical_aig(int n, int arity) {
  const HierShape shape = make_hier_shape(n, arity);
  const auto un = static_cast<std::size_t>(n);
  aig::Aig g;
  std::vector<aig::Lit> req(un);
  for (std::size_t i = 0; i < un; ++i)
    req[i] = g.add_input(signal_name("req", i));
  const int nbits = shape.num_state_bits();
  std::vector<aig::Lit> state(static_cast<std::size_t>(nbits));
  for (std::size_t b = 0; b < state.size(); ++b)
    state[b] = g.add_input(signal_name("state", b));
  const int held_off = shape.ptr_bits_total;
  const aig::Lit valid = state[static_cast<std::size_t>(nbits - 1)];
  const auto& nodes = shape.nodes;

  // Bottom-up any-request per node (reverse pre-order sees children first).
  std::vector<aig::Lit> any(nodes.size(), aig::kConstFalse);
  auto child_any = [&](int c) {
    return c < 0 ? req[static_cast<std::size_t>(~c)]
                 : any[static_cast<std::size_t>(c)];
  };
  for (std::size_t k = nodes.size(); k-- > 0;) {
    std::vector<aig::Lit> lits;
    for (const int c : nodes[k].child) lits.push_back(child_any(c));
    any[k] = g.lor_many(std::move(lits));
  }

  // Hold path: heldv1h_i = valid & (held == i), folded left-to-right from
  // the MSB so structural hashing shares the decode as a binary trie —
  // every trie node feeds exactly its two extensions, keeping register
  // fanout constant instead of O(N) (which would poison the STA's
  // per-fanout net delay on this reg-to-reg path).
  std::vector<aig::Lit> hgr(un);
  for (std::size_t i = 0; i < un; ++i) {
    aig::Lit acc = valid;
    for (int b = shape.held_bits - 1; b >= 0; --b) {
      const aig::Lit hb = state[static_cast<std::size_t>(held_off + b)];
      acc = g.land(acc, ((i >> b) & 1u) != 0 ? hb : aig::lit_not(hb));
    }
    hgr[i] = g.land(acc, req[i]);
  }
  const aig::Lit hold_active = g.lor_many(hgr);

  // Top-down selection: the root arbitrates only when no hold is active;
  // each node picks the first requesting slot cyclically from its pointer
  // and forwards the select to that child.
  std::vector<aig::Lit> sel(nodes.size(), aig::kConstFalse);
  if (!nodes.empty()) sel[0] = aig::lit_not(hold_active);
  std::vector<aig::Lit> tree_grant(un, aig::kConstFalse);
  std::vector<aig::Lit> next_state(static_cast<std::size_t>(nbits));
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    const HierShape::Node& nd = nodes[k];
    const int m = static_cast<int>(nd.child.size());
    const int slots = 1 << nd.ptr_bits;
    std::vector<aig::Lit> pv(static_cast<std::size_t>(slots));
    for (int s = 0; s < slots; ++s) {
      std::vector<aig::Lit> lits;
      for (int b = 0; b < nd.ptr_bits; ++b) {
        const aig::Lit pb =
            state[static_cast<std::size_t>(nd.first_state_bit + b)];
        lits.push_back(((s >> b) & 1) != 0 ? pb : aig::lit_not(pb));
      }
      pv[static_cast<std::size_t>(s)] = g.land_many(std::move(lits));
    }
    std::vector<aig::Lit> cs(static_cast<std::size_t>(m));
    for (int c = 0; c < m; ++c) {
      // pick(c) = OR over pointer values s of: pointer at s, and no real
      // slot cyclically strictly earlier than c (counting from s, where
      // slot s itself is earliest) has a request.  Padded slots (>= m)
      // never request, so every pointer code is legal.
      std::vector<aig::Lit> terms;
      for (int s = 0; s < slots; ++s) {
        std::vector<aig::Lit> chain{pv[static_cast<std::size_t>(s)]};
        const int dc = (c - s + slots) & (slots - 1);
        for (int t = 0; t < m; ++t)
          if (((t - s + slots) & (slots - 1)) < dc)
            chain.push_back(aig::lit_not(
                child_any(nd.child[static_cast<std::size_t>(t)])));
        terms.push_back(g.land_many(std::move(chain)));
      }
      const aig::Lit pick =
          g.land(child_any(nd.child[static_cast<std::size_t>(c)]),
                 g.lor_many(std::move(terms)));
      cs[static_cast<std::size_t>(c)] = g.land(sel[k], pick);
      const int child = nd.child[static_cast<std::size_t>(c)];
      if (child < 0)
        tree_grant[static_cast<std::size_t>(~child)] =
            cs[static_cast<std::size_t>(c)];
      else
        sel[static_cast<std::size_t>(child)] = cs[static_cast<std::size_t>(c)];
    }
    // Ping-pong rotation: a granted node's pointer loads (winning slot +
    // 1) mod slots; everyone else holds.
    const aig::Lit granted = g.lor_many(cs);
    for (int b = 0; b < nd.ptr_bits; ++b) {
      std::vector<aig::Lit> hot;
      for (int c = 0; c < m; ++c)
        if (((((c + 1) & (slots - 1)) >> b) & 1) != 0)
          hot.push_back(cs[static_cast<std::size_t>(c)]);
      const std::size_t bit = static_cast<std::size_t>(nd.first_state_bit + b);
      next_state[bit] = g.mux(granted, g.lor_many(std::move(hot)), state[bit]);
    }
  }

  aig::Lit new_grant;
  if (nodes.empty()) {
    // n == 1: no tree; the sole port wins whenever it requests.
    tree_grant[0] = g.land(aig::lit_not(hold_active), req[0]);
    new_grant = tree_grant[0];
  } else {
    new_grant = g.lor_many(tree_grant);
  }
  for (int b = 0; b < shape.held_bits; ++b) {
    std::vector<aig::Lit> hot;
    for (std::size_t i = 0; i < un; ++i)
      if (((i >> b) & 1u) != 0) hot.push_back(tree_grant[i]);
    const std::size_t bit = static_cast<std::size_t>(held_off + b);
    next_state[bit] =
        g.mux(new_grant, g.lor_many(std::move(hot)), state[bit]);
  }
  next_state[static_cast<std::size_t>(nbits - 1)] =
      g.lor(hold_active, new_grant);

  for (std::size_t b = 0; b < next_state.size(); ++b)
    g.add_output("ns" + std::to_string(b), next_state[b]);
  for (std::size_t i = 0; i < un; ++i)
    g.add_output(signal_name("grant", i), g.lor(hgr[i], tree_grant[i]));
  return g;
}

aig::Aig build_prefix_aig(int n) {
  RCARB_CHECK(n >= 1 && n <= kMaxWideInputs,
              "prefix arbiter size must be in [1, kMaxWideInputs]");
  const auto un = static_cast<std::size_t>(n);
  aig::Aig g;
  std::vector<aig::Lit> req(un);
  for (std::size_t i = 0; i < un; ++i)
    req[i] = g.add_input(signal_name("req", i));
  std::vector<aig::Lit> ptr(un);
  for (std::size_t b = 0; b < un; ++b)
    ptr[b] = g.add_input(signal_name("state", b));

  // Thermometer mask T_i = "some pointer bit at or below i", masked
  // requests hi = req & T, and Kogge-Stone prefix/suffix OR networks over
  // both vectors.  The per-index forms P[i-1] | x_i | S[i+1] decompose the
  // *global* any(x) so no single net fans out to all n sinks — every net
  // here has constant fanout, which is what keeps the STA's fanout-priced
  // wire delay (and hence fmax) logarithmic in N.
  const std::vector<aig::Lit> T = g.lor_prefix(ptr);
  std::vector<aig::Lit> hi(un);
  for (std::size_t i = 0; i < un; ++i) hi[i] = g.land(req[i], T[i]);
  const std::vector<aig::Lit> P = g.lor_prefix(hi);
  const std::vector<aig::Lit> Q = g.lor_prefix(req);
  const std::vector<aig::Lit> SR = g.lor_suffix(hi);
  const std::vector<aig::Lit> SQ = g.lor_suffix(req);

  std::vector<aig::Lit> grant(un);
  std::vector<aig::Lit> ns(un);
  for (std::size_t i = 0; i < un; ++i) {
    const aig::Lit first_hi =
        i == 0 ? hi[0] : g.land(hi[i], aig::lit_not(P[i - 1]));
    const aig::Lit first_req =
        i == 0 ? req[0] : g.land(req[i], aig::lit_not(Q[i - 1]));
    const aig::Lit any_hi =
        i + 1 < un ? g.lor(P[i], SR[i + 1]) : P[i];
    const aig::Lit any_req =
        i + 1 < un ? g.lor(Q[i], SQ[i + 1]) : Q[i];
    grant[i] = g.lor(first_hi, g.land(first_req, aig::lit_not(any_hi)));
    ns[i] = g.lor(grant[i], g.land(ptr[i], aig::lit_not(any_req)));
  }

  for (std::size_t b = 0; b < un; ++b)
    g.add_output("ns" + std::to_string(b), ns[b]);
  for (std::size_t i = 0; i < un; ++i)
    g.add_output(signal_name("grant", i), grant[i]);
  return g;
}

aig::Aig build_flat_onehot_aig(int n) {
  RCARB_CHECK(n >= 1 && n <= kMaxWideInputs,
              "flat one-hot arbiter size must be in [1, kMaxWideInputs]");
  const auto un = static_cast<std::size_t>(n);
  aig::Aig g;
  std::vector<aig::Lit> req(un);
  for (std::size_t i = 0; i < un; ++i)
    req[i] = g.add_input(signal_name("req", i));
  std::vector<aig::Lit> state(2 * un);
  for (std::size_t b = 0; b < 2 * un; ++b)
    state[b] = g.add_input(signal_name("state", b));

  // The Fig. 5 chain with the state bits themselves as the recognizers
  // (bit i = Fi, bit n+i = Ci), without build_round_robin_aig's n <= 32
  // code-word cap.
  std::vector<aig::Lit> grant, next_state;
  build_round_robin_chain(g, req, state, grant, next_state);

  for (std::size_t b = 0; b < 2 * un; ++b)
    g.add_output("ns" + std::to_string(b), next_state[b]);
  for (std::size_t j = 0; j < un; ++j)
    g.add_output(signal_name("grant", j), grant[j]);
  return g;
}

std::vector<bool> scalable_reset_bits(ArbiterKind kind, int n, int arity) {
  switch (kind) {
    case ArbiterKind::kFlatFsm: {
      std::vector<bool> bits(2 * static_cast<std::size_t>(n), false);
      bits[0] = true;  // F0
      return bits;
    }
    case ArbiterKind::kHierarchical: {
      const HierShape shape = make_hier_shape(n, arity);
      return std::vector<bool>(
          static_cast<std::size_t>(shape.num_state_bits()), false);
    }
    case ArbiterKind::kPrefix: {
      std::vector<bool> bits(static_cast<std::size_t>(n), false);
      bits[0] = true;  // pointer at port 0
      return bits;
    }
  }
  RCARB_CHECK(false, "unknown arbiter kind");
  return {};
}

}  // namespace rcarb::core
