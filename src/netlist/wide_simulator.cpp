#include "netlist/wide_simulator.hpp"

#include <algorithm>
#include <cstring>
#include <functional>

#include "netlist/wide_sim_impl.hpp"
#include "support/check.hpp"

namespace rcarb::netlist {

namespace detail {

SoaNetlist::SoaNetlist(const Netlist& nl)
    : num_nets(static_cast<std::uint32_t>(nl.num_nets())),
      num_luts(static_cast<std::uint32_t>(nl.num_luts())),
      num_dffs(static_cast<std::uint32_t>(nl.num_dffs())) {
  const std::vector<std::size_t> topo = nl.lut_topo_order();
  in.assign(std::size_t{kMaxLutInputs} * num_luts, 0);
  arity.resize(num_luts);
  mask.resize(num_luts);
  out.resize(num_luts);
  rows_begin.resize(std::size_t{num_luts} + 1);
  std::vector<std::uint32_t> pos_of_lut(num_luts);
  std::uint32_t rows = 0;
  for (std::uint32_t p = 0; p < num_luts; ++p) {
    const Lut& lut = nl.luts()[topo[p]];
    pos_of_lut[topo[p]] = p;
    arity[p] = static_cast<std::uint8_t>(lut.inputs.size());
    mask[p] = lut.mask;
    out[p] = lut.output;
    for (std::size_t k = 0; k < lut.inputs.size(); ++k)
      in[std::size_t{kMaxLutInputs} * p + k] = lut.inputs[k];
    rows_begin[p] = rows;
    rows += static_cast<std::uint32_t>(std::size_t{1} << lut.inputs.size());
  }
  rows_begin[num_luts] = rows;
  row_splat.resize(rows);
  for (std::uint32_t p = 0; p < num_luts; ++p) {
    const std::uint32_t num_rows = rows_begin[p + 1] - rows_begin[p];
    for (std::uint32_t r = 0; r < num_rows; ++r)
      row_splat[rows_begin[p] + r] =
          ((std::uint32_t{mask[p]} >> r) & 1u) ? ~std::uint64_t{0} : 0;
  }

  const std::vector<std::vector<std::uint32_t>> by_net = nl.lut_fanouts();
  fanout_begin.resize(std::size_t{num_nets} + 1);
  std::uint32_t total = 0;
  for (std::uint32_t n = 0; n < num_nets; ++n) {
    fanout_begin[n] = total;
    total += static_cast<std::uint32_t>(by_net[n].size());
  }
  fanout_begin[num_nets] = total;
  fanout_pos.resize(total);
  for (std::uint32_t n = 0; n < num_nets; ++n) {
    std::uint32_t at = fanout_begin[n];
    for (const std::uint32_t lut : by_net[n]) fanout_pos[at++] = pos_of_lut[lut];
  }

  dff_d.resize(num_dffs);
  dff_q.resize(num_dffs);
  dff_init.resize(num_dffs);
  for (std::uint32_t i = 0; i < num_dffs; ++i) {
    const Dff& dff = nl.dffs()[i];
    dff_d[i] = dff.d;
    dff_q[i] = dff.q;
    dff_init[i] = dff.init ? 1 : 0;
  }
}

WideSimBase::~WideSimBase() = default;

WideSimBase::WideSimBase(const Netlist& nl, std::size_t lanes,
                         SettleMode mode)
    : soa_(nl), lanes_(lanes), words_(lanes / 64), mode_(mode) {
  if (mode_ == SettleMode::kEventDriven)
    dirty_bits_.assign((std::size_t{soa_.num_luts} + 63) / 64, 0);
}

void WideSimBase::mark_fanouts_dirty(NetId net) {
  const std::uint32_t begin = soa_.fanout_begin[net];
  const std::uint32_t end = soa_.fanout_begin[std::size_t{net} + 1];
  std::uint64_t* dirty = dirty_bits_.data();
  for (std::uint32_t i = begin; i < end; ++i) {
    const std::uint32_t pos = soa_.fanout_pos[i];
    dirty[pos >> 6] |= std::uint64_t{1} << (pos & 63);
  }
}

void WideSimBase::clear_dirty() {
  std::fill(dirty_bits_.begin(), dirty_bits_.end(), 0);
}

namespace {

/// Portable lane word: plain uint64 arithmetic over a fixed array.  The
/// per-word loops are branch-free straight-line code the compiler can
/// auto-vectorize; with the AVX kernels unavailable (non-x86, narrow
/// widths, RCARB_SIMD=scalar) this is the engine.
template <std::size_t W>
struct PortableWord {
  static constexpr std::size_t kWords = W;
  std::uint64_t v[W];

  static PortableWord zero() {
    PortableWord w;
    for (std::size_t i = 0; i < W; ++i) w.v[i] = 0;
    return w;
  }
  static PortableWord ones() {
    PortableWord w;
    for (std::size_t i = 0; i < W; ++i) w.v[i] = ~std::uint64_t{0};
    return w;
  }
  static PortableWord broadcast(std::uint64_t x) {
    PortableWord w;
    for (std::size_t i = 0; i < W; ++i) w.v[i] = x;
    return w;
  }
  static PortableWord load(const std::uint64_t* p) {
    PortableWord w;
    std::memcpy(w.v, p, sizeof w.v);
    return w;
  }
  static void store(PortableWord w, std::uint64_t* p) {
    std::memcpy(p, w.v, sizeof w.v);
  }
  static PortableWord mux(PortableWord t0, PortableWord t1, PortableWord s) {
    PortableWord r;
    for (std::size_t i = 0; i < W; ++i)
      r.v[i] = (t0.v[i] & ~s.v[i]) | (t1.v[i] & s.v[i]);
    return r;
  }
  static bool equal(PortableWord a, PortableWord b) {
    std::uint64_t diff = 0;
    for (std::size_t i = 0; i < W; ++i) diff |= a.v[i] ^ b.v[i];
    return diff == 0;
  }
};

}  // namespace

std::unique_ptr<WideSimBase> make_wide_sim_portable(const Netlist& nl,
                                                    std::size_t lanes,
                                                    SettleMode mode) {
  switch (lanes / 64) {
    case 1:
      return std::make_unique<WideSimImpl<PortableWord<1>>>(nl, lanes, mode);
    case 2:
      return std::make_unique<WideSimImpl<PortableWord<2>>>(nl, lanes, mode);
    case 3:
      return std::make_unique<WideSimImpl<PortableWord<3>>>(nl, lanes, mode);
    case 4:
      return std::make_unique<WideSimImpl<PortableWord<4>>>(nl, lanes, mode);
    case 5:
      return std::make_unique<WideSimImpl<PortableWord<5>>>(nl, lanes, mode);
    case 6:
      return std::make_unique<WideSimImpl<PortableWord<6>>>(nl, lanes, mode);
    case 7:
      return std::make_unique<WideSimImpl<PortableWord<7>>>(nl, lanes, mode);
    case 8:
      return std::make_unique<WideSimImpl<PortableWord<8>>>(nl, lanes, mode);
    default:
      return nullptr;
  }
}

}  // namespace detail

WideLaneSimulator::WideLaneSimulator(const Netlist& netlist,
                                     std::size_t lanes, SettleMode mode,
                                     std::optional<SimdTier> tier)
    : netlist_(&netlist), lanes_(lanes), words_(lanes / 64) {
  RCARB_CHECK(lanes >= 64 && lanes <= kMaxLanes && lanes % 64 == 0,
              "WideLaneSimulator lanes must be a multiple of 64 in "
              "[64, 512]");
  // The machine cap already folds in $RCARB_SIMD; an explicit request can
  // only narrow it further.
  const SimdTier cap = simd_tier();
  tier_ = std::min(tier.value_or(cap), cap);
  if (words_ == 4 && tier_ >= SimdTier::kAvx2) {
    impl_ = detail::make_wide_sim_avx2(netlist, lanes, mode);
    if (impl_) tier_ = SimdTier::kAvx2;
  } else if (words_ == 8 && tier_ >= SimdTier::kAvx512) {
    impl_ = detail::make_wide_sim_avx512(netlist, lanes, mode);
    if (impl_) tier_ = SimdTier::kAvx512;
  }
  if (!impl_) {
    impl_ = detail::make_wide_sim_portable(netlist, lanes, mode);
    tier_ = SimdTier::kScalar;
  }
  RCARB_CHECK(impl_ != nullptr, "no wide-lane kernel for this width");
}

WideLaneSimulator::~WideLaneSimulator() = default;
WideLaneSimulator::WideLaneSimulator(WideLaneSimulator&&) noexcept = default;
WideLaneSimulator& WideLaneSimulator::operator=(WideLaneSimulator&&) noexcept =
    default;

void WideLaneSimulator::reset() { impl_->reset(); }

void WideLaneSimulator::set_input(NetId net, const std::uint64_t* word) {
  RCARB_CHECK(netlist_->driver_kind(net) == DriverKind::kPrimaryInput,
              "set_input on a non-input net");
  impl_->set_input_word(net, word);
}

void WideLaneSimulator::set_input(const std::string& name,
                                  const std::uint64_t* word) {
  set_input(resolve(name, "unknown input net: "), word);
}

void WideLaneSimulator::set_input_all(NetId net, bool value) {
  std::uint64_t row[kMaxLanes / 64];
  for (std::size_t w = 0; w < words_; ++w)
    row[w] = value ? ~std::uint64_t{0} : 0;
  set_input(net, row);
}

void WideLaneSimulator::set_input_lane(NetId net, std::size_t lane,
                                       bool value) {
  RCARB_CHECK(netlist_->driver_kind(net) == DriverKind::kPrimaryInput,
              "set_input on a non-input net");
  RCARB_CHECK(lane < lanes_, "lane out of range");
  std::uint64_t row[kMaxLanes / 64];
  impl_->get_word(net, row);
  const std::uint64_t bit = std::uint64_t{1} << (lane % 64);
  if (value) {
    row[lane / 64] |= bit;
  } else {
    row[lane / 64] &= ~bit;
  }
  impl_->set_input_word(net, row);
}

void WideLaneSimulator::settle() { impl_->settle(); }

void WideLaneSimulator::clock() { impl_->clock(); }

void WideLaneSimulator::poke_register(NetId net, const std::uint64_t* word) {
  RCARB_CHECK(netlist_->driver_kind(net) == DriverKind::kDff,
              "poke_register on a non-register net");
  impl_->poke_register_word(net, word);
}

void WideLaneSimulator::poke_register_lane(NetId net, std::size_t lane,
                                           bool value) {
  RCARB_CHECK(netlist_->driver_kind(net) == DriverKind::kDff,
              "poke_register on a non-register net");
  RCARB_CHECK(lane < lanes_, "lane out of range");
  std::uint64_t row[kMaxLanes / 64];
  impl_->get_word(net, row);
  const std::uint64_t bit = std::uint64_t{1} << (lane % 64);
  if (value) {
    row[lane / 64] |= bit;
  } else {
    row[lane / 64] &= ~bit;
  }
  impl_->poke_register_word(net, row);
}

void WideLaneSimulator::poke_register_lane(const std::string& name,
                                           std::size_t lane, bool value) {
  poke_register_lane(resolve(name, "unknown register net: "), lane, value);
}

void WideLaneSimulator::get(NetId net, std::uint64_t* out) const {
  RCARB_CHECK(net < netlist_->num_nets(), "net out of range");
  impl_->get_word(net, out);
}

bool WideLaneSimulator::get_lane(NetId net, std::size_t lane) const {
  RCARB_CHECK(lane < lanes_, "lane out of range");
  std::uint64_t row[kMaxLanes / 64];
  get(net, row);
  return (row[lane / 64] >> (lane % 64)) & 1u;
}

bool WideLaneSimulator::get_lane(const std::string& name,
                                 std::size_t lane) const {
  return get_lane(resolve(name, "unknown net: "), lane);
}

std::uint64_t WideLaneSimulator::luts_evaluated() const {
  return impl_->luts_evaluated();
}

std::uint64_t WideLaneSimulator::full_settles() const {
  return impl_->full_settles();
}

std::uint64_t WideLaneSimulator::event_settles() const {
  return impl_->event_settles();
}

NetId WideLaneSimulator::resolve(const std::string& name,
                                 const char* what) const {
  ++name_lookups_;
  const auto net = netlist_->find_net(name);
  RCARB_CHECK(net.has_value(), what + name);
  return *net;
}

}  // namespace rcarb::netlist
