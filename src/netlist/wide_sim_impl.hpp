// Internal engine template behind netlist::WideLaneSimulator.
//
// This header is included by exactly three translation units:
//
//   wide_simulator.cpp   — portable kernels (std::array-style uint64 words,
//                          compiled with the project's baseline flags),
//   wide_sim_avx2.cpp    — the 256-lane kernel (compiled with -mavx2),
//   wide_sim_avx512.cpp  — the 512-lane kernel (compiled with -mavx512f).
//
// ODR discipline: the AVX translation units instantiate *only* their own
// word types (WideSimImpl<Avx2Word> / WideSimImpl<Avx512Word>), so no
// symbol compiled with a wider ISA can ever be COMDAT-selected into a
// binary path that runs before the cpuid check.  All shared, non-template
// machinery — the SoA construction, the dirty-bitmask bookkeeping — lives
// out-of-line in WideSimBase, compiled once with baseline flags in
// wide_simulator.cpp.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"  // SettleMode

namespace rcarb::netlist::detail {

/// Structure-of-arrays view of a Netlist, in LUT topological order: the
/// per-LUT input ids, arity, mask and output id live in contiguous
/// per-field arrays, so a settle pass streams cache lines front to back
/// instead of chasing `Lut` structs through `std::vector<NetId>` heads.
/// All LUT coordinates are *topo positions* (position == topological
/// rank), which makes the event-driven dirty set a bitmask over positions
/// swept front to back.
struct SoaNetlist {
  explicit SoaNetlist(const Netlist& nl);

  std::uint32_t num_nets = 0;
  std::uint32_t num_luts = 0;
  std::uint32_t num_dffs = 0;

  // Per LUT at topo position p (inputs padded to kMaxLutInputs; only the
  // first arity[p] entries are read).
  std::vector<std::uint32_t> in;      // kMaxLutInputs * num_luts
  std::vector<std::uint8_t> arity;    // num_luts
  std::vector<std::uint16_t> mask;    // num_luts
  std::vector<std::uint32_t> out;     // num_luts, output NetId
  // Row offsets: LUT p's 2^arity[p] truth-table rows live at
  // [rows_begin[p], rows_begin[p+1]) in row_splat.
  std::vector<std::uint32_t> rows_begin;  // num_luts + 1
  // Truth-table rows as 8-byte splat words (0 or ~0), broadcast to the
  // lane width at eval time.  Storing one word per row instead of a full
  // lane row keeps the whole table L1-resident at every width (a 512-lane
  // expansion would be 64 bytes per row — larger than L1 for campaign
  // netlists — and the first fold level is the only consumer).
  std::vector<std::uint64_t> row_splat;

  // CSR fanouts: topo positions of the LUTs reading each net.
  std::vector<std::uint32_t> fanout_begin;  // num_nets + 1
  std::vector<std::uint32_t> fanout_pos;

  // DFFs, same order as Netlist::dffs().
  std::vector<std::uint32_t> dff_d;
  std::vector<std::uint32_t> dff_q;
  std::vector<std::uint8_t> dff_init;
};

/// Width- and ISA-agnostic part of the wide engine: SoA view, settle-mode
/// state, the dirty-LUT bitmask, and the instrumentation counters.  The
/// virtual API mirrors WideLaneSimulator minus name resolution and
/// argument checking (the front end owns both).
class WideSimBase {
 public:
  virtual ~WideSimBase();
  WideSimBase(const WideSimBase&) = delete;
  WideSimBase& operator=(const WideSimBase&) = delete;

  virtual void reset() = 0;
  /// `words` points at lanes()/64 uint64 values, lane l = bit l%64 of
  /// word l/64.
  virtual void set_input_word(NetId net, const std::uint64_t* words) = 0;
  virtual void settle() = 0;
  virtual void clock() = 0;
  virtual void poke_register_word(NetId net, const std::uint64_t* words) = 0;
  virtual void get_word(NetId net, std::uint64_t* out) const = 0;

  [[nodiscard]] std::size_t lanes() const { return lanes_; }
  [[nodiscard]] std::size_t words() const { return words_; }
  [[nodiscard]] std::uint64_t luts_evaluated() const {
    return luts_evaluated_;
  }
  [[nodiscard]] std::uint64_t full_settles() const { return full_settles_; }
  [[nodiscard]] std::uint64_t event_settles() const { return event_settles_; }

 protected:
  WideSimBase(const Netlist& nl, std::size_t lanes, SettleMode mode);

  /// Marks every LUT reading `net` dirty (event mode only; the bitmask is
  /// empty-sized otherwise, so callers must gate on mode_ — write_net
  /// does).  Out-of-line in the baseline TU on purpose: it must never be
  /// COMDAT-emitted from an AVX translation unit.
  void mark_fanouts_dirty(NetId net);
  /// Zeroes the bitmask after a full pass consumed the dirt wholesale.
  void clear_dirty();

  SoaNetlist soa_;
  std::size_t lanes_;
  std::size_t words_;
  SettleMode mode_;
  bool full_resettle_pending_ = true;

  std::uint64_t luts_evaluated_ = 0;
  std::uint64_t full_settles_ = 0;
  std::uint64_t event_settles_ = 0;

  /// Dirty LUTs as one bit per topo position.  Because positions are topo
  /// ranks, settle_event sweeps it front to back exactly once — an eval
  /// at position p can only set bits at positions > p, never behind the
  /// sweep — which replaces a push/pop heap with a ctz scan.
  std::vector<std::uint64_t> dirty_bits_;
};

// Kernel factories.  The portable factory accepts any words() in [1, 8];
// the AVX factories return nullptr unless their TU was compiled with the
// matching ISA flag *and* the lane count matches their word width — the
// caller performs the cpuid gate before calling them.
std::unique_ptr<WideSimBase> make_wide_sim_portable(const Netlist& nl,
                                                    std::size_t lanes,
                                                    SettleMode mode);
std::unique_ptr<WideSimBase> make_wide_sim_avx2(const Netlist& nl,
                                                std::size_t lanes,
                                                SettleMode mode);
std::unique_ptr<WideSimBase> make_wide_sim_avx512(const Netlist& nl,
                                                  std::size_t lanes,
                                                  SettleMode mode);

/// The engine proper, templated on a lane-word type providing:
///   static constexpr std::size_t kWords;          // 64-lane words
///   static Word zero(); static Word ones();
///   static Word broadcast(uint64_t);              // splat to every word
///   static Word load(const uint64_t*); static void store(Word, uint64_t*);
///   static Word mux(Word t0, Word t1, Word sel);  // (t0 & ~sel)|(t1 & sel)
///   static bool equal(Word, Word);
/// Settle strategies and two-phase clocking match netlist::Simulator
/// exactly, lane by lane; a register poke seeds the dirty set with the
/// poked DFF's fanout cone (the cone argument is the same as clock()'s).
template <typename Word>
class WideSimImpl final : public WideSimBase {
 public:
  WideSimImpl(const Netlist& nl, std::size_t lanes, SettleMode mode)
      : WideSimBase(nl, lanes, mode) {
    value_.resize(soa_.num_nets, Word::zero());
    dff_sample_.resize(soa_.num_dffs, Word::zero());
    WideSimImpl::reset();
  }

  void reset() override {
    Word* value = value_.data();
    for (std::uint32_t n = 0; n < soa_.num_nets; ++n) value[n] = Word::zero();
    const std::uint32_t* q = soa_.dff_q.data();
    const std::uint8_t* init = soa_.dff_init.data();
    for (std::uint32_t i = 0; i < soa_.num_dffs; ++i)
      if (init[i]) value[q[i]] = Word::ones();
    full_resettle_pending_ = true;
    settle();
  }

  void set_input_word(NetId net, const std::uint64_t* words) override {
    write_net(net, Word::load(words));
  }

  void settle() override {
    if (mode_ == SettleMode::kFullTopo || full_resettle_pending_) {
      settle_full();
    } else {
      settle_event();
    }
  }

  void clock() override {
    Word* value = value_.data();
    Word* sample = dff_sample_.data();
    const std::uint32_t* d = soa_.dff_d.data();
    const std::uint32_t* q = soa_.dff_q.data();
    // Sample every d first so the update is simultaneous in every lane.
    for (std::uint32_t i = 0; i < soa_.num_dffs; ++i) sample[i] = value[d[i]];
    for (std::uint32_t i = 0; i < soa_.num_dffs; ++i)
      write_net(q[i], sample[i]);
    settle();
  }

  void poke_register_word(NetId net, const std::uint64_t* words) override {
    // The poked register's fanout cone is exactly what clock() would
    // dirty for this q net, so no full resettle is needed.
    write_net(net, Word::load(words));
    settle();
  }

  void get_word(NetId net, std::uint64_t* out) const override {
    Word::store(value_.data()[net], out);
  }

 private:
  void write_net(NetId net, Word w) {
    Word* value = value_.data();
    if (Word::equal(value[net], w)) return;
    value[net] = w;
    if (mode_ == SettleMode::kEventDriven) mark_fanouts_dirty(net);
  }

  [[nodiscard]] Word eval_lut(std::uint32_t pos) const {
    const Word* value = value_.data();
    const std::uint32_t* in = soa_.in.data() + pos * kMaxLutInputs;
    const std::size_t arity = soa_.arity.data()[pos];
    const std::uint64_t* rows =
        soa_.row_splat.data() + soa_.rows_begin.data()[pos];
    if (arity == 0) return Word::broadcast(rows[0]);
    // Mux-tree fold: halve the truth table once per input word; each
    // lane's bit path selects its own row.  The first level folds the
    // 8-byte splat rows directly (broadcast at use, so the table costs
    // 2^arity loads of 8 bytes at any lane width); only the halved
    // intermediates live at full width.
    Word t[(std::size_t{1} << kMaxLutInputs) / 2];
    const Word w0 = value[in[0]];
    std::size_t width = (std::size_t{1} << arity) / 2;
    for (std::size_t j = 0; j < width; ++j)
      t[j] = Word::mux(Word::broadcast(rows[2 * j]),
                       Word::broadcast(rows[2 * j + 1]), w0);
    for (std::size_t b = 1; b < arity; ++b) {
      const Word w = value[in[b]];
      width >>= 1;
      for (std::size_t j = 0; j < width; ++j)
        t[j] = Word::mux(t[2 * j], t[2 * j + 1], w);
    }
    return t[0];
  }

  void settle_full() {
    Word* value = value_.data();
    const std::uint32_t* out = soa_.out.data();
    for (std::uint32_t p = 0; p < soa_.num_luts; ++p)
      value[out[p]] = eval_lut(p);
    luts_evaluated_ += soa_.num_luts;
    ++full_settles_;
    if (mode_ == SettleMode::kEventDriven) {
      clear_dirty();
      full_resettle_pending_ = false;
    }
  }

  void settle_event() {
    Word* value = value_.data();
    const std::uint32_t* out = soa_.out.data();
    std::uint64_t* dirty = dirty_bits_.data();
    const std::size_t num_words = dirty_bits_.size();
    // One ascending sweep: an eval at position p only dirties positions
    // > p (topo order), so nothing ever lands behind the scan point.
    // The inner while re-reads the word because an eval may set later
    // bits of the very word it was popped from.
    for (std::size_t wi = 0; wi < num_words; ++wi) {
      while (dirty[wi] != 0) {
        const auto bit = static_cast<std::uint32_t>(
            std::countr_zero(dirty[wi]));
        dirty[wi] &= dirty[wi] - 1;
        const auto pos = static_cast<std::uint32_t>(wi * 64 + bit);
        const Word o = eval_lut(pos);
        ++luts_evaluated_;
        const NetId out_net = out[pos];
        if (Word::equal(value[out_net], o)) continue;
        value[out_net] = o;
        mark_fanouts_dirty(out_net);
      }
    }
    ++event_settles_;
  }

  std::vector<Word> value_;       // per net, SoA row of words() lane words
  std::vector<Word> dff_sample_;  // clock() staging buffer
};

}  // namespace rcarb::netlist::detail
