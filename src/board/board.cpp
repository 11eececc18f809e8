#include "board/board.hpp"

#include "support/check.hpp"
#include "support/text.hpp"

namespace rcarb::board {

PeId Board::add_pe(std::string name, std::size_t clb_capacity,
                   int crossbar_pins) {
  RCARB_CHECK(clb_capacity > 0, "PE must have CLB capacity");
  RCARB_CHECK(crossbar_pins >= 0, "negative crossbar pins");
  pes_.push_back({std::move(name), clb_capacity, crossbar_pins});
  return pes_.size() - 1;
}

BankId Board::add_bank(std::string name, std::size_t bytes, PeId attached_pe) {
  RCARB_CHECK(attached_pe < pes_.size(), "bank attached to unknown PE");
  RCARB_CHECK(bytes > 0, "bank must have capacity");
  banks_.push_back({std::move(name), bytes, attached_pe});
  return banks_.size() - 1;
}

LinkId Board::add_link(std::string name, PeId a, PeId b, int width_bits) {
  RCARB_CHECK(a < pes_.size() && b < pes_.size(), "link endpoint unknown");
  RCARB_CHECK(a != b, "self link");
  RCARB_CHECK(width_bits > 0, "link width must be positive");
  links_.push_back({std::move(name), a, b, width_bits});
  return links_.size() - 1;
}

const Pe& Board::pe(PeId p) const {
  RCARB_CHECK(p < pes_.size(), "PE out of range");
  return pes_[p];
}

const Bank& Board::bank(BankId b) const {
  RCARB_CHECK(b < banks_.size(), "bank out of range");
  return banks_[b];
}

const Link& Board::link(LinkId l) const {
  RCARB_CHECK(l < links_.size(), "link out of range");
  return links_[l];
}

std::vector<BankId> Board::banks_of(PeId p) const {
  std::vector<BankId> out;
  for (BankId b = 0; b < banks_.size(); ++b)
    if (banks_[b].attached_pe == p) out.push_back(b);
  return out;
}

std::vector<LinkId> Board::links_of(PeId p) const {
  std::vector<LinkId> out;
  for (LinkId l = 0; l < links_.size(); ++l)
    if (links_[l].pe_a == p || links_[l].pe_b == p) out.push_back(l);
  return out;
}

std::vector<LinkId> Board::links_between(PeId a, PeId b) const {
  std::vector<LinkId> out;
  for (LinkId l = 0; l < links_.size(); ++l)
    if ((links_[l].pe_a == a && links_[l].pe_b == b) ||
        (links_[l].pe_a == b && links_[l].pe_b == a))
      out.push_back(l);
  return out;
}

std::size_t Board::total_clb_capacity() const {
  std::size_t total = 0;
  for (const Pe& p : pes_) total += p.clb_capacity;
  return total;
}

std::size_t Board::total_memory_bytes() const {
  std::size_t total = 0;
  for (const Bank& b : banks_) total += b.bytes;
  return total;
}

bool Board::crossbar_reachable(PeId a, PeId b) const {
  RCARB_CHECK(a < pes_.size() && b < pes_.size(), "PE out of range");
  return a != b && pes_[a].crossbar_pins > 0 && pes_[b].crossbar_pins > 0;
}

Board wildforce() {
  Board b("wildforce");
  // Four Xilinx XC4013E-3 PEs; the XC4013 has a 24x24 CLB array = 576 CLBs.
  for (std::size_t i = 0; i < 4; ++i)
    b.add_pe(signal_name("PE", i + 1), 576, 36);
  // One 32-KByte local SRAM per PE.
  for (PeId p = 0; p < 4; ++p)
    b.add_bank(signal_name("MEM", p + 1), 32 * 1024, p);
  // 36-pin fixed links between neighbors.
  b.add_link("L12", 0, 1, 36);
  b.add_link("L23", 1, 2, 36);
  b.add_link("L34", 2, 3, 36);
  return b;
}

Board mini2() {
  Board b("mini2");
  b.add_pe("PE1", 400, 0);
  b.add_pe("PE2", 400, 0);
  b.add_bank("MEM1", 16 * 1024, 0);
  b.add_bank("MEM2", 16 * 1024, 1);
  b.add_link("L12", 0, 1, 16);
  return b;
}

Board mesh8() {
  Board b("mesh8");
  for (std::size_t i = 0; i < 8; ++i)
    b.add_pe(signal_name("PE", i + 1), 1296, 48);  // XC4025-class PEs
  for (PeId p = 0; p < 8; ++p)
    b.add_bank(signal_name("MEM", p + 1), 128 * 1024, p);
  // 2x4 mesh links.
  for (PeId r = 0; r < 2; ++r)
    for (PeId c = 0; c + 1 < 4; ++c)
      b.add_link(std::string("H")
                     .append(std::to_string(r))
                     .append(std::to_string(c)),
                 r * 4 + c, r * 4 + c + 1, 32);
  for (PeId c = 0; c < 4; ++c)
    b.add_link(std::string("V").append(std::to_string(c)), c, 4 + c, 32);
  return b;
}

}  // namespace rcarb::board
