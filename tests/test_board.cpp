#include <gtest/gtest.h>

#include "board/board.hpp"
#include "support/check.hpp"

namespace rcarb::board {
namespace {

TEST(Board, WildforceMatchesPaperDescription) {
  const Board b = wildforce();
  EXPECT_EQ(b.name(), "wildforce");
  ASSERT_EQ(b.num_pes(), 4u);
  for (PeId p = 0; p < 4; ++p) {
    EXPECT_EQ(b.pe(p).clb_capacity, 576u) << "XC4013 is a 24x24 CLB array";
    EXPECT_EQ(b.pe(p).crossbar_pins, 36);
  }
  ASSERT_EQ(b.num_banks(), 4u);
  for (BankId bank = 0; bank < 4; ++bank) {
    EXPECT_EQ(b.bank(bank).bytes, 32u * 1024u);
    EXPECT_EQ(b.bank(bank).attached_pe, bank);
  }
  // Chain of 36-pin neighbor links.
  ASSERT_EQ(b.num_links(), 3u);
  for (LinkId l = 0; l < 3; ++l) EXPECT_EQ(b.link(l).width_bits, 36);
}

TEST(Board, QueriesWork) {
  const Board b = wildforce();
  EXPECT_EQ(b.banks_of(2), (std::vector<BankId>{2}));
  EXPECT_EQ(b.links_between(0, 1).size(), 1u);
  EXPECT_EQ(b.links_between(1, 0).size(), 1u) << "links are undirected";
  EXPECT_TRUE(b.links_between(0, 3).empty());
  EXPECT_EQ(b.links_of(1).size(), 2u);
  EXPECT_EQ(b.total_clb_capacity(), 4u * 576u);
  EXPECT_EQ(b.total_memory_bytes(), 4u * 32u * 1024u);
}

TEST(Board, CrossbarReachability) {
  const Board wf = wildforce();
  EXPECT_TRUE(wf.crossbar_reachable(0, 3));
  EXPECT_FALSE(wf.crossbar_reachable(2, 2)) << "self connection meaningless";
  const Board m2 = mini2();
  EXPECT_FALSE(m2.crossbar_reachable(0, 1)) << "mini2 has no crossbar";
}

TEST(Board, Mini2AndMesh8Shapes) {
  const Board m2 = mini2();
  EXPECT_EQ(m2.num_pes(), 2u);
  EXPECT_EQ(m2.num_links(), 1u);
  const Board m8 = mesh8();
  EXPECT_EQ(m8.num_pes(), 8u);
  EXPECT_EQ(m8.num_banks(), 8u);
  EXPECT_EQ(m8.num_links(), 10u);  // 6 horizontal + 4 vertical
  EXPECT_GT(m8.total_clb_capacity(), wildforce().total_clb_capacity());
}

TEST(Board, RejectsBadConstruction) {
  Board b("bad");
  EXPECT_THROW(b.add_pe("p", 0, 0), CheckError);
  const PeId p = b.add_pe("p", 100, 0);
  EXPECT_THROW(b.add_bank("m", 0, p), CheckError);
  EXPECT_THROW(b.add_bank("m", 16, 9), CheckError);
  EXPECT_THROW(b.add_link("l", p, p, 8), CheckError);
  EXPECT_THROW((void)b.pe(5), CheckError);
}

}  // namespace
}  // namespace rcarb::board
