// Unit tests for the RTL modelling kernel: node registry, fault overlays,
// two-phase register semantics and VCD output.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "rtl/kernel.hpp"
#include "rtl/vcd.hpp"

namespace issrtl::rtl {
namespace {

TEST(Kernel, WireWriteReadImmediate) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  w.w(0xDEADBEEF);
  EXPECT_EQ(w.r(), 0xDEADBEEFu);
}

TEST(Kernel, WidthMasking) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 4);
  w.w(0xFF);
  EXPECT_EQ(w.r(), 0xFu);
  Sig b = ctx.wire("b", "iu.alu", 1);
  b.w(2);
  EXPECT_EQ(b.r(), 0u);
}

TEST(Kernel, RegisterTwoPhase) {
  SimContext ctx;
  Sig r = ctx.reg("r", "iu.special", 32);
  r.n(42);
  EXPECT_EQ(r.r(), 0u);  // not visible before the clock edge
  ctx.commit_all();
  EXPECT_EQ(r.r(), 42u);
}

TEST(Kernel, RegisterHoldsWithoutWrite) {
  SimContext ctx;
  Sig r = ctx.reg("r", "iu.special", 32);
  r.n(7);
  ctx.commit_all();
  ctx.commit_all();
  ctx.commit_all();
  EXPECT_EQ(r.r(), 7u);
}

TEST(Kernel, StuckAt1ForcesBit) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  ctx.arm_fault(0, FaultModel::kStuckAt1, 5);
  w.w(0);
  EXPECT_EQ(w.r(), 32u);
  w.w(0xFFFFFFFF);
  EXPECT_EQ(w.r(), 0xFFFFFFFFu);
}

TEST(Kernel, StuckAt0ForcesBit) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  ctx.arm_fault(0, FaultModel::kStuckAt0, 0);
  w.w(0xFFFFFFFF);
  EXPECT_EQ(w.r(), 0xFFFFFFFEu);
}

TEST(Kernel, OpenLineFreezesArmTimeValue) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  w.w(0x10);                                  // bit 4 high at injection
  ctx.arm_fault(0, FaultModel::kOpenLine, 4);
  w.w(0);
  EXPECT_EQ(w.r(), 0x10u);                    // bit stays high
  ctx.clear_faults();
  EXPECT_EQ(w.r(), 0u);
}

TEST(Kernel, OpenLineFreezesZero) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  ctx.arm_fault(0, FaultModel::kOpenLine, 4); // bit low at injection
  w.w(0xFFFFFFFF);
  EXPECT_EQ(w.r(), 0xFFFFFFEFu);
}

TEST(Kernel, TransientFlipIsOneShot) {
  SimContext ctx;
  Sig r = ctx.reg("r", "iu.special", 32);
  r.poke(8);
  ctx.arm_fault(0, FaultModel::kTransientBitFlip, 3);
  EXPECT_EQ(r.r(), 0u);       // flipped now
  r.n(8);
  ctx.commit_all();
  EXPECT_EQ(r.r(), 8u);       // overwritten value is clean
}

TEST(Kernel, DoubleFaultOnNodeRejected) {
  SimContext ctx;
  ctx.wire("w", "iu.alu", 32);
  ctx.arm_fault(0, FaultModel::kStuckAt0, 0);
  EXPECT_THROW(ctx.arm_fault(0, FaultModel::kStuckAt1, 1), std::logic_error);
}

TEST(Kernel, BitRangeChecked) {
  SimContext ctx;
  ctx.wire("w", "iu.alu", 4);
  EXPECT_THROW(ctx.arm_fault(0, FaultModel::kStuckAt0, 4), std::out_of_range);
}

TEST(Kernel, ClearFaultsRestores) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  w.w(0);
  ctx.arm_fault(0, FaultModel::kStuckAt1, 7);
  EXPECT_EQ(w.r(), 128u);
  ctx.clear_faults();
  EXPECT_EQ(w.r(), 0u);
  // Can re-arm after clearing.
  ctx.arm_fault(0, FaultModel::kStuckAt1, 3);
  EXPECT_EQ(w.r(), 8u);
}

TEST(Kernel, InjectableBitsByUnit) {
  SimContext ctx;
  ctx.wire("a", "iu.alu", 32);
  ctx.wire("b", "iu.alu", 4);
  ctx.reg("c", "cmem.dcache", 1);
  EXPECT_EQ(ctx.injectable_bits("iu"), 36u);
  EXPECT_EQ(ctx.injectable_bits("iu.alu"), 36u);
  EXPECT_EQ(ctx.injectable_bits("cmem"), 1u);
  EXPECT_EQ(ctx.injectable_bits(), 37u);
}

TEST(Kernel, UnitPrefixIsComponentWise) {
  SimContext ctx;
  ctx.wire("a", "iu.alu", 8);
  ctx.wire("b", "iu.aluX", 8);  // must NOT match prefix "iu.alu"
  EXPECT_EQ(ctx.nodes_in_unit("iu.alu").size(), 1u);
  EXPECT_EQ(ctx.nodes_in_unit("iu").size(), 2u);
}

TEST(Kernel, NodesInUnitReturnsIds) {
  SimContext ctx;
  ctx.wire("a", "iu.alu", 8);
  ctx.reg("b", "cmem.icache", 8);
  const auto iu = ctx.nodes_in_unit("iu");
  ASSERT_EQ(iu.size(), 1u);
  EXPECT_EQ(ctx.name(iu[0]), "a");
}

TEST(Kernel, ZeroAllResetsValuesNotFaults) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  w.w(123);
  ctx.arm_fault(0, FaultModel::kStuckAt1, 0);
  ctx.zero_all();
  EXPECT_EQ(w.r(), 1u);  // value cleared, stuck bit still applied
}

TEST(Kernel, SnapshotRoundTrip) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  Sig r = ctx.reg("r", "iu.special", 16);
  Sig b = ctx.wire("b", "cmem.icache", 1);
  w.w(0xCAFEBABE);
  r.poke(0x1234);
  b.w(1);
  const std::vector<u32> snap = ctx.save_values();
  EXPECT_TRUE(ctx.values_equal(snap));

  w.w(0);
  r.n(0x4321);
  ctx.commit_all();
  b.w(0);
  EXPECT_FALSE(ctx.values_equal(snap));

  ctx.load_values(snap);
  EXPECT_TRUE(ctx.values_equal(snap));
  EXPECT_EQ(w.r(), 0xCAFEBABEu);
  EXPECT_EQ(r.r(), 0x1234u);
  EXPECT_EQ(b.r(), 1u);
  // Registers restored at a cycle boundary hold their value (cur == nxt).
  ctx.commit_all();
  EXPECT_EQ(r.r(), 0x1234u);
  EXPECT_TRUE(ctx.values_equal(snap));
}

TEST(Kernel, SnapshotSizeMismatchRejected) {
  SimContext ctx;
  ctx.wire("w", "iu.alu", 32);
  std::vector<u32> snap = ctx.save_values();
  snap.push_back(0);
  EXPECT_FALSE(ctx.values_equal(snap));
  EXPECT_THROW(ctx.load_values(snap), std::invalid_argument);
}

TEST(Kernel, FindNodeUsesFirstRegistration) {
  SimContext ctx;
  ctx.wire("tag0", "cmem.icache", 20);
  ctx.wire("other", "iu.alu", 32);
  ctx.wire("tag0", "cmem.dcache", 20);  // duplicate name, different unit
  const auto id = ctx.find_node("tag0");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 0u);  // linear-scan semantics: first registered wins
  EXPECT_EQ(ctx.unit(*id), "cmem.icache");
  EXPECT_FALSE(ctx.find_node("nonexistent").has_value());
}

// ---- activation watch -------------------------------------------------------

/// One clock edge as the RTL core runs it, followed by the watch sweep.
void clock(SimContext& ctx) {
  ctx.commit_all();
  ctx.sweep_watches();
}

TEST(ActivationWatch, RegisterActivatesAtCommit) {
  SimContext ctx;
  Sig r = ctx.reg("r", "iu.special", 32);
  Sig s = ctx.reg_sparse("rf", "iu.regfile", 32);
  const std::size_t hr =
      ctx.watch_activation(r.id(), FaultModel::kStuckAt0, 3);
  const std::size_t hs =
      ctx.watch_activation(s.id(), FaultModel::kStuckAt1, 0);
  EXPECT_TRUE(ctx.activated(hs));  // boundary value 0 is already off 1
  EXPECT_FALSE(ctx.activated(hr));
  r.n(0x8);
  ctx.sweep_watches();  // a scheduled next value is not visible yet
  EXPECT_FALSE(ctx.activated(hr));
  clock(ctx);
  EXPECT_TRUE(ctx.activated(hr));
  EXPECT_EQ(ctx.watches_pending(), 0u);

  // A sparse register's commit is observed the same way.
  s.ns(1);
  clock(ctx);
  const std::size_t hs0 =
      ctx.watch_activation(s.id(), FaultModel::kStuckAt1, 0);
  EXPECT_FALSE(ctx.activated(hs0));
  s.ns(2);
  clock(ctx);
  EXPECT_TRUE(ctx.activated(hs0));
}

TEST(ActivationWatch, WireWrittenTwiceInOneCycleActivates) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  const std::size_t h =
      ctx.watch_activation(w.id(), FaultModel::kStuckAt0, 2);
  w.w(0x4);  // a consumer reading now sees bit 2 high...
  w.w(0x0);  // ...even though the cycle ends with it low again
  clock(ctx);
  EXPECT_EQ(w.r(), 0u);
  EXPECT_TRUE(ctx.activated(h));
}

TEST(ActivationWatch, OpenLineCapturesValueAtArm) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  w.w(0x10);
  const std::size_t h =
      ctx.watch_activation(w.id(), FaultModel::kOpenLine, 4);
  const std::size_t low =
      ctx.watch_activation(w.id(), FaultModel::kOpenLine, 0);
  EXPECT_FALSE(ctx.activated(h));
  EXPECT_FALSE(ctx.activated(low));
  w.w(0x13);  // bit 4 still high; bit 0 leaves its captured 0
  clock(ctx);
  EXPECT_FALSE(ctx.activated(h));
  EXPECT_TRUE(ctx.activated(low));
  w.w(0x03);
  EXPECT_TRUE(ctx.activated(h));
}

TEST(ActivationWatch, TwoSitesOnOneNodeWithDifferentInstants) {
  SimContext ctx;
  Sig r = ctx.reg("r", "iu.special", 32);
  r.poke(0x1);
  // Site A arms at cycle 0; bit 0 drops at cycle 1 and recovers at cycle 2.
  const std::size_t a =
      ctx.watch_activation(r.id(), FaultModel::kStuckAt1, 0);
  r.n(0x0);
  clock(ctx);
  EXPECT_TRUE(ctx.activated(a));
  r.n(0x1);
  clock(ctx);
  // Site B arms at cycle 2 on the same bit: A's activation predates it.
  const std::size_t b =
      ctx.watch_activation(r.id(), FaultModel::kStuckAt1, 0);
  const std::size_t c =
      ctx.watch_activation(r.id(), FaultModel::kStuckAt0, 5);
  for (int i = 0; i < 4; ++i) {
    r.n(0x1 | (i << 1 & 0x1E));  // bits 1..4 move, bits 0 and 5 do not
    clock(ctx);
  }
  EXPECT_FALSE(ctx.activated(b));
  EXPECT_FALSE(ctx.activated(c));
  EXPECT_EQ(ctx.watches_pending(), 2u);
  // Site D joins B on bit 0 at cycle 6; a later drop activates both, and
  // only them.
  const std::size_t d =
      ctx.watch_activation(r.id(), FaultModel::kStuckAt1, 0);
  r.n(0x0);
  clock(ctx);
  EXPECT_TRUE(ctx.activated(b));
  EXPECT_TRUE(ctx.activated(d));
  EXPECT_FALSE(ctx.activated(c));
  EXPECT_EQ(ctx.watches_pending(), 1u);
}

TEST(ActivationWatch, BitHeldAtStuckValueNeverActivates) {
  SimContext ctx;
  Sig r = ctx.reg("r", "iu.special", 32);
  Sig w = ctx.wire("w", "iu.alu", 32);
  const std::size_t hr =
      ctx.watch_activation(r.id(), FaultModel::kStuckAt0, 7);
  const std::size_t hw =
      ctx.watch_activation(w.id(), FaultModel::kStuckAt1, 31);
  EXPECT_TRUE(ctx.activated(hw));  // boundary value 0 is off 1
  const std::size_t hw0 =
      ctx.watch_activation(w.id(), FaultModel::kStuckAt0, 31);
  for (u32 i = 0; i < 64; ++i) {
    w.w(i * 0x01010101u & 0x7FFFFFFFu);
    r.n(i & 0x7F);
    clock(ctx);
  }
  EXPECT_FALSE(ctx.activated(hr));
  EXPECT_FALSE(ctx.activated(hw0));
  EXPECT_EQ(ctx.watches_pending(), 2u);
}

// A port-read node's consumers see it only through read_port(): boundary
// values, writes and commits that leave the bit off v reach no one, and only
// an off port read activates the watch (at the next sweep, which checks the
// reads logged since the last one).
TEST(ActivationWatch, PortReadNodeActivatesOnOffReadOnly) {
  SimContext ctx;
  Sig r = ctx.reg("entry", "iu.regfile", 32);
  Sig w = ctx.wire("word", "cmem.dcache", 32);
  ctx.mark_port_read(r.id());
  ctx.mark_port_read(w.id());
  EXPECT_TRUE(ctx.port_read(r.id()));
  EXPECT_FALSE(ctx.port_read(ctx.reg("other", "iu.special", 32).id()));

  const std::size_t hr =
      ctx.watch_activation(r.id(), FaultModel::kStuckAt1, 0);
  const std::size_t hw =
      ctx.watch_activation(w.id(), FaultModel::kStuckAt1, 3);
  EXPECT_FALSE(ctx.activated(hr));  // boundary value 0 is off 1: ignored
  EXPECT_FALSE(ctx.activated(hw));
  r.n(0x2);
  clock(ctx);  // an off commit...
  w.w(0x10);   // ...and an off write-through
  r.poke(0x4);
  clock(ctx);
  EXPECT_FALSE(ctx.activated(hr));
  EXPECT_FALSE(ctx.activated(hw));
  EXPECT_EQ(ctx.watches_pending(), 2u);

  // Reads that see the bit at v do not activate; r() is not a port read.
  w.w(0x8);
  EXPECT_EQ(w.rp(), 0x8u);
  EXPECT_EQ(r.r(), 0x4u);
  EXPECT_EQ(ctx.value_at(r.id()), 0x4u);
  ctx.sweep_watches();
  EXPECT_FALSE(ctx.activated(hr));
  EXPECT_FALSE(ctx.activated(hw));

  // The first off port read does, even if the bit is back at v by the
  // sweep.
  EXPECT_EQ(ctx.read_port(r.id()), 0x4u);
  r.poke(0x5);
  ctx.sweep_watches();
  EXPECT_TRUE(ctx.activated(hr));
  EXPECT_FALSE(ctx.activated(hw));
  w.w(0x0);
  EXPECT_EQ(w.rp(), 0x0u);
  w.w(0x8);
  clock(ctx);
  EXPECT_TRUE(ctx.activated(hw));
  EXPECT_EQ(ctx.watches_pending(), 0u);
}

TEST(ActivationWatch, PortReadOpenLineUsesValueAtInstant) {
  SimContext ctx;
  Sig r = ctx.reg("entry", "iu.regfile", 32);
  ctx.mark_port_read(r.id());
  r.poke(0x1);
  const std::size_t hi =
      ctx.watch_activation(r.id(), FaultModel::kOpenLine, 0);
  const std::size_t lo =
      ctx.watch_activation(r.id(), FaultModel::kOpenLine, 1);
  r.n(0x2);  // both bits leave their captured values, unread
  clock(ctx);
  r.n(0x1);
  clock(ctx);
  EXPECT_EQ(r.rp(), 0x1u);
  ctx.sweep_watches();
  EXPECT_FALSE(ctx.activated(hi));
  EXPECT_FALSE(ctx.activated(lo));
  r.n(0x3);
  clock(ctx);
  EXPECT_EQ(r.rp(), 0x3u);  // bit 1 read off its captured 0
  ctx.sweep_watches();
  EXPECT_FALSE(ctx.activated(hi));
  EXPECT_TRUE(ctx.activated(lo));
}

// rp() returns r()'s value with and without an armed overlay, and whether
// or not a read watch is logging the reads.
TEST(ActivationWatch, PortReadEqualsReadUnderOverlay) {
  SimContext ctx;
  Sig r = ctx.reg_sparse("entry", "iu.regfile", 32);
  Sig w = ctx.wire("word", "cmem.dcache", 32);
  ctx.mark_port_read(r.id());
  ctx.mark_port_read(w.id());
  r.ns(0xF0);
  ctx.commit_all();
  w.w(0x0F);
  EXPECT_EQ(r.rp(), r.r());
  EXPECT_EQ(w.rp(), w.r());
  ctx.arm_fault(r.id(), FaultModel::kStuckAt1, 0);
  ctx.arm_fault(w.id(), FaultModel::kStuckAt0, 0);
  EXPECT_EQ(r.rp(), 0xF1u);
  EXPECT_EQ(r.rp(), r.r());
  EXPECT_EQ(w.rp(), 0x0Eu);
  EXPECT_EQ(w.rp(), w.r());
  EXPECT_EQ(ctx.read_port(w.id()), w.r());
  EXPECT_EQ(r.raw(), 0xF0u);  // state inspection still sees the raw value
  r.ns(0x00);
  ctx.commit_all();
  EXPECT_EQ(r.rp(), 0x01u);
  EXPECT_EQ(r.rp(), r.r());

  const std::size_t h = ctx.watch_activation(r.id(), FaultModel::kStuckAt1, 4);
  EXPECT_EQ(r.rp(), 0x01u);
  EXPECT_EQ(w.rp(), w.r());
  ctx.sweep_watches();
  EXPECT_TRUE(ctx.activated(h));
}

// The read-watch flags go once the node's last watch fires, and a later
// watch re-registers cleanly.
TEST(ActivationWatch, PortReadFlagClearedByLastWatch) {
  SimContext ctx;
  Sig a = ctx.reg("a", "iu.regfile", 32);
  Sig b = ctx.reg("b", "iu.regfile", 32);
  ctx.mark_port_read(a.id());
  ctx.mark_port_read(b.id());
  const auto read = [&](Sig s) {
    (void)s.rp();
    ctx.sweep_watches();
  };
  const std::size_t a0 = ctx.watch_activation(a.id(), FaultModel::kStuckAt1, 0);
  const std::size_t a5 = ctx.watch_activation(a.id(), FaultModel::kStuckAt0, 5);
  const std::size_t b2 = ctx.watch_activation(b.id(), FaultModel::kStuckAt0, 2);
  EXPECT_TRUE(ctx.watched(a.id()));
  EXPECT_TRUE(ctx.watched(b.id()));
  read(a);  // bit 0 reads 0: a0 fires, a5 stays
  EXPECT_TRUE(ctx.activated(a0));
  EXPECT_FALSE(ctx.activated(a5));
  EXPECT_TRUE(ctx.watched(a.id()));
  a.poke(0x20);
  read(a);
  EXPECT_TRUE(ctx.activated(a5));
  EXPECT_FALSE(ctx.watched(a.id()));
  EXPECT_TRUE(ctx.watched(b.id()));  // b moved into a's slot
  b.poke(0x4);
  read(b);
  EXPECT_TRUE(ctx.activated(b2));
  EXPECT_FALSE(ctx.watched(b.id()));
  EXPECT_EQ(ctx.watches_pending(), 0u);

  const std::size_t again =
      ctx.watch_activation(a.id(), FaultModel::kStuckAt1, 5);
  EXPECT_TRUE(ctx.watched(a.id()));
  read(a);
  EXPECT_FALSE(ctx.activated(again));
  a.poke(0);
  read(a);
  EXPECT_TRUE(ctx.activated(again));
  EXPECT_FALSE(ctx.watched(a.id()));
}

// More port reads between two sweeps than the log holds: the lost reads
// might have been off v, so every pending read watch activates.
TEST(ActivationWatch, PortReadLogOverflowActivatesReadWatches) {
  SimContext ctx;
  Sig a = ctx.reg("a", "iu.regfile", 32);
  Sig b = ctx.reg("b", "iu.regfile", 32);
  Sig r = ctx.reg("r", "iu.special", 32);
  ctx.mark_port_read(a.id());
  ctx.mark_port_read(b.id());
  const std::size_t ha = ctx.watch_activation(a.id(), FaultModel::kStuckAt0, 0);
  const std::size_t hb = ctx.watch_activation(b.id(), FaultModel::kStuckAt0, 1);
  const std::size_t hr = ctx.watch_activation(r.id(), FaultModel::kStuckAt0, 0);
  for (std::size_t i = 0; i < SimContext::kReadLogSize; ++i) (void)a.rp();
  ctx.sweep_watches();  // a full log is still exact
  EXPECT_EQ(ctx.watches_pending(), 3u);
  for (std::size_t i = 0; i <= SimContext::kReadLogSize; ++i) (void)a.rp();
  ctx.sweep_watches();
  EXPECT_TRUE(ctx.activated(ha));
  EXPECT_TRUE(ctx.activated(hb));
  EXPECT_FALSE(ctx.activated(hr));
  EXPECT_FALSE(ctx.watched(a.id()));
  EXPECT_FALSE(ctx.watched(b.id()));
  EXPECT_EQ(ctx.watches_pending(), 1u);
}

// Marking some nodes port-read leaves the watches of the others exactly as
// before: activated by the boundary value, write-throughs and commits, and
// not by reads.
TEST(ActivationWatch, OrdinaryNodesUnchangedBesidePortReadNodes) {
  SimContext ctx;
  Sig port = ctx.reg("entry", "iu.regfile", 32);
  Sig r = ctx.reg("r", "iu.special", 32);
  Sig w = ctx.wire("w", "iu.alu", 32);
  ctx.mark_port_read(port.id());
  const std::size_t hp =
      ctx.watch_activation(port.id(), FaultModel::kStuckAt0, 0);
  const std::size_t hb =
      ctx.watch_activation(r.id(), FaultModel::kStuckAt1, 0);
  const std::size_t hr =
      ctx.watch_activation(r.id(), FaultModel::kStuckAt0, 1);
  const std::size_t hw =
      ctx.watch_activation(w.id(), FaultModel::kStuckAt0, 2);
  EXPECT_TRUE(ctx.activated(hb));  // boundary value off v
  EXPECT_FALSE(ctx.activated(hr));
  EXPECT_EQ(r.rp(), 0u);
  EXPECT_EQ(w.rp(), 0u);
  port.n(0x1);
  r.n(0x2);
  clock(ctx);
  EXPECT_TRUE(ctx.activated(hr));   // commit
  EXPECT_FALSE(ctx.activated(hp));  // the port-read node's commit is unseen
  w.w(0x4);
  EXPECT_TRUE(ctx.activated(hw));   // write-through
  EXPECT_FALSE(ctx.watched(r.id()));
  EXPECT_FALSE(ctx.watched(w.id()));
  EXPECT_EQ(ctx.watches_pending(), 1u);
}

TEST(ActivationWatch, Validation) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 4);
  EXPECT_THROW(ctx.watch_activation(w.id(), FaultModel::kStuckAt0, 4),
               std::out_of_range);
  EXPECT_THROW(ctx.watch_activation(w.id(), FaultModel::kTransientBitFlip, 0),
               std::invalid_argument);
  EXPECT_THROW(ctx.watch_activation(w.id(), FaultModel::kBridge, 0),
               std::invalid_argument);
  EXPECT_THROW(ctx.watch_activation(7, FaultModel::kStuckAt0, 0),
               std::out_of_range);
}

TEST(Vcd, ProducesParsableFile) {
  SimContext ctx;
  Sig a = ctx.wire("alu_res", "iu.alu", 32);
  Sig b = ctx.reg("valid", "iu.de", 1);
  const std::string path = ::testing::TempDir() + "issrtl_test.vcd";
  {
    VcdWriter vcd(path, ctx);
    a.w(5);
    b.poke(1);
    vcd.sample(0);
    a.w(6);
    vcd.sample(1);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(all.find("alu_res"), std::string::npos);
  EXPECT_NE(all.find("#0"), std::string::npos);
  EXPECT_NE(all.find("#1"), std::string::npos);
  std::remove(path.c_str());
}

// ---- saboteur-style multi-bit and bridge faults (related work [2]) -------

TEST(Saboteur, MultiBitStuckAt) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  ctx.arm_fault_mask(0, FaultModel::kStuckAt1, 0x000000F0);
  w.w(0);
  EXPECT_EQ(w.r(), 0xF0u);
  ctx.clear_faults();
  ctx.arm_fault_mask(0, FaultModel::kStuckAt0, 0xFF000000);
  w.w(0xFFFFFFFF);
  EXPECT_EQ(w.r(), 0x00FFFFFFu);
}

TEST(Saboteur, MultiBitOpenLineFreezesPattern) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  w.w(0xA0);  // bits 5 and 7 high inside the mask
  ctx.arm_fault_mask(0, FaultModel::kOpenLine, 0xF0);
  w.w(0x50);
  EXPECT_EQ(w.r(), 0xA0u);  // masked bits frozen at 0xA0 pattern
  w.w(0x0F);
  EXPECT_EQ(w.r(), 0xAFu);
}

TEST(Saboteur, MultiBitTransientFlipsAllMaskedBits) {
  SimContext ctx;
  Sig r = ctx.reg("r", "iu.special", 32);
  r.poke(0x3);
  ctx.arm_fault_mask(0, FaultModel::kTransientBitFlip, 0xF);
  EXPECT_EQ(r.r(), 0xCu);
}

TEST(Saboteur, BridgeShortsToAggressor) {
  SimContext ctx;
  Sig victim = ctx.wire("v", "iu.alu", 32);
  Sig aggressor = ctx.wire("a", "iu.alu", 32);
  ctx.arm_bridge(0, 1, 0x0000FFFF);
  aggressor.w(0x1234ABCD);
  victim.w(0x55550000);
  EXPECT_EQ(victim.r(), 0x5555ABCDu);  // low half shorted to aggressor
  ctx.clear_faults();
  EXPECT_EQ(victim.r(), 0x55550000u);
}

TEST(Saboteur, BridgeTracksAggressorDynamically) {
  SimContext ctx;
  Sig victim = ctx.wire("v", "iu.alu", 8);
  Sig aggressor = ctx.wire("a", "iu.alu", 8);
  ctx.arm_bridge(0, 1, 0xFF);
  victim.w(0);
  aggressor.w(0x11);
  EXPECT_EQ(victim.r(), 0x11u);
  aggressor.w(0x22);
  EXPECT_EQ(victim.r(), 0x22u);
}

TEST(Saboteur, Validation) {
  SimContext ctx;
  ctx.wire("v", "iu.alu", 8);
  ctx.wire("a", "iu.alu", 8);
  EXPECT_THROW(ctx.arm_fault_mask(0, FaultModel::kStuckAt1, 0x100),
               std::out_of_range);                       // beyond width
  EXPECT_THROW(ctx.arm_fault_mask(0, FaultModel::kStuckAt1, 0),
               std::out_of_range);                       // empty mask
  EXPECT_THROW(ctx.arm_fault_mask(0, FaultModel::kBridge, 1),
               std::invalid_argument);                   // wrong API
  EXPECT_THROW(ctx.arm_bridge(0, 0, 1), std::invalid_argument);  // self
  ctx.arm_bridge(0, 1, 0xFF);
  EXPECT_THROW(ctx.arm_bridge(0, 1, 0x0F), std::logic_error);    // occupied
}

// Property: for every model, a faulted read differs from the raw value in at
// most the targeted bit.
class OverlayProperty : public ::testing::TestWithParam<int> {};

TEST_P(OverlayProperty, OnlyTargetBitAffected) {
  const auto model = static_cast<FaultModel>(GetParam());
  for (u8 bit = 0; bit < 32; ++bit) {
    SimContext ctx;
    Sig w = ctx.wire("w", "iu.alu", 32);
    w.w(0xA5A5A5A5);
    ctx.arm_fault(0, model, bit);
    for (const u32 v : {0u, 0xFFFFFFFFu, 0xA5A5A5A5u, 0x5A5A5A5Au}) {
      w.w(v);
      const u32 diff = w.r() ^ (model == FaultModel::kTransientBitFlip
                                    ? w.raw()
                                    : v);
      EXPECT_EQ(diff & ~(1u << bit), 0u)
          << fault_model_name(model) << " bit " << int(bit);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, OverlayProperty, ::testing::Range(0, 4));

}  // namespace
}  // namespace issrtl::rtl
