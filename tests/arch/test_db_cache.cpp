/**
 * @file
 * DB cache / fill unit tests: line packing rules, folding, forwarding,
 * termination, LRU replacement, and single-instruction discard.
 */

#include <gtest/gtest.h>

#include "arch/db_cache.hpp"

namespace mtpu::arch {
namespace {

using evm::Op;
using evm::TraceEvent;

const evm::Address kCode = U256(0xc0de);

TraceEvent
ev(std::uint32_t pc, Op op, std::uint32_t gas = 3)
{
    TraceEvent e;
    e.pc = pc;
    e.opcode = std::uint8_t(op);
    const auto &info = evm::opInfo(e.opcode);
    e.pops = info.pops;
    e.pushes = info.pushes;
    e.gasCost = gas;
    return e;
}

class DbCacheTest : public ::testing::Test
{
  protected:
    DbCacheTest() : cache(makeConfig()) {}

    static MtpuConfig
    makeConfig()
    {
        MtpuConfig cfg;
        cfg.dbCacheEntries = 16;
        cfg.stackSlotsPerLine = 4;
        return cfg;
    }

    void
    feed(std::initializer_list<std::pair<std::uint32_t, Op>> insns)
    {
        for (auto [pc, op] : insns)
            cache.observe({kCode, pc}, ev(pc, op), 0);
    }

    DbCache cache;
};

TEST_F(DbCacheTest, TerminatorClassification)
{
    EXPECT_TRUE(terminatesLine(std::uint8_t(Op::JUMP)));
    EXPECT_TRUE(terminatesLine(std::uint8_t(Op::JUMPI)));
    EXPECT_FALSE(terminatesLine(std::uint8_t(Op::JUMPDEST)));
    EXPECT_TRUE(terminatesLine(std::uint8_t(Op::STOP)));
    EXPECT_TRUE(terminatesLine(std::uint8_t(Op::RETURN)));
    EXPECT_TRUE(terminatesLine(std::uint8_t(Op::CALL)));
    EXPECT_FALSE(terminatesLine(std::uint8_t(Op::ADD)));
    EXPECT_FALSE(terminatesLine(std::uint8_t(Op::SLOAD)));
}

TEST_F(DbCacheTest, PaperDispatchSequenceFitsOneLine)
{
    // The §3.3.4 example: PUSH4 id; EQ; PUSH2 addr; JUMPI -> 1 line.
    feed({{0, Op::PUSH4}, {5, Op::EQ}, {6, Op::PUSH2}, {9, Op::JUMPI}});
    const DbLine *line = cache.lookup({kCode, 0});
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->count(), 4u);
    EXPECT_TRUE(line->endsWithBranch);
    EXPECT_GE(line->foldedPairs + (cache.stats().forwardsUsed ? 1 : 0), 1u);
}

TEST_F(DbCacheTest, LineGasIsSummed)
{
    cache.observe({kCode, 0}, ev(0, Op::PUSH1, 3), 0);
    cache.observe({kCode, 2}, ev(2, Op::PUSH1, 3), 0);
    cache.observe({kCode, 4}, ev(4, Op::ADD, 3), 0);
    cache.observe({kCode, 5}, ev(5, Op::JUMP, 8), 0);
    const DbLine *line = cache.lookup({kCode, 0});
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->gasSum, 3u + 3 + 3 + 8);
}

TEST_F(DbCacheTest, UnitSlotConflictClosesLine)
{
    // Two SLOADs cannot share the single Storage slot.
    feed({{0, Op::PUSH1}, {2, Op::SLOAD}, {3, Op::PUSH1}, {5, Op::SLOAD},
          {6, Op::JUMP}});
    const DbLine *first = cache.lookup({kCode, 0});
    ASSERT_NE(first, nullptr);
    // First line must have ended before the second SLOAD.
    EXPECT_LE(first->count(), 3u);
    // The second SLOAD and the JUMP (which RAW-depends on it without a
    // forwardable producer) both become discarded singles.
    EXPECT_EQ(cache.lookup({kCode, 5}), nullptr);
    EXPECT_GE(cache.stats().singleDiscarded, 2u);
}

TEST_F(DbCacheTest, StackSlotBudgetClosesLine)
{
    // 6 consecutive PUSHes with a 4-slot stack budget split lines.
    feed({{0, Op::PUSH1}, {2, Op::PUSH1}, {4, Op::PUSH1}, {6, Op::PUSH1},
          {8, Op::PUSH1}, {10, Op::PUSH1}, {12, Op::JUMP}});
    const DbLine *first = cache.lookup({kCode, 0});
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->count(), 4u);
    const DbLine *second = cache.lookup({kCode, 8});
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->count(), 3u);
}

TEST_F(DbCacheTest, ArithmeticUnitSlotSharedOnce)
{
    // ADD occupies the Arithmetic slot; the MUL (which would also
    // forward from ADD) cannot share it, so the line closes before it.
    feed({{0, Op::PUSH1}, {2, Op::PUSH1}, {4, Op::ADD},
          {5, Op::PUSH1}, {7, Op::MUL},
          {8, Op::PUSH1}, {10, Op::ISZERO},
          {11, Op::JUMP}});
    const DbLine *first = cache.lookup({kCode, 0});
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->count(), 4u); // PUSH PUSH ADD PUSH
    const DbLine *second = cache.lookup({kCode, 7});
    ASSERT_NE(second, nullptr); // MUL PUSH ISZERO JUMP
    EXPECT_EQ(second->count(), 4u);
}

TEST_F(DbCacheTest, ForwardingDisabledClosesOnFirstRaw)
{
    MtpuConfig cfg = makeConfig();
    cfg.enableForwarding = false;
    cfg.enableFolding = false;
    DbCache strict(cfg);
    strict.observe({kCode, 0}, ev(0, Op::PUSH1), 0);
    strict.observe({kCode, 2}, ev(2, Op::PUSH1), 0);
    strict.observe({kCode, 4}, ev(4, Op::ADD), 0);
    strict.observe({kCode, 5}, ev(5, Op::ISZERO), 0); // RAW on ADD
    strict.observe({kCode, 6}, ev(6, Op::JUMP), 0);
    const DbLine *first = strict.lookup({kCode, 0});
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->count(), 3u); // PUSH PUSH ADD
    // ISZERO and JUMP both chain RAWs without forwarding, so they end
    // up as discarded single-instruction lines.
    EXPECT_EQ(strict.lookup({kCode, 5}), nullptr);
    EXPECT_GE(strict.stats().singleDiscarded, 2u);
}

TEST_F(DbCacheTest, StackProducersDoNotBlock)
{
    // PUSH-fed ADD has no hazard: the R/W renaming routes immediates.
    MtpuConfig cfg = makeConfig();
    cfg.enableForwarding = false;
    cfg.enableFolding = false;
    DbCache c(cfg);
    c.observe({kCode, 0}, ev(0, Op::PUSH1), 0);
    c.observe({kCode, 2}, ev(2, Op::PUSH1), 0);
    c.observe({kCode, 4}, ev(4, Op::ADD), 0);
    c.observe({kCode, 5}, ev(5, Op::POP), 0);
    c.observe({kCode, 6}, ev(6, Op::STOP), 0);
    const DbLine *line = c.lookup({kCode, 0});
    ASSERT_NE(line, nullptr);
    // ADD consumes two PUSH-fed operands with no hazard, and the
    // Stack-unit POP of its result does not block either.
    EXPECT_EQ(line->count(), 5u);
}

TEST_F(DbCacheTest, SingleInstructionLinesAreDiscarded)
{
    cache.observe({kCode, 0}, ev(0, Op::JUMP), 0); // line of one
    EXPECT_EQ(cache.lookup({kCode, 0}), nullptr);
    EXPECT_EQ(cache.stats().singleDiscarded, 1u);
    ASSERT_EQ(cache.singles().size(), 1u);
    EXPECT_EQ(cache.singles()[0].pc, 0u);
}

TEST_F(DbCacheTest, SingleSideSpaceIsBounded)
{
    // Nobody harvests the side space in a long run: it must stop
    // growing at its capacity while the discard count keeps counting.
    const std::size_t n = DbCache::kSideSpaceEntries + 10;
    for (std::uint32_t pc = 0; pc < n; ++pc)
        cache.observe({kCode, pc}, ev(pc, Op::JUMP), 0);
    EXPECT_EQ(cache.stats().singleDiscarded, n);
    ASSERT_EQ(cache.singles().size(), DbCache::kSideSpaceEntries);
    EXPECT_EQ(cache.singles().back().pc,
              std::uint32_t(DbCache::kSideSpaceEntries - 1));
}

TEST_F(DbCacheTest, LookupMissesOnUnknownAddress)
{
    feed({{0, Op::PUSH1}, {2, Op::PUSH1}, {4, Op::JUMP}});
    EXPECT_EQ(cache.lookup({kCode, 2}), nullptr); // mid-line address
    EXPECT_EQ(cache.lookup({U256(0xbad), 0}), nullptr);
}

TEST_F(DbCacheTest, LruEviction)
{
    MtpuConfig cfg = makeConfig();
    cfg.dbCacheEntries = 2;
    DbCache small(cfg);
    auto fill_line = [&small](std::uint32_t base) {
        small.observe({kCode, base}, ev(base, Op::PUSH1), 0);
        small.observe({kCode, base + 2}, ev(base + 2, Op::PUSH1), 0);
        small.observe({kCode, base + 4}, ev(base + 4, Op::JUMP), 0);
    };
    fill_line(0);
    fill_line(100);
    ASSERT_NE(small.lookup({kCode, 0}), nullptr); // refresh 0
    fill_line(200);                               // evicts 100
    EXPECT_NE(small.lookup({kCode, 0}), nullptr);
    EXPECT_EQ(small.lookup({kCode, 100}), nullptr);
    EXPECT_NE(small.lookup({kCode, 200}), nullptr);
    EXPECT_GE(small.stats().linesEvicted, 1u);
}

TEST_F(DbCacheTest, ContractChangeFlushesFill)
{
    cache.observe({kCode, 0}, ev(0, Op::PUSH1), 0);
    cache.observe({kCode, 2}, ev(2, Op::PUSH1), 0);
    // Switch to a different contract mid-fill (nested call).
    evm::Address other = U256(0xface);
    cache.observe({other, 0}, ev(0, Op::PUSH1), 0);
    cache.observe({other, 2}, ev(2, Op::JUMP), 0);
    EXPECT_NE(cache.lookup({kCode, 0}), nullptr);
    EXPECT_NE(cache.lookup({other, 0}), nullptr);
}

TEST_F(DbCacheTest, ClearDropsEverything)
{
    feed({{0, Op::PUSH1}, {2, Op::PUSH1}, {4, Op::JUMP}});
    ASSERT_NE(cache.lookup({kCode, 0}), nullptr);
    cache.clear();
    EXPECT_EQ(cache.lookup({kCode, 0}), nullptr);
    EXPECT_EQ(cache.size(), 0u);
}

TEST_F(DbCacheTest, HitStatisticsAccumulate)
{
    feed({{0, Op::PUSH1}, {2, Op::PUSH1}, {4, Op::JUMP}});
    cache.lookup({kCode, 0});
    cache.lookup({kCode, 0});
    EXPECT_EQ(cache.stats().lineHits, 2u);
    EXPECT_EQ(cache.stats().instrHits, 6u);
    EXPECT_EQ(cache.stats().linesInstalled, 1u);
}

TEST_F(DbCacheTest, ReinstallingSameTagIsIdempotent)
{
    feed({{0, Op::PUSH1}, {2, Op::PUSH1}, {4, Op::JUMP}});
    feed({{0, Op::PUSH1}, {2, Op::PUSH1}, {4, Op::JUMP}});
    EXPECT_EQ(cache.stats().linesInstalled, 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST_F(DbCacheTest, FoldablePatternTable)
{
    EXPECT_TRUE(isFoldablePattern(std::uint8_t(Op::PUSH4),
                                  std::uint8_t(Op::EQ)));
    EXPECT_TRUE(isFoldablePattern(std::uint8_t(Op::PUSH2),
                                  std::uint8_t(Op::JUMPI)));
    EXPECT_TRUE(isFoldablePattern(std::uint8_t(Op::PUSH1),
                                  std::uint8_t(Op::MSTORE)));
    EXPECT_FALSE(isFoldablePattern(std::uint8_t(Op::DUP1),
                                   std::uint8_t(Op::EQ)));
    EXPECT_FALSE(isFoldablePattern(std::uint8_t(Op::PUSH1),
                                   std::uint8_t(Op::SSTORE)));
}

TEST_F(DbCacheTest, ReconfigurableUnits)
{
    EXPECT_TRUE(isReconfigurable(evm::FuncUnit::Stack));
    EXPECT_TRUE(isReconfigurable(evm::FuncUnit::Logic));
    EXPECT_TRUE(isReconfigurable(evm::FuncUnit::Arithmetic));
    EXPECT_FALSE(isReconfigurable(evm::FuncUnit::Storage));
    EXPECT_FALSE(isReconfigurable(evm::FuncUnit::Sha));
    EXPECT_FALSE(isReconfigurable(evm::FuncUnit::ContextSwitch));
}

} // namespace
} // namespace mtpu::arch
