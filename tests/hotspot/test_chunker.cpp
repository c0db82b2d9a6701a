/**
 * @file
 * Static chunker tests: CFG construction, reachability with constant
 * and dynamic jumps, dispatcher discovery, chunk classification, and
 * agreement between the static loaded-bytes estimate and the dynamic
 * Contract Table coverage.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "contracts/contracts.hpp"
#include "hotspot/chunker.hpp"
#include "hotspot/hotspot.hpp"
#include "workload/workload.hpp"

namespace mtpu::hotspot {
namespace {

using easm::Assembler;
using Op = evm::Op;

TEST(Cfg, SplitsAtJumpdestAndTerminators)
{
    Assembler a;
    a.push(U256(1)).op(Op::POP);       // block 0
    a.op(Op::STOP);                    // terminator
    a.dest("next");                    // block 1 (leader: JUMPDEST)
    a.push(U256(2)).op(Op::POP);
    a.op(Op::RETURN);                  // needs 2 stack... CFG only
    Cfg cfg = Cfg::build(a.assemble());
    ASSERT_GE(cfg.blocks().size(), 2u);
    EXPECT_TRUE(cfg.blocks()[0].terminates);
    EXPECT_EQ(cfg.blocks()[1].start, 4u); // after PUSH1 1 POP STOP
}

TEST(Cfg, ResolvesPushFedJumps)
{
    Assembler a;
    a.pushLabel("target").op(Op::JUMP); // block 0 -> target
    a.push(U256(9)).op(Op::POP).op(Op::STOP); // dead block
    a.dest("target");
    a.op(Op::STOP);
    Cfg cfg = Cfg::build(a.assemble());
    const BasicBlock &b0 = cfg.blocks()[0];
    ASSERT_EQ(b0.jumpTargets.size(), 1u);
    EXPECT_FALSE(b0.dynamicJump);
    EXPECT_FALSE(b0.fallsThrough);

    auto reach = cfg.reachableBlocks(0);
    EXPECT_TRUE(reach.count(b0.jumpTargets[0]));
    // Dead block after the JUMP is not reachable.
    EXPECT_FALSE(reach.count(4));
}

TEST(Cfg, JumpiFallsThroughAndJumps)
{
    Assembler a;
    a.push(U256(1));
    a.pushLabel("yes").op(Op::JUMPI); // block 0
    a.op(Op::STOP);                   // fall-through block
    a.dest("yes");
    a.op(Op::STOP);
    Cfg cfg = Cfg::build(a.assemble());
    const BasicBlock &b0 = cfg.blocks()[0];
    EXPECT_TRUE(b0.fallsThrough);
    ASSERT_EQ(b0.jumpTargets.size(), 1u);
    auto reach = cfg.reachableBlocks(0);
    EXPECT_GE(reach.size(), 3u); // entry + both successors
}

TEST(Cfg, DynamicJumpTriggersClosureHeuristic)
{
    // Internal-call shape: push return addr, jump to sub; sub returns
    // via SWAP1 JUMP (dynamic). The return site must still be found.
    Assembler a;
    a.pushLabel("ret");          // return address on the stack
    a.pushLabel("sub").op(Op::JUMP);
    a.dest("ret");
    a.op(Op::STOP);
    a.dest("sub");
    a.push(U256(1)).op(Op::POP);
    a.op(Op::SWAP1);
    a.op(Op::JUMP);              // dynamic
    Cfg cfg = Cfg::build(a.assemble());
    auto reach = cfg.reachableBlocks(0);
    // All three regions reachable (entry, sub, ret).
    const BasicBlock *ret_block = nullptr;
    for (const auto &b : cfg.blocks()) {
        if (b.terminates && b.start != 0)
            ret_block = &b;
    }
    ASSERT_NE(ret_block, nullptr);
    EXPECT_TRUE(reach.count(ret_block->start));
}

TEST(Cfg, BlockAtFindsContainingBlock)
{
    Assembler a;
    a.push(U256(1)).op(Op::POP).op(Op::STOP);
    Cfg cfg = Cfg::build(a.assemble());
    EXPECT_NE(cfg.blockAt(0), nullptr);
    EXPECT_NE(cfg.blockAt(2), nullptr);
    EXPECT_EQ(cfg.blockAt(100), nullptr);
}

TEST(Chunker, DiscoversDispatcherSelectors)
{
    const contracts::ContractSet set;
    const auto &usdt = set.byName("TetherUSD");
    auto fns = chunkContract(usdt.bytecode);
    ASSERT_GE(fns.size(), 6u);
    std::set<std::uint32_t> selectors;
    for (const auto &fn : fns)
        selectors.insert(fn.selector);
    EXPECT_TRUE(selectors.count(contracts::sel::kTransfer));
    EXPECT_TRUE(selectors.count(contracts::sel::kBalanceOf));
    EXPECT_TRUE(selectors.count(contracts::sel::kTotalSupply));
}

TEST(Chunker, ChunksCoverAllFourKinds)
{
    contracts::ContractSet set;
    auto fns = chunkContract(set.byName("TetherUSD").bytecode);
    const FunctionChunks *transfer = nullptr;
    for (const auto &fn : fns) {
        if (fn.selector == contracts::sel::kTransfer)
            transfer = &fn;
    }
    ASSERT_NE(transfer, nullptr);
    bool saw[4] = {false, false, false, false};
    for (const Chunk &c : transfer->chunks)
        saw[int(c.kind)] = true;
    EXPECT_TRUE(saw[int(ChunkKind::Compare)]);
    EXPECT_TRUE(saw[int(ChunkKind::Check)]);
    EXPECT_TRUE(saw[int(ChunkKind::Execute)]);
    EXPECT_TRUE(saw[int(ChunkKind::End)]);
}

TEST(Chunker, StaticLoadIsSmallFractionOfPaddedCode)
{
    contracts::ContractSet set;
    const auto &usdt = set.byName("TetherUSD");
    auto fns = chunkContract(usdt.bytecode);
    for (const auto &fn : fns) {
        EXPECT_GT(fn.loadedBytes, 0u);
        // Padding is never reachable, so the static estimate stays a
        // small fraction of the 5759-byte contract.
        EXPECT_LT(fn.loadedBytes, usdt.bytecode.size() / 2) << std::hex
            << fn.selector;
    }
}

TEST(Chunker, StaticEstimateBoundsDynamicCoverage)
{
    // The static reachable set must cover everything a real execution
    // touches (it may be larger: both branch directions).
    workload::Generator gen(777, 128);
    auto block = gen.contractBatch("TetherUSD", 40);
    ContractTable table;
    for (const auto &rec : block.txs)
        table.collect(rec.trace);

    contracts::ContractSet set;
    const auto &usdt = set.byName("TetherUSD");
    auto fns = chunkContract(usdt.bytecode);

    for (const auto &fn : fns) {
        const PathInfo *dyn =
            table.find(usdt.address, fn.selector);
        if (!dyn)
            continue; // function not exercised dynamically
        EXPECT_GE(fn.loadedBytes * 2, dyn->loadedBytes())
            << "selector " << std::hex << fn.selector;
        // Same order of magnitude both ways.
        EXPECT_LE(fn.loadedBytes, dyn->loadedBytes() * 16);
    }
}

TEST(Chunker, NoDispatcherMeansNoFunctions)
{
    Assembler a;
    a.push(U256(1)).op(Op::POP).op(Op::STOP);
    EXPECT_TRUE(chunkContract(a.assemble()).empty());
}

TEST(Chunker, KindNames)
{
    EXPECT_STREQ(chunkKindName(ChunkKind::Compare), "Compare");
    EXPECT_STREQ(chunkKindName(ChunkKind::End), "End");
}

} // namespace
} // namespace mtpu::hotspot
