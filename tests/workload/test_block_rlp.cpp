/**
 * @file
 * Block network-format tests: the serialized block carries the
 * dependency DAG and redundancy values (paper footnote 3), so nodes
 * can schedule without re-running the conflict analysis.
 */

#include <gtest/gtest.h>

#include "workload/workload.hpp"

namespace mtpu::workload {
namespace {

class BlockRlpTest : public ::testing::Test
{
  protected:
    BlockRlpTest() : gen(808, 256) {}
    Generator gen;
};

TEST_F(BlockRlpTest, RoundTripPreservesTransactions)
{
    BlockParams params;
    params.txCount = 40;
    params.depRatio = 0.5;
    auto block = gen.generateBlock(params);

    BlockRun back = BlockRun::fromRlp(block.toRlp());
    ASSERT_EQ(back.txs.size(), block.txs.size());
    for (std::size_t i = 0; i < block.txs.size(); ++i) {
        EXPECT_EQ(back.txs[i].tx.from, block.txs[i].tx.from);
        EXPECT_EQ(back.txs[i].tx.to, block.txs[i].tx.to);
        EXPECT_EQ(back.txs[i].tx.data, block.txs[i].tx.data);
        EXPECT_EQ(back.txs[i].tx.callValue, block.txs[i].tx.callValue);
    }
}

TEST_F(BlockRlpTest, RoundTripPreservesDagAndValues)
{
    BlockParams params;
    params.txCount = 50;
    params.depRatio = 0.7;
    auto block = gen.generateBlock(params);
    ASSERT_GT(block.measuredDepRatio(), 0.3);

    BlockRun back = BlockRun::fromRlp(block.toRlp());
    for (std::size_t i = 0; i < block.txs.size(); ++i) {
        EXPECT_EQ(back.txs[i].deps, block.txs[i].deps) << i;
        EXPECT_EQ(back.txs[i].redundancy, block.txs[i].redundancy) << i;
    }
    EXPECT_DOUBLE_EQ(back.measuredDepRatio(), block.measuredDepRatio());
    EXPECT_EQ(back.criticalPathLength(), block.criticalPathLength());
}

TEST_F(BlockRlpTest, ConsensusStageOnDecodedBlockKeepsItsDag)
{
    // Recovery decodes a block (deps included) and reruns the consensus
    // stage on it: the stage must replace the shipped deps with the
    // same graph, not append a second copy of every edge.
    BlockParams params;
    params.txCount = 64;
    params.depRatio = 0.5;
    auto block = gen.generateBlock(params);
    ASSERT_GT(block.measuredDepRatio(), 0.2);

    BlockRun back = BlockRun::fromRlp(block.toRlp());
    runConsensusStage(back, gen.genesis());
    for (std::size_t i = 0; i < block.txs.size(); ++i)
        EXPECT_EQ(back.txs[i].deps, block.txs[i].deps) << i;
}

TEST_F(BlockRlpTest, RoundTripPreservesHeader)
{
    BlockParams params;
    params.txCount = 5;
    auto block = gen.generateBlock(params);
    BlockRun back = BlockRun::fromRlp(block.toRlp());
    EXPECT_EQ(back.header.height, block.header.height);
    EXPECT_EQ(back.header.timestamp, block.header.timestamp);
    EXPECT_EQ(back.header.coinbase, block.header.coinbase);
    EXPECT_EQ(back.header.gasLimit, block.header.gasLimit);
}

TEST_F(BlockRlpTest, RejectsMalformedInput)
{
    EXPECT_THROW(BlockRun::fromRlp({0x80}), std::invalid_argument);
    EXPECT_THROW(BlockRun::fromRlp({0xc1, 0xc0}), std::invalid_argument);
}

TEST_F(BlockRlpTest, RejectsForwardDependencies)
{
    // Hand-craft a block whose DAG points forward: must be rejected
    // (a forward edge cannot arise from conflict analysis and would
    // deadlock schedulers).
    BlockParams params;
    params.txCount = 3;
    auto block = gen.generateBlock(params);
    block.txs[0].deps = {2};
    Bytes bad = block.toRlp();
    EXPECT_THROW(BlockRun::fromRlp(bad), std::invalid_argument);
}

TEST_F(BlockRlpTest, EmptyBlockRoundTrips)
{
    BlockRun empty;
    empty.header.height = 9;
    BlockRun back = BlockRun::fromRlp(empty.toRlp());
    EXPECT_EQ(back.txs.size(), 0u);
    EXPECT_EQ(back.header.height, 9u);
}

} // namespace
} // namespace mtpu::workload
