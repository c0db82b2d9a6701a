/**
 * @file
 * FunctionalPipeline end-to-end: whole generated chains executed at
 * host thread counts 1/2/8 must commit receipts and state
 * bit-identically to the sequential reference interpreter chain,
 * across dependency mixes. The audited cycle tier, chained over the
 * same blocks, must reach the same state, and its commit verdicts must
 * not depend on what else ran earlier in the process.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/functional.hpp"
#include "core/mtpu.hpp"
#include "evm/interpreter.hpp"
#include "workload/packs.hpp"
#include "workload/workload.hpp"

namespace mtpu {
namespace {

struct ChainResult
{
    std::vector<Bytes> receiptRlp;
    U256 digest;
};

/** Sequential ground truth on the reference interpreter. */
ChainResult
referenceChain(const std::vector<workload::BlockRun> &blocks,
               const evm::WorldState &genesis)
{
    ChainResult out;
    evm::WorldState state = genesis;
    evm::Interpreter interp;
    for (const workload::BlockRun &block : blocks)
        for (const workload::TxRecord &rec : block.txs)
            out.receiptRlp.push_back(
                interp.applyTransaction(state, block.header, rec.tx)
                    .toRlp());
    out.digest = state.digest();
    return out;
}

/** Final digest of the audited cycle-level pipeline, chained. */
U256
cycleChainDigest(const std::vector<workload::BlockRun> &blocks,
                 const evm::WorldState &genesis)
{
    core::MtpuProcessor proc{arch::MtpuConfig{}};
    core::RunOptions run;
    run.scheme = core::Scheme::SpatioTemporal;
    run.redundancyOpt = true;
    run.recovery.validateConflicts = true;
    evm::WorldState state = genesis;
    for (const workload::BlockRun &block : blocks) {
        core::AuditedRun res = proc.executeAudited(block, state, run);
        EXPECT_TRUE(res.ok()) << res.audit.message;
        if (!res.stats.finalState)
            return U256();
        state = *res.stats.finalState;
    }
    return state.digest();
}

ChainResult
functionalChain(const std::vector<workload::BlockRun> &blocks,
                const evm::WorldState &genesis, int threads)
{
    ChainResult out;
    core::FunctionalPipeline pipe(genesis, threads);
    for (const workload::BlockRun &block : blocks) {
        core::FunctionalBlockResult res = pipe.executeBlock(block);
        EXPECT_EQ(res.txCount, block.txs.size());
        EXPECT_EQ(res.replayed + res.reexecuted, res.txCount);
        for (const evm::Receipt &r : res.receipts)
            out.receiptRlp.push_back(r.toRlp());
    }
    out.digest = pipe.state().digest();
    return out;
}

std::vector<workload::BlockRun>
makeChain(workload::Generator &gen, int blocks, double dep_ratio)
{
    workload::BlockParams params;
    params.txCount = 96;
    params.depRatio = dep_ratio;
    params.erc20Share = -1.0;
    std::vector<workload::BlockRun> out;
    for (int b = 0; b < blocks; ++b)
        out.push_back(gen.generateBlock(params));
    return out;
}

TEST(FunctionalPipelineTest, ThreadCountsCommitBitIdentically)
{
    workload::Generator gen(7, 128, 1);
    auto blocks = makeChain(gen, 3, 0.3);
    const evm::WorldState genesis = gen.genesis();

    ChainResult ref = referenceChain(blocks, genesis);
    EXPECT_EQ(cycleChainDigest(blocks, genesis), ref.digest)
        << "audited cycle tier diverged";
    for (int threads : {1, 2, 8}) {
        ChainResult got = functionalChain(blocks, genesis, threads);
        EXPECT_EQ(got.receiptRlp, ref.receiptRlp)
            << "receipts diverged at threads=" << threads;
        EXPECT_EQ(got.digest, ref.digest)
            << "state diverged at threads=" << threads;
    }
}

TEST(FunctionalPipelineTest, DependencyMixesStayBitIdentical)
{
    for (double dep : {0.0, 0.35, 0.8}) {
        workload::Generator gen(23, 96, 1);
        auto blocks = makeChain(gen, 2, dep);
        const evm::WorldState genesis = gen.genesis();
        ChainResult ref = referenceChain(blocks, genesis);
        ChainResult got = functionalChain(blocks, genesis, 8);
        EXPECT_EQ(got.receiptRlp, ref.receiptRlp) << "dep=" << dep;
        EXPECT_EQ(got.digest, ref.digest) << "dep=" << dep;
    }
}

TEST(FunctionalPipelineTest, HighContentionReexecutesAndMatches)
{
    // Single hot contract, fully dependent transactions: most
    // speculations must fail validation and re-execute, and the
    // result must still be bit-identical.
    workload::Generator gen(31, 64, 1);
    workload::BlockParams params;
    params.txCount = 64;
    params.depRatio = 1.0;
    params.erc20Share = 1.0;
    std::vector<workload::BlockRun> blocks;
    blocks.push_back(gen.generateBlock(params));
    const evm::WorldState genesis = gen.genesis();

    ChainResult ref = referenceChain(blocks, genesis);
    ChainResult got = functionalChain(blocks, genesis, 8);
    EXPECT_EQ(got.receiptRlp, ref.receiptRlp);
    EXPECT_EQ(got.digest, ref.digest);
}

/**
 * The processor's commit step speculates and validates each block
 * afresh, so its verdicts are a function of the block and the
 * pre-state alone. A commutative FunctionalPipeline run on the same
 * block in between (its speculations carry commutative deltas that an
 * exact-validation committer must never replay) leaves them unchanged.
 */
TEST(FunctionalPipelineTest, CommitVerdictsIndependentOfEarlierRuns)
{
    // A serial generator: its consensus stage (commutative detection
    // always armed) speculates nothing, so only the runs below do.
    workload::Generator gen(5, 256, 1);
    gen.setCommutativeDag(true);
    workload::PackParams params;
    params.txCount = 64;
    const workload::BlockRun block =
        workload::buildPackBlock(gen, workload::Pack::HotToken, params);
    const evm::WorldState genesis = gen.genesis();

    arch::MtpuConfig cfg;
    cfg.threads = 2;
    cfg.commutative = false;
    core::MtpuProcessor proc(cfg);
    core::RunOptions run;
    run.scheme = core::Scheme::SpatioTemporal;
    run.recovery.genesis = &genesis;

    const sched::EngineStats first = proc.execute(block, run);
    core::FunctionalPipeline pipe(genesis, 2);
    pipe.setCommutative(true);
    pipe.executeBlock(block);
    const sched::EngineStats second = proc.execute(block, run);

    ASSERT_TRUE(first.finalState && second.finalState);
    EXPECT_EQ(first.finalState->digest(), second.finalState->digest());
    EXPECT_EQ(first.specReplayed, second.specReplayed);
    EXPECT_EQ(first.reexecValidationMiss, second.reexecValidationMiss);
    EXPECT_EQ(first.reexecBoundsMiss, second.reexecBoundsMiss);
    // Exact validation on the hot token: some speculations miss.
    EXPECT_GT(first.reexecValidationMiss, 0u);
    EXPECT_EQ(first.specReplayed + first.reexecValidationMiss
                  + first.reexecBoundsMiss,
              block.txs.size());
}

} // namespace
} // namespace mtpu
