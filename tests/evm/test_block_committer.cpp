/**
 * @file
 * Differential test of the one block commit path, evm::BlockCommitter
 * (DESIGN.md §9): for every block shape (the TOP8 mix and every
 * workload pack), pool (none, 2, 8), re-execution tier (reference,
 * fast), commutative detection (off, on), abort plan (none, seeded)
 * and commit order (program order, an engine completion order),
 * committing through the committer must
 * leave the same state digest and receipts as plain sequential
 * reference execution in that order. Which path each commit took
 * (replay or re-execution) depends on the pool; nothing else may.
 *
 * In trace mode the traces, unfiltered access sets and commutative
 * tags must match with no pool and with a pool of 2, and so must the
 * dependency DAG the consensus stage derives from them.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "evm/interpreter.hpp"
#include "evm/speculative.hpp"
#include "fault/injector.hpp"
#include "sched/engine.hpp"
#include "support/thread_pool.hpp"
#include "workload/packs.hpp"
#include "workload/workload.hpp"

namespace mtpu {
namespace {

using workload::BlockRun;

/** Shared contract universe: deploying is the expensive part. */
workload::Generator &
sharedGen()
{
    static workload::Generator gen(77, 128, /*threads=*/1);
    return gen;
}

struct NamedBlock
{
    std::string name;
    BlockRun block;
};

/** The TOP8 mix and one block of every pack. */
const std::vector<NamedBlock> &
blocks()
{
    static const std::vector<NamedBlock> all = [] {
        workload::Generator &gen = sharedGen();
        std::vector<NamedBlock> out;
        workload::BlockParams p;
        p.txCount = 40;
        p.depRatio = 0.4;
        p.erc20Share = -1.0; // natural TOP8 mix
        out.push_back({"top8", gen.generateBlock(p)});
        workload::PackParams pp;
        pp.txCount = 24;
        for (workload::Pack pack : workload::allPacks()) {
            out.push_back({workload::packName(pack),
                           workload::buildPackBlock(gen, pack, pp)});
        }
        return out;
    }();
    return all;
}

std::vector<int>
programOrder(const BlockRun &block)
{
    std::vector<int> order(block.txs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = int(i);
    return order;
}

/** A scheduled (non-program) order: the engine's completion order. */
std::vector<int>
engineOrder(const BlockRun &block)
{
    arch::MtpuConfig cfg;
    cfg.numPus = 4;
    cfg.threads = 1;
    sched::SpatioTemporalEngine engine(cfg);
    sched::RecoveryOptions rec;
    rec.validateConflicts = true;
    return engine.run(block, {}, rec).completionOrder;
}

struct Outcome
{
    U256 digest;
    std::vector<evm::Receipt> receipts; ///< by transaction index
    std::size_t replayed = 0;           ///< commits served by a replay
};

/** Plain sequential reference execution of @p order. */
Outcome
reference(const BlockRun &block, const std::vector<int> &order,
          const fault::FaultPlan *plan)
{
    evm::WorldState state = sharedGen().genesis();
    evm::Interpreter interp;
    Outcome out;
    out.receipts.resize(block.txs.size());
    for (int idx : order) {
        if (plan) {
            if (const fault::AbortDirective *dir = plan->abortFor(idx))
                interp.armAbort(*dir);
        }
        out.receipts[std::size_t(idx)] = interp.applyTransaction(
            state, block.header, block.txs[std::size_t(idx)].tx);
    }
    out.digest = state.digest();
    return out;
}

Outcome
viaCommitter(const BlockRun &block, const std::vector<int> &order,
             const fault::FaultPlan *plan, bool fast, bool commutative,
             support::ThreadPool *pool)
{
    evm::WorldState state = sharedGen().genesis();
    evm::SpecOptions opts;
    opts.fastTier = fast;
    opts.commutative = commutative;
    evm::BlockCommitter committer(state, block.header,
                                  block.transactions(), opts, pool,
                                  plan ? &plan->aborts : nullptr);
    Outcome out;
    out.receipts.resize(block.txs.size());
    for (int idx : order) {
        evm::CommittedTx c = committer.commit(std::size_t(idx));
        out.replayed += c.replayed() ? 1 : 0;
        out.receipts[std::size_t(idx)] = std::move(c.receipt);
    }
    out.digest = state.digest();
    return out;
}

TEST(BlockCommitter, MatchesSequentialReferenceExecution)
{
    support::ThreadPool pool2(2);
    support::ThreadPool pool8(8);
    const std::vector<std::pair<const char *, support::ThreadPool *>>
        pools = {{"none", nullptr}, {"2", &pool2}, {"8", &pool8}};
    std::size_t pooled_replays = 0;

    for (const NamedBlock &nb : blocks()) {
        const BlockRun &block = nb.block;
        fault::InjectionParams ip;
        ip.abortRate = 0.3;
        const fault::FaultPlan seeded =
            fault::FaultInjector(5).plan(block, ip);
        const std::vector<std::pair<const char *, std::vector<int>>>
            orders = {{"program", programOrder(block)},
                      {"engine", engineOrder(block)}};
        for (const auto &[order_name, order] : orders) {
            ASSERT_EQ(order.size(), block.txs.size()) << nb.name;
            for (const fault::FaultPlan *plan :
                 {(const fault::FaultPlan *)nullptr, &seeded}) {
                const Outcome want = reference(block, order, plan);
                for (int variant = 0; variant < 4; ++variant) {
                    const bool fast = variant & 1;
                    const bool comm = variant & 2;
                    for (const auto &[pool_name, pool] : pools) {
                        const std::string what =
                            nb.name + " order=" + order_name
                            + " aborts=" + (plan ? "seeded" : "none")
                            + " tier=" + (fast ? "fast" : "reference")
                            + " commutative=" + (comm ? "on" : "off")
                            + " pool=" + pool_name;
                        const Outcome got = viaCommitter(
                            block, order, plan, fast, comm, pool);
                        EXPECT_EQ(got.digest, want.digest) << what;
                        if (!pool) {
                            EXPECT_EQ(got.replayed, 0u) << what;
                        }
                        pooled_replays += got.replayed;
                        for (std::size_t i = 0; i < block.txs.size();
                             ++i) {
                            EXPECT_EQ(got.receipts[i].toRlp(),
                                      want.receipts[i].toRlp())
                                << what << " tx " << i;
                        }
                    }
                }
            }
        }
    }
    // The replay path is exercised, not only re-execution.
    EXPECT_GT(pooled_replays, 0u);
}

/** Every field of a trace the cycle model reads. */
void
expectTraceEqual(const evm::Trace &a, const evm::Trace &b,
                 const std::string &what)
{
    EXPECT_EQ(a.codeAddrs, b.codeAddrs) << what;
    EXPECT_EQ(a.codeSizes, b.codeSizes) << what;
    EXPECT_EQ(a.gasUsed, b.gasUsed) << what;
    EXPECT_EQ(a.success, b.success) << what;
    EXPECT_EQ(a.contextBytes, b.contextBytes) << what;
    ASSERT_EQ(a.events.size(), b.events.size()) << what;
    for (std::size_t k = 0; k < a.events.size(); ++k) {
        const evm::TraceEvent &x = a.events[k];
        const evm::TraceEvent &y = b.events[k];
        ASSERT_TRUE(x.pc == y.pc && x.nextPc == y.nextPc
                    && x.codeId == y.codeId && x.opcode == y.opcode
                    && x.operandTaint == y.operandTaint
                    && x.branchTaken == y.branchTaken
                    && x.gasCost == y.gasCost
                    && x.dataBytes == y.dataBytes
                    && x.storageKey == y.storageKey)
            << what << " event " << k;
    }
}

TEST(BlockCommitter, TraceModeIdenticalWithAndWithoutPool)
{
    support::ThreadPool pool2(2);
    std::size_t pooled_replays = 0;
    for (const NamedBlock &nb : blocks()) {
        const BlockRun &block = nb.block;
        evm::SpecOptions opts;
        opts.wantTrace = true;
        opts.commutative = true;

        evm::WorldState serial_state = sharedGen().genesis();
        evm::WorldState pooled_state = sharedGen().genesis();
        evm::BlockCommitter serial(serial_state, block.header,
                                   block.transactions(), opts);
        evm::BlockCommitter pooled(pooled_state, block.header,
                                   block.transactions(), opts, &pool2);
        for (std::size_t i = 0; i < block.txs.size(); ++i) {
            const std::string what = nb.name + " tx " + std::to_string(i);
            evm::CommittedTx a = serial.commit(i);
            evm::CommittedTx b = pooled.commit(i);
            EXPECT_FALSE(a.verdict) << what; // nothing speculated
            pooled_replays += b.replayed() ? 1 : 0;
            EXPECT_EQ(a.receipt.toRlp(), b.receipt.toRlp()) << what;
            // The consensus stage shipped exactly this receipt.
            EXPECT_EQ(a.receipt.toRlp(), block.txs[i].receipt.toRlp())
                << what;
            expectTraceEqual(a.trace, b.trace, what);
            EXPECT_EQ(a.access.reads, b.access.reads) << what;
            EXPECT_EQ(a.access.writes, b.access.writes) << what;
            ASSERT_EQ(a.commutative.size(), b.commutative.size()) << what;
            for (const auto &[key, tag] : a.commutative) {
                auto it = b.commutative.find(key);
                ASSERT_NE(it, b.commutative.end()) << what;
                EXPECT_EQ(tag.delta, it->second.delta) << what;
                EXPECT_EQ(tag.constraints.size(),
                          it->second.constraints.size())
                    << what;
            }
        }
        EXPECT_EQ(serial_state.digest(), pooled_state.digest()) << nb.name;

        // The DAG the consensus stage derives from those access sets
        // and tags, with commutative elision on and off.
        for (bool elide : {false, true}) {
            BlockRun x = block;
            BlockRun y = block;
            workload::runConsensusStage(x, sharedGen().genesis(), nullptr,
                                        elide);
            workload::runConsensusStage(y, sharedGen().genesis(), &pool2,
                                        elide);
            for (std::size_t i = 0; i < block.txs.size(); ++i) {
                const std::string what = nb.name + " elide="
                                       + (elide ? "on" : "off") + " tx "
                                       + std::to_string(i);
                EXPECT_EQ(x.txs[i].deps, y.txs[i].deps) << what;
                EXPECT_EQ(x.txs[i].access.commutative,
                          y.txs[i].access.commutative)
                    << what;
                expectTraceEqual(x.txs[i].trace, y.txs[i].trace, what);
            }
        }
    }
    EXPECT_GT(pooled_replays, 0u);
}

} // namespace
} // namespace mtpu
