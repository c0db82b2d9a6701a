/**
 * @file
 * Seeded chaos/soak smoke for the streaming front end (the long soak
 * lives behind `ctest -L soak`): overload survival with bounded
 * memory, deterministic replay across runs and host-thread counts,
 * and the batch-differential — committed stream blocks replayed
 * sequentially from genesis must land on the same state digest.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "evm/interpreter.hpp"
#include "fault/stream_faults.hpp"
#include "stream/server.hpp"
#include "workload/stream_gen.hpp"

namespace mtpu::stream {
namespace {

struct SoakSetup
{
    std::uint64_t seed = 11;
    std::uint64_t slots = 16;
    int rate = 24;       ///< offered txs per slot
    int blockCap = 8;    ///< block cut size
    std::size_t poolCap = 256;
    bool chaos = false;
    int threads = 1;
    bool keepBlocks = false;
};

SoakReport
runSoak(const SoakSetup &s)
{
    workload::Generator gen(s.seed, 256, s.threads);
    workload::StreamMix mix;
    workload::StreamGenerator wire_gen(gen, s.seed, 32, mix);

    fault::StreamFaultParams fparams;
    if (s.chaos) {
        fparams.burstRate = 0.08;
        fparams.burstMultiplier = 5.0;
        fparams.burstLen = 4;
        fparams.stallRate = 0.06;
        fparams.stallLen = 2;
        fparams.byzantineRate = 0.08;
        fparams.byzantineLen = 3;
    }
    fault::StreamFaultInjector chaos(s.seed, fparams, s.slots);

    StreamConfig scfg;
    scfg.pool.capacity = s.poolCap;
    scfg.block.maxTxs = std::size_t(s.blockCap);
    scfg.keepBlocks = s.keepBlocks;

    arch::MtpuConfig cfg;
    cfg.threads = s.threads;
    core::RunOptions run;
    run.scheme = core::Scheme::SpatioTemporal;
    run.redundancyOpt = true;
    run.threads = s.threads;

    StreamServer server(cfg, run, gen.genesis(), gen.contracts(), scfg);
    std::uint64_t offered = 0;
    std::uint64_t held_back = 0;
    auto producer = [&](std::uint64_t slot, std::size_t credits) {
        // Wallet behaviour: resync issued nonces against the pool's
        // pending view so shed/bounced nonces get re-issued instead of
        // parking the sender's stream behind a permanent hole.
        wire_gen.resyncNonces([&](const evm::Address &a) {
            return server.mempool().pendingNonce(a);
        });
        const fault::SlotProfile &prof = chaos.profile(slot);
        std::size_t want =
            prof.stalled ? 0
                         : std::size_t(double(s.rate)
                                           * prof.rateMultiplier
                                       + 0.5);
        std::size_t send =
            prof.byzantine ? want : std::min(want, credits);
        offered += want;
        held_back += want - send;
        if (prof.byzantine)
            return wire_gen.slotTxs(slot, send,
                                    mix.boosted(prof.mixBoost));
        return wire_gen.slotTxs(slot, send);
    };
    SoakReport rep = server.run(producer, s.slots);
    // The server sees only what was sent; the credit-held remainder is
    // the producer's to report (the mtpu_sim convention).
    rep.offered = offered;
    rep.producerHeldBack = held_back;
    return rep;
}

/**
 * The disposition identities: every offered tx is held back by
 * credits or counted under exactly one admission code, and the
 * failed-receipt split covers the total.
 */
void
expectDispositionsAccounted(const SoakReport &rep)
{
    const MempoolStats &p = rep.pool;
    std::uint64_t by_code = 0;
    for (std::uint64_t n : p.byCode)
        by_code += n;
    EXPECT_EQ(rep.offered, p.submitted + rep.producerHeldBack);
    EXPECT_EQ(p.submitted, by_code);
    EXPECT_EQ(p.admitted,
              p.byCode[std::size_t(Admit::Admitted)]
                  + p.byCode[std::size_t(Admit::Replaced)]);
    EXPECT_EQ(rep.failedReceipts,
              rep.revertedReceipts + rep.executionFailures);
}

TEST(StreamSoak, SurvivesFiveTimesOverloadWithBoundedMemory)
{
    SoakSetup s;
    s.slots = 20;
    s.blockCap = 8;
    s.rate = 40;    // 5x the block budget
    s.poolCap = 96; // small enough to force shedding inside the smoke
    SoakReport rep = runSoak(s);

    EXPECT_EQ(rep.outcome, SoakOutcome::Ok)
        << soakOutcomeName(rep.outcome);
    EXPECT_EQ(rep.auditFailures, 0);
    EXPECT_FALSE(rep.watchdogFired);
    EXPECT_EQ(rep.blocks, rep.slots); // backlog never runs dry
    // Graceful degradation: full blocks keep committing (>= 90% of
    // the un-overloaded rate, which equals the block budget)...
    EXPECT_GE(rep.committedPerSlot(), 0.9 * double(s.blockCap));
    // ...while the overflow is shed against a bounded pool.
    EXPECT_GT(rep.pool.shedTotal(), 0u);
    EXPECT_LE(rep.pool.peakDepth, s.poolCap);
    // Overload shows up as queueing delay in the latency tail.
    EXPECT_GT(rep.latencyP99, 0.0);
    expectDispositionsAccounted(rep);
}

/**
 * Credit backpressure: a slot grants the pool's free space plus
 * MempoolConfig::creditReserve, so an offer above poolCap + reserve
 * per slot must be held back at the producer while the pool stays
 * bounded and every offered tx is still accounted for.
 */
TEST(StreamSoak, CreditsHoldBackAnOfferAboveTheGrant)
{
    SoakSetup s;
    s.slots = 8;
    s.blockCap = 8;
    s.poolCap = 96;
    s.rate = int(s.poolCap + MempoolConfig{}.creditReserve) + 40;
    SoakReport rep = runSoak(s);

    EXPECT_EQ(rep.outcome, SoakOutcome::Ok)
        << soakOutcomeName(rep.outcome);
    EXPECT_EQ(rep.auditFailures, 0);
    EXPECT_GE(rep.producerHeldBack, 40u * s.slots);
    EXPECT_LE(rep.pool.peakDepth, s.poolCap);
    expectDispositionsAccounted(rep);
}

TEST(StreamSoak, ChaosSoakIsSeedReproducible)
{
    SoakSetup s;
    s.slots = 14;
    s.chaos = true;
    SoakReport a = runSoak(s);
    SoakReport b = runSoak(s);

    EXPECT_EQ(a.outcome, SoakOutcome::Ok);
    EXPECT_EQ(a.auditFailures, 0);
    EXPECT_GT(a.committedTxs, 0u);

    EXPECT_EQ(a.chainDigest, b.chainDigest);
    EXPECT_EQ(a.committedTxs, b.committedTxs);
    EXPECT_EQ(a.pool.submitted, b.pool.submitted);
    EXPECT_EQ(a.pool.byCode, b.pool.byCode);
    ASSERT_EQ(a.blockLog.size(), b.blockLog.size());
    for (std::size_t i = 0; i < a.blockLog.size(); ++i) {
        EXPECT_EQ(a.blockLog[i].txs, b.blockLog[i].txs);
        EXPECT_EQ(a.blockLog[i].makespan, b.blockLog[i].makespan);
    }
}

TEST(StreamSoak, HostThreadCountDoesNotChangeResults)
{
    SoakSetup s;
    s.slots = 10;
    s.chaos = true;
    s.threads = 1;
    SoakReport one = runSoak(s);
    s.threads = 2;
    SoakReport two = runSoak(s);

    EXPECT_EQ(one.chainDigest, two.chainDigest);
    EXPECT_EQ(one.committedTxs, two.committedTxs);
    ASSERT_EQ(one.blockLog.size(), two.blockLog.size());
    for (std::size_t i = 0; i < one.blockLog.size(); ++i)
        EXPECT_EQ(one.blockLog[i].makespan, two.blockLog[i].makespan);
}

TEST(StreamSoak, StreamCommitsMatchSequentialBatchReplay)
{
    SoakSetup s;
    s.slots = 10;
    s.keepBlocks = true;
    SoakReport rep = runSoak(s);
    ASSERT_EQ(rep.outcome, SoakOutcome::Ok);
    ASSERT_FALSE(rep.committedBlocks.empty());

    // Batch-differential: replay every committed block's txs in
    // program order with the plain sequential interpreter, starting
    // from the same genesis. Admitted-stream execution must be
    // bit-identical to batch-mode execution of the same blocks.
    workload::Generator gen(s.seed, 256, 1);
    evm::WorldState state = gen.genesis();
    evm::Interpreter interp;
    std::uint64_t replayed = 0;
    for (const workload::BlockRun &block : rep.committedBlocks) {
        for (const workload::TxRecord &rec : block.txs) {
            interp.applyTransaction(state, block.header, rec.tx);
            ++replayed;
        }
        state.commit();
    }
    EXPECT_EQ(replayed, rep.committedTxs);
    EXPECT_EQ(state.digest(), rep.chainDigest);
}

} // namespace
} // namespace mtpu::stream
