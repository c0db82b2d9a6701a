/**
 * @file
 * Recovery-layer tests: journal rollback under injected mid-block
 * aborts (REVERT and out-of-gas must leave state equal to a sequential
 * baseline that skips the aborted transaction's call effects),
 * speculative-conflict recovery on degraded DAGs, PU-fault retry, and
 * the watchdog's structured failure path.
 */

#include <gtest/gtest.h>

#include "core/mtpu.hpp"
#include "evm/interpreter.hpp"
#include "fault/auditor.hpp"
#include "fault/injector.hpp"

namespace mtpu {
namespace {

class RecoveryTest : public ::testing::Test
{
  protected:
    RecoveryTest() : gen(4242, 256) {}

    workload::BlockRun
    block(int txs, double dep)
    {
        workload::BlockParams params;
        params.txCount = txs;
        params.depRatio = dep;
        return gen.generateBlock(params);
    }

    /** First successful tx with a long enough trace to abort inside. */
    static int
    pickVictim(const workload::BlockRun &b)
    {
        for (std::size_t j = 0; j < b.txs.size(); ++j) {
            if (b.txs[j].receipt.success
                && b.txs[j].trace.events.size() > 16
                && !b.txs[j].access.writes.empty()) {
                return int(j);
            }
        }
        return -1;
    }

    /**
     * Apply the whole block in program order with @p victim force-
     * aborted mid-execution; returns the digest and the victim's
     * receipt.
     */
    U256
    abortedRunDigest(const workload::BlockRun &b, int victim,
                     bool out_of_gas, evm::Receipt *victim_receipt)
    {
        evm::WorldState state = gen.genesis();
        evm::Interpreter interp;
        for (std::size_t j = 0; j < b.txs.size(); ++j) {
            if (int(j) == victim) {
                interp.armAbort(
                    {b.txs[j].trace.events.size() / 2, out_of_gas});
                *victim_receipt = interp.applyTransaction(
                    state, b.header, b.txs[j].tx);
            } else {
                interp.applyTransaction(state, b.header, b.txs[j].tx);
            }
        }
        return state.digest();
    }

    /**
     * Sequential baseline that skips the victim's call effects
     * entirely, then replays only its unavoidable residue (nonce bump
     * and the fee for the gas the aborted attempt consumed).
     */
    U256
    skippedBaselineDigest(const workload::BlockRun &b, int victim,
                          const evm::Receipt &victim_receipt)
    {
        evm::WorldState state = gen.genesis();
        evm::Interpreter interp;
        for (std::size_t j = 0; j < b.txs.size(); ++j) {
            if (int(j) == victim)
                continue;
            interp.applyTransaction(state, b.header, b.txs[j].tx);
        }
        const evm::Transaction &tx = b.txs[std::size_t(victim)].tx;
        state.incNonce(tx.from);
        U256 fee = U256(victim_receipt.gasUsed) * tx.gasPrice;
        state.subBalance(tx.from, fee);
        state.addBalance(b.header.coinbase, fee);
        state.commit();
        return state.digest();
    }

    workload::Generator gen;
};

TEST_F(RecoveryTest, RevertAbortRollsBackToSkippedBaseline)
{
    auto b = block(24, 0.3);
    int victim = pickVictim(b);
    ASSERT_GE(victim, 0);

    evm::Receipt receipt;
    U256 aborted = abortedRunDigest(b, victim, /*out_of_gas=*/false,
                                    &receipt);
    EXPECT_FALSE(receipt.success);
    EXPECT_EQ(receipt.error, "reverted");
    EXPECT_EQ(aborted, skippedBaselineDigest(b, victim, receipt));

    // The rollback is not vacuous: the clean run differs.
    fault::Auditor clean(gen.genesis(), b);
    EXPECT_NE(aborted, clean.canonicalDigest());
}

TEST_F(RecoveryTest, OutOfGasAbortRollsBackToSkippedBaseline)
{
    auto b = block(24, 0.3);
    int victim = pickVictim(b);
    ASSERT_GE(victim, 0);

    evm::Receipt receipt;
    U256 aborted = abortedRunDigest(b, victim, /*out_of_gas=*/true,
                                    &receipt);
    EXPECT_FALSE(receipt.success);
    EXPECT_EQ(receipt.error, "out of gas");
    EXPECT_EQ(aborted, skippedBaselineDigest(b, victim, receipt));
}

TEST_F(RecoveryTest, SpeculativeApplyIsUndoneByJournal)
{
    // applyTransaction(..., commitState=false) must leave the journal
    // open so a caller can undo the entire transaction.
    auto b = block(12, 0.0);
    int victim = pickVictim(b);
    ASSERT_GE(victim, 0);

    evm::WorldState state = gen.genesis();
    U256 before = state.digest();
    evm::Interpreter interp;
    auto snap = state.snapshot();
    evm::Receipt receipt = interp.applyTransaction(
        state, b.header, b.txs[std::size_t(victim)].tx, nullptr,
        /*commitState=*/false);
    EXPECT_TRUE(receipt.success);
    EXPECT_NE(state.digest(), before);
    state.revert(snap);
    EXPECT_EQ(state.digest(), before);
}

TEST_F(RecoveryTest, ConflictRecoveryOnDegradedDagStaysSerializable)
{
    arch::MtpuConfig cfg;
    cfg.numPus = 4;
    core::MtpuProcessor proc(cfg);
    fault::FaultInjector inj(99);

    std::uint64_t total_aborts = 0;
    for (int i = 0; i < 6; ++i) {
        auto b = block(48, 0.9);
        fault::InjectionParams params;
        params.dropEdgeRate = 1.0; // every edge mispredicted
        auto plan = inj.plan(b, params);
        auto degraded = fault::FaultInjector::degrade(b, plan);

        core::RunOptions opt;
        opt.recovery.validateConflicts = true;
        opt.recovery.plan = &plan;
        auto res = proc.executeAudited(degraded, gen.genesis(), opt);
        EXPECT_TRUE(res.ok()) << res.audit.message;
        EXPECT_FALSE(res.stats.watchdogFired);
        total_aborts += res.stats.conflictAborts;
        EXPECT_EQ(res.stats.retries,
                  res.stats.conflictAborts + res.stats.puFaultAborts);
    }
    EXPECT_GT(total_aborts, 0u)
        << "dropping every DAG edge never triggered a rollback";
}

TEST_F(RecoveryTest, PuKillIsRecovered)
{
    auto b = block(48, 0.4);
    arch::MtpuConfig cfg;
    cfg.numPus = 4;
    core::MtpuProcessor proc(cfg);

    fault::FaultPlan plan;
    plan.puFaults.push_back({1, 50, /*kill=*/true, 0});

    // redundancyOpt keeps MtpuConfig's default context reuse and
    // DB-line retention.
    core::RunOptions run;
    run.redundancyOpt = true;
    run.recovery.validateConflicts = true;
    run.recovery.plan = &plan;
    auto genesis = gen.genesis();
    run.recovery.genesis = &genesis;
    auto stats = proc.execute(b, run);

    EXPECT_FALSE(stats.watchdogFired);
    EXPECT_GE(stats.puFaultAborts, 1u);
    fault::Auditor auditor(genesis, b, &plan);
    auto report = auditor.audit(stats);
    EXPECT_TRUE(report.ok()) << report.message;
}

TEST_F(RecoveryTest, PuStallOnlySlowsTheSchedule)
{
    auto b = block(32, 0.2);
    arch::MtpuConfig cfg;
    cfg.numPus = 2;

    sched::SpatioTemporalEngine clean_engine(cfg);
    auto clean = clean_engine.run(b);

    fault::FaultPlan plan;
    plan.puFaults.push_back({0, 10, /*kill=*/false, 5000});
    sched::RecoveryOptions rec;
    rec.plan = &plan;
    sched::SpatioTemporalEngine stalled_engine(cfg);
    auto stalled = stalled_engine.run(b, {}, rec);

    EXPECT_FALSE(stalled.watchdogFired);
    EXPECT_EQ(stalled.completionOrder.size(), b.txs.size());
    EXPECT_GT(stalled.makespan, clean.makespan);
}

TEST_F(RecoveryTest, WatchdogFailsBlockWhenAllPusDie)
{
    auto b = block(32, 0.2);
    arch::MtpuConfig cfg;
    cfg.numPus = 2;
    sched::SpatioTemporalEngine engine(cfg);

    fault::FaultPlan plan;
    plan.puFaults.push_back({0, 10, true, 0});
    plan.puFaults.push_back({1, 20, true, 0});
    sched::RecoveryOptions rec;
    rec.validateConflicts = true;
    rec.plan = &plan;
    auto stats = engine.run(b, {}, rec);

    ASSERT_TRUE(stats.watchdogFired);
    ASSERT_TRUE(stats.watchdog != nullptr);
    EXPECT_EQ(stats.watchdog->reason,
              sched::WatchdogReport::Reason::NoProgress);
    EXPECT_EQ(stats.watchdog->txCount, b.txs.size());
    EXPECT_LT(stats.watchdog->committed, b.txs.size());
    EXPECT_EQ(stats.watchdog->pus.size(), 2u);
    EXPECT_TRUE(stats.watchdog->pus[0].dead);
    EXPECT_TRUE(stats.watchdog->pus[1].dead);
    EXPECT_FALSE(stats.watchdog->pending.empty());
    EXPECT_FALSE(stats.watchdog->toString().empty());

    // A failed block must fail the audit too.
    fault::Auditor auditor(gen.genesis(), b, &plan);
    EXPECT_FALSE(auditor.audit(stats).ok());
}

TEST_F(RecoveryTest, WatchdogCycleBudgetFires)
{
    auto b = block(32, 0.2);
    arch::MtpuConfig cfg;
    cfg.numPus = 2;
    sched::SpatioTemporalEngine engine(cfg);

    sched::RecoveryOptions rec;
    rec.watchdogBudget = 1; // absurdly tight: must trip immediately
    auto stats = engine.run(b, {}, rec);
    ASSERT_TRUE(stats.watchdogFired);
    EXPECT_EQ(stats.watchdog->reason,
              sched::WatchdogReport::Reason::CycleBudget);
}

/**
 * Commit-time conflict validation is off in the default options. On a
 * fault-free block with the consensus stage's exact DAG it has nothing
 * to roll back, so arming it leaves the schedule of the default run.
 */
TEST_F(RecoveryTest, DefaultRecoveryOptionsMatchPlainRun)
{
    auto b = block(48, 0.5);
    std::size_t edges = 0;
    for (const auto &rec : b.txs)
        edges += rec.deps.size();
    ASSERT_GT(edges, 0u) << "no dependency for validation to check";

    arch::MtpuConfig cfg;
    cfg.numPus = 4;
    ASSERT_FALSE(sched::RecoveryOptions{}.validateConflicts);
    sched::SpatioTemporalEngine plain(cfg);
    auto a = plain.run(b);
    sched::RecoveryOptions validating;
    validating.validateConflicts = true;
    sched::SpatioTemporalEngine checked(cfg);
    auto c = checked.run(b, {}, validating);

    EXPECT_EQ(a.completionOrder.size(), b.txs.size());
    EXPECT_EQ(a.completionOrder, c.completionOrder);
    EXPECT_EQ(a.makespan, c.makespan);
    EXPECT_EQ(a.busyCycles, c.busyCycles);
    EXPECT_EQ(c.conflictAborts, 0u);
    EXPECT_EQ(c.retries, 0u);
    EXPECT_FALSE(c.watchdogFired);
}

} // namespace
} // namespace mtpu
