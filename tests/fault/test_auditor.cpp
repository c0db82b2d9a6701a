/**
 * @file
 * Auditor unit tests: the library form of the serializability digest
 * check must accept valid completion orders and reject reorderings of
 * conflicting transactions, truncated orders, and diverging engine
 * state — on the replay-free path that judges engine runs against the
 * carried consensus digest as much as on the full replay.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>

#include "core/mtpu.hpp"
#include "fault/auditor.hpp"
#include "obs/metrics.hpp"

namespace mtpu {
namespace {

class AuditorTest : public ::testing::Test
{
  protected:
    AuditorTest() : gen(654, 256) {}

    workload::BlockRun
    block(int txs, double dep)
    {
        workload::BlockParams params;
        params.txCount = txs;
        params.depRatio = dep;
        return gen.generateBlock(params);
    }

    static std::vector<int>
    programOrder(const workload::BlockRun &b)
    {
        std::vector<int> order(b.txs.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = int(i);
        return order;
    }

    /**
     * A recovered run from genesis (keeps a final state) on a fresh
     * processor; redundancyOpt keeps MtpuConfig's default context
     * reuse and DB-line retention.
     */
    sched::EngineStats
    engineRun(const workload::BlockRun &b,
              const fault::FaultPlan *plan = nullptr)
    {
        arch::MtpuConfig cfg;
        cfg.numPus = 4;
        core::MtpuProcessor proc(cfg);
        core::RunOptions run;
        run.redundancyOpt = true;
        run.recovery.validateConflicts = true;
        run.recovery.plan = plan;
        run.recovery.genesis = &gen.genesis();
        return proc.execute(b, run);
    }

    /** First successful, state-writing tx with a long enough trace. */
    static int
    abortVictim(const workload::BlockRun &b)
    {
        for (std::size_t j = 0; j < b.txs.size(); ++j) {
            if (b.txs[j].receipt.success
                && b.txs[j].trace.events.size() > 8
                && !b.txs[j].access.writes.empty()) {
                return int(j);
            }
        }
        return -1;
    }

    /** The same block without its carried digest: audits replay. */
    static workload::BlockRun
    withoutDigest(workload::BlockRun b)
    {
        b.consensusDigest.reset();
        return b;
    }

    workload::Generator gen;
};

/** fault.audit_replayed_txs added while @p fn runs. */
std::uint64_t
replayedTxs(const std::function<void()> &fn)
{
    obs::Registry &reg = obs::Registry::global();
    const bool was_enabled = reg.enabled();
    reg.enable(true);
    const std::uint64_t before =
        reg.snapshot().counter("fault.audit_replayed_txs");
    fn();
    const std::uint64_t after =
        reg.snapshot().counter("fault.audit_replayed_txs");
    reg.enable(was_enabled);
    return after - before;
}

TEST_F(AuditorTest, ProgramOrderPasses)
{
    auto b = block(40, 0.5);
    fault::Auditor auditor(gen.genesis(), b);
    auto report = auditor.audit(programOrder(b));
    EXPECT_TRUE(report.ok()) << report.message;
    EXPECT_EQ(report.expected, report.actual);
}

TEST_F(AuditorTest, SwappingConflictingTxsFails)
{
    auto b = block(40, 0.8);
    fault::Auditor auditor(gen.genesis(), b);
    ASSERT_FALSE(auditor.conflictEdges().empty());

    auto order = programOrder(b);
    auto [tx, dep] = auditor.conflictEdges().front();
    std::swap(order[std::size_t(tx)], order[std::size_t(dep)]);
    auto report = auditor.audit(order);
    EXPECT_FALSE(report.ok());
    EXPECT_FALSE(report.linearExtension);
    EXPECT_FALSE(report.message.empty());
}

TEST_F(AuditorTest, TruncatedOrderFailsCompleteness)
{
    auto b = block(24, 0.2);
    fault::Auditor auditor(gen.genesis(), b);
    auto order = programOrder(b);
    order.pop_back();
    auto report = auditor.audit(order);
    EXPECT_FALSE(report.ok());
    EXPECT_FALSE(report.orderComplete);
}

TEST_F(AuditorTest, SwappingIndependentTxsPasses)
{
    auto b = block(30, 0.0);
    fault::Auditor auditor(gen.genesis(), b);
    auto order = programOrder(b);
    // Find two adjacent transactions with no conflict edge between
    // them (in either direction) and swap them.
    const auto &edges = auditor.conflictEdges();
    for (std::size_t j = 1; j < order.size(); ++j) {
        bool conflicting = false;
        for (const auto &[a, c] : edges) {
            if ((a == int(j) && c == int(j - 1))
                || (a == int(j - 1) && c == int(j))) {
                conflicting = true;
                break;
            }
        }
        if (!conflicting) {
            std::swap(order[j - 1], order[j]);
            break;
        }
    }
    auto report = auditor.audit(order);
    EXPECT_TRUE(report.ok()) << report.message;
}

TEST_F(AuditorTest, PlanAbortsChangeTheCanonicalDigest)
{
    auto b = block(24, 0.0);
    // Abort the first successful state-mutating transaction.
    const int victim = abortVictim(b);
    ASSERT_GE(victim, 0);

    fault::FaultPlan plan;
    plan.aborts[victim] = {b.txs[std::size_t(victim)].trace.events.size()
                               / 2,
                           false};

    fault::Auditor clean(gen.genesis(), b);
    fault::Auditor faulted(gen.genesis(), b, &plan);
    EXPECT_NE(clean.canonicalDigest(), faulted.canonicalDigest())
        << "injected abort had no observable effect";

    // Under the same plan both replays abort identically, so the
    // program order still audits clean.
    auto report = faulted.audit(programOrder(b));
    EXPECT_TRUE(report.ok()) << report.message;
}

TEST_F(AuditorTest, EngineStatsOverloadChecksFinalState)
{
    auto b = block(16, 0.0);
    fault::Auditor auditor(gen.genesis(), b);

    sched::EngineStats stats;
    stats.txCount = b.txs.size();
    stats.completionOrder = programOrder(b);
    // Divergent live state: pristine genesis instead of the post-block
    // state.
    stats.finalState = std::make_shared<evm::WorldState>(gen.genesis());
    auto report = auditor.audit(stats);
    EXPECT_FALSE(report.ok());
    EXPECT_FALSE(report.engineStateMatch);
}

TEST_F(AuditorTest, ConsensusStageCarriesTheCanonicalDigest)
{
    auto b = block(40, 0.5);
    ASSERT_TRUE(b.consensusDigest.has_value());
    fault::Auditor auditor(gen.genesis(), b);
    // The consensus stage runs the reference tier, the auditor's
    // replay the fast tier: the two must agree bit for bit.
    EXPECT_EQ(b.consensusDigest->post, auditor.canonicalDigest());

    // The wire form does not carry it.
    EXPECT_FALSE(
        workload::BlockRun::fromRlp(b.toRlp()).consensusDigest.has_value());
}

TEST_F(AuditorTest, PassingEngineRunIsAuditedWithoutReplay)
{
#if !MTPU_OBS_ENABLED
    GTEST_SKIP() << "built with -DMTPU_OBS=OFF: the counters compile "
                    "away";
#endif
    auto b = block(48, 0.4);
    const std::uint64_t n = b.txs.size();
    const sched::EngineStats stats = engineRun(b);
    fault::Auditor auditor(gen.genesis(), b);
    fault::AuditReport report;
    EXPECT_EQ(replayedTxs([&] { report = auditor.audit(stats); }), 0u);
    EXPECT_TRUE(report.ok()) << report.message;
    EXPECT_EQ(report.expected, b.consensusDigest->post);
    EXPECT_EQ(report.actual, report.expected);

    // A bare order replays only itself: the carried digest is the
    // expected side.
    EXPECT_EQ(replayedTxs([&] { report = auditor.audit(programOrder(b)); }),
              n);
    EXPECT_TRUE(report.ok()) << report.message;

    // Without the carried digest both sides replay.
    const workload::BlockRun bare = withoutDigest(b);
    fault::Auditor replaying(gen.genesis(), bare);
    EXPECT_EQ(replayedTxs([&] { report = replaying.audit(stats); }),
              2 * n);
    EXPECT_TRUE(report.ok()) << report.message;
}

TEST_F(AuditorTest, AbortPlanAuditReplaysBothOrders)
{
#if !MTPU_OBS_ENABLED
    GTEST_SKIP() << "built with -DMTPU_OBS=OFF: the counters compile "
                    "away";
#endif
    auto b = block(24, 0.2);
    const int victim = abortVictim(b);
    ASSERT_GE(victim, 0);
    fault::FaultPlan plan;
    plan.aborts[victim] = {b.txs[std::size_t(victim)].trace.events.size()
                               / 2,
                           false};

    // The carried digest is the plan-free state, so it cannot judge
    // this run: the canonical and the completion order both replay.
    const sched::EngineStats stats = engineRun(b, &plan);
    fault::Auditor auditor(gen.genesis(), b, &plan);
    fault::AuditReport report;
    EXPECT_EQ(replayedTxs([&] { report = auditor.audit(stats); }),
              2 * b.txs.size());
    EXPECT_TRUE(report.ok()) << report.message;
    EXPECT_NE(report.expected, b.consensusDigest->post);
}

TEST_F(AuditorTest, CorruptedEngineWriteFailsTheAudit)
{
    auto b = block(40, 0.3);
    sched::EngineStats stats = engineRun(b);
    fault::Auditor auditor(gen.genesis(), b);
    ASSERT_TRUE(auditor.audit(stats).ok());

    // Change one storage word the block wrote.
    const evm::StateKey *key = nullptr;
    for (const auto &rec : b.txs) {
        for (const evm::StateKey &k : rec.access.writes) {
            if (k.slot != evm::WorldState::kBalanceSlot) {
                key = &k;
                break;
            }
        }
        if (key)
            break;
    }
    ASSERT_NE(key, nullptr);
    auto corrupt = std::make_shared<evm::WorldState>(*stats.finalState);
    corrupt->setStorage(key->address, key->slot,
                        corrupt->storageAt(key->address, key->slot)
                            + U256(1));
    corrupt->commit();
    stats.finalState = corrupt;

    const fault::AuditReport report = auditor.audit(stats);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.digestMatch);
    EXPECT_FALSE(report.engineStateMatch);
    EXPECT_EQ(report.message, "engine live state diverges from the "
                              "committed completion order");

    // The same report as a full replay makes.
    const workload::BlockRun bare = withoutDigest(b);
    const fault::AuditReport replayed =
        fault::Auditor(gen.genesis(), bare).audit(stats);
    EXPECT_EQ(report.message, replayed.message);
    EXPECT_EQ(report.expected, replayed.expected);
    EXPECT_EQ(report.actual, replayed.actual);
}

TEST_F(AuditorTest, SwappedConflictingEngineOrderFailsTheAudit)
{
    auto b = block(40, 0.8);
    sched::EngineStats stats = engineRun(b);
    fault::Auditor auditor(gen.genesis(), b);
    ASSERT_TRUE(auditor.audit(stats).ok());
    ASSERT_FALSE(auditor.conflictEdges().empty());

    // The final state is still right; only the order check can see it.
    const auto [tx, dep] = auditor.conflictEdges().front();
    auto &order = stats.completionOrder;
    std::swap(*std::find(order.begin(), order.end(), tx),
              *std::find(order.begin(), order.end(), dep));

    const fault::AuditReport report = auditor.audit(stats);
    EXPECT_FALSE(report.ok());
    EXPECT_FALSE(report.linearExtension);
    EXPECT_EQ(report.message.rfind("tx ", 0), 0u) << report.message;
    EXPECT_NE(report.message.find(" committed before conflicting "
                                  "predecessor "),
              std::string::npos)
        << report.message;

    const workload::BlockRun bare = withoutDigest(b);
    const fault::AuditReport replayed =
        fault::Auditor(gen.genesis(), bare).audit(stats);
    EXPECT_EQ(report.message, replayed.message);
    EXPECT_EQ(report.expected, replayed.expected);
    EXPECT_EQ(report.actual, replayed.actual);
}

TEST_F(AuditorTest, ChainedBlocksAuditAgainstTheirOwnPreState)
{
    // A Generator runs every block's consensus stage on its genesis.
    // Executed as a chain, the second block runs on the first's
    // post-state, which its carried digests do not describe: it must
    // be judged by a full replay from that state, not fail against
    // the carried post-state digest.
    const std::vector<workload::BlockRun> blocks = {block(32, 0.4),
                                                    block(32, 0.4)};
    arch::MtpuConfig cfg;
    cfg.numPus = 4;
    core::MtpuProcessor proc(cfg);
    core::RunOptions run;
    run.scheme = core::Scheme::SpatioTemporal;
    run.redundancyOpt = true;
    run.recovery.validateConflicts = true;

    evm::WorldState state = gen.genesis();
    std::vector<std::uint64_t> replayed;
    for (const workload::BlockRun &b : blocks) {
        ASSERT_TRUE(b.consensusDigest.has_value());
        EXPECT_EQ(b.consensusDigest->pre, gen.genesis().digest());
        core::AuditedRun res;
        replayed.push_back(replayedTxs(
            [&] { res = proc.executeAudited(b, state, run); }));
        ASSERT_TRUE(res.ok()) << res.audit.message;
        ASSERT_TRUE(res.stats.finalState);
        state = *res.stats.finalState;
    }
    EXPECT_NE(state.digest(), blocks[1].consensusDigest->post);
#if MTPU_OBS_ENABLED
    EXPECT_EQ(replayed[0], 0u);
    EXPECT_EQ(replayed[1], 2 * blocks[1].txs.size());
#endif
}

} // namespace
} // namespace mtpu
