#include "fault/auditor.hpp"

#include <cstdio>

#include "evm/speculative.hpp"
#include "obs/metrics.hpp"

namespace mtpu::fault {

using workload::BlockRun;

Auditor::Auditor(const evm::WorldState &genesis, const BlockRun &block,
                 const FaultPlan *plan, bool commutative_edges)
    : genesis_(genesis), block_(block), plan_(plan)
{
    // Warm point (DESIGN.md §16): fill genesis' commitment caches here,
    // on the constructing thread, so the replays below start from warm
    // copies and their digests rehash only what the block touched.
    genesisDigest_ = genesis_.digest();

    // Ground truth: recompute the conflict relation from the
    // consensus-stage access sets, which survive DAG degradation.
    bool have_access = false;
    for (const auto &rec : block_.txs) {
        if (!rec.access.reads.empty() || !rec.access.writes.empty()) {
            have_access = true;
            break;
        }
    }
    if (have_access) {
        const workload::ConflictGraph truth = workload::conflictGraph(
            block_, commutative_edges, abortVeto(plan_, block_));
        for (std::size_t j = 0; j < truth.preds.size(); ++j)
            for (int i : truth.preds[j])
                edges_.emplace_back(int(j), i);
    } else {
        for (std::size_t j = 0; j < block_.txs.size(); ++j)
            for (int d : block_.txs[j].deps)
                edges_.emplace_back(int(j), d);
    }
}

U256
Auditor::digestInOrder(const std::vector<int> &order) const
{
    MTPU_OBS_COUNT("fault.audit_replayed_txs", order.size());
    evm::WorldState state = genesis_;
    // No pool: every transaction re-executes on the fast tier, and an
    // abort directive's replay self-delegates to the reference tier,
    // so injected-fault replays stay instruction-exact.
    evm::SpecOptions opts;
    opts.fastTier = true;
    evm::BlockCommitter committer(state, block_.header,
                                  block_.transactions(), opts, nullptr,
                                  plan_ ? &plan_->aborts : nullptr);
    for (int idx : order)
        committer.commit(std::size_t(idx));
    return state.digest();
}

U256
Auditor::canonicalDigest() const
{
    std::vector<int> order(block_.txs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = int(i);
    return digestInOrder(order);
}

std::optional<U256>
Auditor::carriedDigest() const
{
    // The carried digest judges only the pre-state it was computed
    // from: a block audited against another state (a chain that has
    // moved past the generator's genesis) replays.
    const auto &carried = block_.consensusDigest;
    if (!carried || carried->pre != genesisDigest_)
        return std::nullopt;
    if (plan_ && !plan_->aborts.empty())
        return std::nullopt;
    return carried->post;
}

bool
Auditor::checkOrder(const std::vector<int> &completion_order,
                    AuditReport &report) const
{
    const std::size_t n = block_.txs.size();

    // (a) completeness: a permutation of [0, n).
    std::vector<int> position(n, -1);
    report.orderComplete = completion_order.size() == n;
    for (std::size_t pos = 0; pos < completion_order.size(); ++pos) {
        int idx = completion_order[pos];
        if (idx < 0 || std::size_t(idx) >= n
            || position[std::size_t(idx)] != -1) {
            report.orderComplete = false;
            break;
        }
        position[std::size_t(idx)] = int(pos);
    }
    if (!report.orderComplete) {
        report.message = "completion order is not a permutation of the "
                         "block ("
                       + std::to_string(completion_order.size()) + " of "
                       + std::to_string(n) + " txs)";
        return false;
    }

    // (b) linear extension of the conflict relation.
    report.linearExtension = true;
    for (const auto &[tx, dep] : edges_) {
        if (position[std::size_t(dep)] > position[std::size_t(tx)]) {
            report.linearExtension = false;
            report.message = "tx " + std::to_string(tx)
                           + " committed before conflicting predecessor "
                           + std::to_string(dep);
            break;
        }
    }
    return true;
}

AuditReport
Auditor::audit(const std::vector<int> &completion_order) const
{
    AuditReport report;
    if (!checkOrder(completion_order, report))
        return report;

    // (c) semantic check: the replayed digest must match program order.
    // The carried consensus digest is program order; without it the two
    // digests are independent full replays from genesis, so with a
    // pool they run as concurrent tasks.
    if (const std::optional<U256> carried = carriedDigest()) {
        report.expected = *carried;
        report.actual = digestInOrder(completion_order);
    } else if (pool_) {
        pool_->runAll({
            [&] { report.expected = canonicalDigest(); },
            [&] { report.actual = digestInOrder(completion_order); },
        });
    } else {
        report.expected = canonicalDigest();
        report.actual = digestInOrder(completion_order);
    }
    report.digestMatch = report.expected == report.actual;
    if (!report.digestMatch && report.message.empty())
        report.message = "state digest diverges from program order";
    return report;
}

bool
Auditor::passesWithoutReplay(const sched::EngineStats &stats,
                             AuditReport &report) const
{
    // Why no replay is needed: the access sets are ground truth from
    // the consensus stage, so any linear extension of their conflict
    // relation yields the program-order state, and a dropped edge or a
    // broken commit shows up as a final state that differs from it.
    const std::optional<U256> carried = carriedDigest();
    if (!carried || !stats.finalState || stats.watchdogFired)
        return false;
    if (!checkOrder(stats.completionOrder, report)
        || !report.linearExtension) {
        return false;
    }
    report.expected = *carried;
    report.actual = stats.finalState->digest();
    report.digestMatch = report.actual == report.expected;
    report.engineStateMatch = report.digestMatch;
    return report.ok();
}

AuditReport
Auditor::audit(const sched::EngineStats &stats) const
{
    AuditReport report;
    if (!passesWithoutReplay(stats, report)) {
        // Inconclusive or failing: the full replay decides, and its
        // report names the first failing check.
        report = audit(stats.completionOrder);
        if (stats.watchdogFired && report.message.empty())
            report.message = "watchdog fired; block failed";
        if (stats.finalState) {
            report.engineStateMatch =
                stats.finalState->digest() == report.actual;
            if (!report.engineStateMatch && report.message.empty())
                report.message = "engine live state diverges from the "
                                 "committed completion order";
        }
    }
    MTPU_OBS_COUNT("fault.audits", 1);
    if (!report.ok())
        MTPU_OBS_COUNT("fault.audit_failures", 1);
    return report;
}

} // namespace mtpu::fault
