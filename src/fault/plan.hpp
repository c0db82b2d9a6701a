/**
 * @file
 * Fault plan: the pure-data description of the faults injected into one
 * block run. A plan is produced by the seeded FaultInjector (or built
 * by hand in tests) and consumed by the scheduling engine's recovery
 * layer and by the Auditor, so both sides agree on what "should" have
 * happened.
 *
 * Header-only on purpose: mtpu_sched reads plans without linking the
 * mtpu_fault library (which itself links mtpu_sched for the Auditor).
 */

#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "evm/interpreter.hpp"
#include "workload/workload.hpp"

namespace mtpu::fault {

/**
 * Force a transaction to abort mid-execution (§ Fault model,
 * DESIGN.md): after `afterInstructions` executed instructions, as an
 * out-of-gas exception (`outOfGas`, gas consumed) or a REVERT. The
 * interpreters' own directive, so a plan's aborts arm them as is.
 */
using AbortDirective = evm::AbortInjection;

/** Stall or kill one processing unit at a point in simulated time. */
struct PuFault
{
    int pu = -1;
    /** Cycle at which the fault manifests. */
    std::uint64_t atCycle = 0;
    /** true: the PU dies; false: it freezes for stallCycles. */
    bool kill = true;
    std::uint64_t stallCycles = 0;
};

/** Everything injected into one block run. */
struct FaultPlan
{
    /** Seed the plan was drawn from, for reproduction in bug reports. */
    std::uint64_t seed = 0;

    /**
     * Dependency edges (txIndex, depIndex) removed from the shipped
     * DAG, modelling an under-approximated consensus-stage analysis.
     */
    std::vector<std::pair<int, int>> droppedEdges;

    /** Forced mid-transaction aborts, keyed by transaction index. */
    std::map<int, AbortDirective> aborts;

    std::vector<PuFault> puFaults;

    bool
    empty() const
    {
        return droppedEdges.empty() && aborts.empty() && puFaults.empty();
    }

    const AbortDirective *
    abortFor(int tx) const
    {
        auto it = aborts.find(tx);
        return it == aborts.end() ? nullptr : &it->second;
    }
};

/**
 * The veto on commutative edge elision (DESIGN.md §14): every key an
 * abort victim of @p plan writes in @p block; empty without a plan.
 * The classifier's uniformity proof assumes every group member's delta
 * lands; an injected abort rolls the victim's delta back, shifting its
 * peers' observed values outside the proven interval (an SSTORE can
 * flip between its zero and non-zero gas class, moving the peers' fees
 * with it). Those keys keep their edges, so the whole group commits in
 * program order. The engine and the Auditor elide under the same veto.
 */
inline std::set<evm::StateKey>
abortVeto(const FaultPlan *plan, const workload::BlockRun &block)
{
    std::set<evm::StateKey> veto;
    if (!plan)
        return veto;
    for (const auto &[tx, directive] : plan->aborts) {
        if (tx < 0 || std::size_t(tx) >= block.txs.size())
            continue;
        const auto &w = block.txs[std::size_t(tx)].access.writes;
        veto.insert(w.begin(), w.end());
    }
    return veto;
}

} // namespace mtpu::fault
