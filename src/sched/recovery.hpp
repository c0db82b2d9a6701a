/**
 * @file
 * Recovery layer of the spatio-temporal engine: speculative-conflict
 * validation options and the watchdog's structured diagnostic dump.
 *
 * The paper's scheduler is conservative and rollback-free because it
 * trusts the consensus stage to ship a complete dependency DAG. A
 * production node cannot: the DAG may be under-approximated, a
 * transaction may abort mid-flight (REVERT / out-of-gas), and a PU may
 * stall or die. With recovery enabled the engine validates each
 * transaction's ground-truth read/write set against the committed
 * completion order at commit time, commits nothing for mispredicted
 * transactions, and re-enqueues them with escalated priority
 * (bounded, starvation-free). A cycle-budget
 * watchdog turns livelock/deadlock into a failed block with a
 * diagnostic dump instead of a hang.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mtpu::evm {
class WorldState;
}
namespace mtpu::fault {
struct FaultPlan;
}

namespace mtpu::sched {

/** Per-run recovery / fault-injection controls. */
struct RecoveryOptions
{
    /**
     * Validate each transaction's consensus-stage access set against
     * the committed completion order; mispredicted transactions are
     * rolled back and retried.
     */
    bool validateConflicts = false;

    /**
     * Pristine pre-block state. The engine never executes against it
     * (it only arms the watchdog, see active()): core::MtpuProcessor
     * copies it once and commits each transaction into the copy at the
     * engine's completion event, through the engine's commit step; a
     * transaction that fails conflict validation commits nothing. The
     * copy is returned in EngineStats::finalState.
     */
    const evm::WorldState *genesis = nullptr;

    /** Injected faults (dropped edges are applied by degrading the
     *  block; aborts and PU faults are read from here). */
    const fault::FaultPlan *plan = nullptr;

    /**
     * Conflict-abort budget per transaction. Once exhausted the
     * transaction is dispatched conservatively — only when every
     * ground-truth predecessor has committed — which cannot be
     * invalidated, so no transaction starves.
     */
    int maxRetries = 8;

    /** Priority (V) bump per abort, so victims win selection sooner. */
    int priorityEscalation = 1 << 20;

    /** Watchdog cycle budget; 0 derives a generous bound per block. */
    std::uint64_t watchdogBudget = 0;

    bool
    active() const
    {
        return validateConflicts || genesis != nullptr || plan != nullptr
            || watchdogBudget != 0;
    }
};

/** Snapshot of one PU at watchdog time. */
struct PuDump
{
    bool busy = false;
    bool dead = false;
    int txIndex = -1;
    std::uint64_t finishAt = 0;
    std::uint64_t busyCycles = 0;
};

/** Snapshot of one candidate-window slot at watchdog time. */
struct SlotDump
{
    bool occupied = false;
    bool locked = false;
    int txIndex = -1;
    int value = 0;
};

/** Structured diagnostic dump produced when the watchdog fails a block. */
struct WatchdogReport
{
    enum class Reason
    {
        None,
        CycleBudget, ///< simulated time exceeded the cycle budget
        NoProgress,  ///< work remains but nothing is running/selectable
    };

    Reason reason = Reason::None;
    std::uint64_t now = 0;
    std::uint64_t budget = 0;
    std::size_t committed = 0;
    std::size_t txCount = 0;

    std::vector<PuDump> pus;
    std::vector<SlotDump> window; ///< Transaction-table contents
    std::vector<int> pending;     ///< uncommitted tx indices (capped)
    std::size_t pendingTotal = 0;

    static const char *reasonName(Reason r);

    /** Multi-line human-readable rendering of the dump. */
    std::string toString() const;
};

} // namespace mtpu::sched
