/**
 * @file
 * The spatio-temporal scheduling engine (§3.2): an event-driven
 * multi-PU simulation in which the CPU maintains an m-entry candidate
 * window (main memory) and each PU asynchronously selects its next
 * transaction through the Scheduling/Transaction tables — steering
 * redundant transactions onto the same PU for DB-cache and context
 * reuse in the time dimension, and conflict-free transactions onto
 * different PUs in the space dimension.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "arch/config.hpp"
#include "arch/memory.hpp"
#include "arch/pu.hpp"
#include "obs/tracer.hpp"
#include "sched/recovery.hpp"
#include "sched/tables.hpp"
#include "workload/workload.hpp"

namespace mtpu::sched {

/** Hook supplying hotspot execution hints per transaction. */
using HintProvider =
    std::function<arch::ExecHints(const workload::TxRecord &)>;

/** What a commit step reports: the TxCommit event's failed flag and
 *  the host-domain SpecCommitPath event's replayed bit. */
struct CommitOutcome
{
    bool failed = false;
    bool replayed = false;
};

/**
 * Applies one transaction to the caller's functional state, called at
 * each completion event that passes conflict validation. Its outcome
 * only labels the trace; it never feeds back into the schedule.
 */
using CommitStep = std::function<CommitOutcome(int txIndex)>;

/** Aggregate result of executing one block. */
struct EngineStats
{
    std::uint64_t makespan = 0;     ///< cycles until the last PU finishes
    std::uint64_t busyCycles = 0;   ///< sum of PU busy time
    std::uint64_t seqCycles = 0;    ///< sum of all tx latencies
    std::uint64_t instructions = 0;
    std::uint64_t txCount = 0;
    std::uint64_t redundantSteers = 0; ///< Re-bit driven selections
    std::uint64_t stalls = 0;          ///< idle PU with nothing selectable
    std::vector<std::uint64_t> puBusy; ///< per-PU busy cycles
    /**
     * Transaction indices in completion order — the serialization
     * order the schedule commits to. A valid schedule's completion
     * order is a linear extension of the dependency DAG, so executing
     * transactions in this order yields the same state as program
     * order (verified in the integration tests).
     */
    std::vector<int> completionOrder;

    // -- recovery / fault accounting (zero on clean runs) ---------------
    /** Speculative mispredictions rolled back at commit time. */
    std::uint64_t conflictAborts = 0;
    /** Transactions aborted because their PU was killed mid-flight. */
    std::uint64_t puFaultAborts = 0;
    /** Injected REVERT/out-of-gas directives that fired. */
    std::uint64_t injectedAborts = 0;
    /** Re-dispatches of previously aborted transactions. */
    std::uint64_t retries = 0;
    /** Committed transactions whose receipt failed (functional runs). */
    std::uint64_t failedTxs = 0;
    /** Functional commits served by replaying a valid speculation. */
    std::uint64_t specReplayed = 0;
    /** Re-executions because an exact observation no longer held. */
    std::uint64_t reexecValidationMiss = 0;
    /** Re-executions because a commutative range constraint failed. */
    std::uint64_t reexecBoundsMiss = 0;
    /**
     * Conflict edges elided because every overlapping key was
     * mutually commutative (cfg.commutative; DESIGN.md §14).
     */
    std::uint64_t commutativeDropped = 0;
    /**
     * Subset of failedTxs that are expected contract-level REVERTs
     * (receipt.error == "reverted"): the contract logic itself
     * declined — an insufficient allowance, an outbid auction — not
     * an execution fault. The complement (failedTxs - revertedTxs) is
     * the real-failure count: out-of-gas, bad intrinsic gas, halts.
     * Policy in DESIGN.md §11.
     */
    std::uint64_t revertedTxs = 0;

    /** The watchdog failed the block; completionOrder is partial. */
    bool watchdogFired = false;
    /** Diagnostic dump, set iff watchdogFired. */
    std::shared_ptr<WatchdogReport> watchdog;
    /**
     * Final functional state, set by core::MtpuProcessor when
     * RecoveryOptions::genesis is set; null on cycle-only runs.
     */
    std::shared_ptr<evm::WorldState> finalState;

    double
    utilization() const
    {
        if (makespan == 0 || puBusy.empty())
            return 0.0;
        return double(busyCycles) / (double(makespan) * double(puBusy.size()));
    }
};

/** Spatio-temporal multi-PU engine. */
class SpatioTemporalEngine
{
  public:
    explicit SpatioTemporalEngine(const arch::MtpuConfig &cfg);

    /**
     * Execute the block to completion and return scheduling stats.
     * PU microarchitectural state (DB caches, Call_Contract stacks)
     * persists across calls, modelling consecutive blocks; call
     * reset() for independent experiments.
     *
     * @p recovery arms the recovery layer: commit-time conflict
     * validation against the consensus-stage access sets,
     * priority-escalated retry of mispredicted transactions, injected
     * faults from RecoveryOptions::plan, and a watchdog that fails the
     * block with a diagnostic dump instead of hanging.
     *
     * The engine holds no functional state: @p commit, when set,
     * applies each validated transaction. The schedule and the
     * deterministic trace are those of the cycle-only run, apart from
     * TxCommit's failed flag and injected aborts that did not fire.
     */
    EngineStats run(const workload::BlockRun &block,
                    const HintProvider &hints = {},
                    const RecoveryOptions &recovery = {},
                    const CommitStep &commit = {});

    void reset();

    const arch::PuModel &pu(int i) const { return *pus_[std::size_t(i)]; }

    /**
     * Attach a cycle-level tracer (nullptr detaches). The engine's
     * phase-2 event loop is the single writer; all timestamps are
     * engine-clock cycles, so the deterministic-domain trace is
     * identical for every host thread count.
     */
    void setTracer(obs::Tracer *tracer);

  private:
    arch::MtpuConfig cfg_;
    arch::StateBuffer stateBuffer_;
    std::vector<std::unique_ptr<arch::PuModel>> pus_;
    obs::Tracer *tracer_ = nullptr;
};

} // namespace mtpu::sched
