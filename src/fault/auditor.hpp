/**
 * @file
 * Serializability auditor: the digest check from the integration tests
 * promoted into a reusable library. An Auditor is bound to a block and
 * the genesis state it executes from; audit() then verifies that a
 * committed completion order (a) covers every transaction exactly once,
 * (b) is a linear extension of the block's ground-truth conflict
 * relation, and (c) replayed on real state reproduces the canonical
 * program-order digest. When the engine maintained functional state
 * (recovery mode), its live digest is cross-checked as well.
 *
 * The canonical digest is the one the consensus stage carries in
 * BlockRun::consensusDigest, when it was computed from this genesis;
 * blocks without it (RLP round trips, hand-built blocks) or audited
 * against another pre-state replay program order. An engine run that
 * passes (a) and (b) and whose final state matches the carried digest
 * passes without executing anything (DESIGN.md §8); any other run gets
 * the full replay, which also writes the failure message.
 *
 * Injected aborts (a FaultPlan) are applied identically to both the
 * canonical and the replayed execution, so audits stay meaningful under
 * fault injection. They change the canonical state, so a plan with
 * aborts always replays.
 */

#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "evm/state.hpp"
#include "fault/plan.hpp"
#include "sched/engine.hpp"
#include "support/thread_pool.hpp"
#include "workload/workload.hpp"

namespace mtpu::fault {

/** Outcome of one audit. */
struct AuditReport
{
    bool orderComplete = false;   ///< permutation of all transactions
    bool linearExtension = false; ///< respects the conflict relation
    /** Replay digest == canonical digest (the engine's final-state
     *  digest stands in for the replay when the audit passed without
     *  one). */
    bool digestMatch = false;
    /** Engine final-state digest == replay digest, or == the carried
     *  consensus digest when the audit passed without replay (recovery
     *  runs only; vacuously true when the engine kept no functional
     *  state). */
    bool engineStateMatch = true;

    U256 expected; ///< canonical (program-order) digest
    /** Digest of the replayed completion order; when the audit passed
     *  without replay, the engine's final-state digest (== expected). */
    U256 actual;

    /** First failure, human-readable; empty when ok(). */
    std::string message;

    bool
    ok() const
    {
        return orderComplete && linearExtension && digestMatch
            && engineStateMatch;
    }
};

/** Reusable serializability checker for one (genesis, block) pair. */
class Auditor
{
  public:
    /**
     * @param genesis pristine pre-block state (kept by reference)
     * @param block the block as executed; its consensus-stage access
     *        sets define the ground-truth conflict relation, so a
     *        degraded copy (dropped DAG edges) audits identically to
     *        the original. Falls back to the shipped deps when access
     *        sets are absent (e.g. RLP round-trips).
     * @param plan faults applied to the run being audited (optional)
     * @param commutative_edges when true, conflict edges whose every
     *        overlapping key is mutually commutative (access-set
     *        `commutative` classification, DESIGN.md §14) are exempt
     *        from the linear-extension check — matching an engine run
     *        with cfg.commutative. The digest checks are NOT relaxed:
     *        an elided-order replay must still be bit-identical to
     *        program order, which is exactly what the classifier
     *        guarantees.
     */
    Auditor(const evm::WorldState &genesis, const workload::BlockRun &block,
            const FaultPlan *plan = nullptr,
            bool commutative_edges = false);

    /**
     * When audit() has to replay both the canonical and the completion
     * order (no carried digest for this genesis, or a plan with
     * aborts), run them as two concurrent pool tasks (they are
     * independent full replays, so the result is unchanged). @p pool
     * is borrowed, not owned; pass nullptr to go back to serial.
     */
    void usePool(support::ThreadPool *pool) { pool_ = pool; }

    /** Audit a bare completion order (always replays it). */
    AuditReport audit(const std::vector<int> &completion_order) const;

    /**
     * Audit an engine run: the completion order, plus the engine's
     * final functional state when present. A fired watchdog fails the
     * audit (the order is incomplete by construction). Executes no
     * transaction when the run passes against the carried digest.
     */
    AuditReport audit(const sched::EngineStats &stats) const;

    /**
     * Digest of executing the block's txs in @p order from genesis on
     * the fast tier. Counts the executions in fault.audit_replayed_txs.
     */
    U256 digestInOrder(const std::vector<int> &order) const;

    /**
     * Canonical program-order digest (with plan aborts applied), always
     * by replay: the cross-tier reference for the carried digest.
     */
    U256 canonicalDigest() const;

    /** Ground-truth conflict edges (txIndex, earlier txIndex). */
    const std::vector<std::pair<int, int>> &conflictEdges() const
    {
        return edges_;
    }

  private:
    /** The carried post-state digest, unless it is absent, was
     *  computed from another pre-state than genesis, or plan aborts
     *  make it the wrong reference. */
    std::optional<U256> carriedDigest() const;

    /** Checks (a) and (b) into @p report; false when (a) fails. */
    bool checkOrder(const std::vector<int> &completion_order,
                    AuditReport &report) const;

    /** The replay-free happy path; false means "replay to decide". */
    bool passesWithoutReplay(const sched::EngineStats &stats,
                             AuditReport &report) const;

    const evm::WorldState &genesis_;
    const workload::BlockRun &block_;
    const FaultPlan *plan_;
    U256 genesisDigest_;
    support::ThreadPool *pool_ = nullptr;
    std::vector<std::pair<int, int>> edges_;
};

} // namespace mtpu::fault
