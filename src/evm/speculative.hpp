/**
 * @file
 * Speculative per-transaction pre-execution (the functional half of the
 * host-parallel backend, DESIGN.md §9).
 *
 * speculate() runs one transaction against a private copy-on-write
 * overlay of a base state (usually the pre-block state), capturing the
 * receipt, the execution trace, the unfiltered access set, and a
 * field-level delta set extracted from the overlay's journal: for every
 * mutated storage slot / balance / nonce / code, the value the
 * execution *observed* before the first write and the value it left
 * behind. Because the base is only read, any number of speculations can
 * run concurrently on a thread pool.
 *
 * Later, a single-owner commit thread calls specValid() to check that a
 * live state still matches every observation (reads compared base vs
 * live, writes compared against the recorded pre-values), and on
 * success specApply() replays the deltas through the live state's
 * journaled setters — bit-identical to re-executing the transaction,
 * at a fraction of the cost. On a validation miss the caller simply
 * re-executes; the speculation is discarded.
 *
 * Coinbase fee accounting is treated as commutative, exactly as the
 * consensus-stage dependency analysis already does: coinbase keys are
 * excluded from validation and the coinbase balance is applied as a
 * delta (addBalance), so back-to-back fee credits never invalidate
 * otherwise-independent speculations.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "evm/commutative.hpp"
#include "evm/interpreter.hpp"
#include "evm/state.hpp"
#include "evm/trace.hpp"
#include "evm/types.hpp"

namespace mtpu::evm {

class MemoCache;

/** Everything captured by one speculative pre-execution. */
struct SpecResult
{
    bool ran = false; ///< speculate() completed for this transaction

    Receipt receipt;
    Trace trace;      ///< filled only when requested
    AccessSet access; ///< unfiltered (coinbase keys included)

    struct StorageDelta
    {
        Address addr;
        U256 slot;
        U256 observed; ///< value seen before the first write
        U256 final;    ///< value left behind

        /**
         * Commutative delta class (DESIGN.md §14): final == observed +
         * delta through a pure affine chain, and every branch the
         * execution took on the chain is captured in `constraints`.
         * Validation then checks the constraints against the live
         * value (range check) instead of requiring live == observed,
         * and specApply() replays `live + delta` instead of `final`.
         */
        bool commutative = false;
        U256 delta;
        std::vector<CommConstraint> constraints;
    };
    struct BalanceDelta
    {
        Address addr;
        U256 observed;
        U256 final;
    };
    struct NonceDelta
    {
        Address addr;
        std::uint64_t observed = 0;
        std::uint64_t final = 0;
    };
    struct CodeDelta
    {
        Address addr;
        Bytes observed;
        Bytes final;
    };

    std::vector<Address> created; ///< accounts that did not exist before
    std::vector<StorageDelta> storage;
    std::vector<BalanceDelta> balances;
    std::vector<NonceDelta> nonces;
    std::vector<CodeDelta> codes;

    /**
     * One observed read value: the balance-slot sentinel pins the
     * account's balance and nonce, any other slot pins a storage word.
     */
    struct ReadValue
    {
        StateKey key;
        U256 word;
        std::uint64_t nonce = 0;
    };

    /**
     * The value of every tracked read (coinbase keys excluded),
     * captured from the base at speculation time. Lets a commit thread
     * validate against its live state alone — no frozen copy of the
     * pre-block state needed (specCheckLive()).
     */
    std::vector<ReadValue> readValues;
};

/**
 * Pre-execute @p tx on a fresh overlay of @p base. Deterministic: the
 * result depends only on (base, header, tx, abort), never on which
 * thread runs it or what else runs concurrently.
 *
 * @param wantTrace also capture the execution trace (consensus-stage
 *        use); the scheduling engine re-uses the shipped trace and
 *        skips this.
 * @param abort optional injected abort, armed exactly as the
 *        non-speculative path would.
 */
SpecResult speculate(const WorldState &base, const BlockHeader &header,
                     const Transaction &tx, bool wantTrace,
                     const AbortInjection *abort = nullptr);

/** Knobs for the extended speculate() overload. */
struct SpecOptions
{
    bool wantTrace = false;
    const AbortInjection *abort = nullptr;

    /**
     * Execute on the functional fast tier (direct-threaded interpreter
     * over pre-decoded bytecode) instead of the reference per-opcode
     * loop. Results are bit-identical; abort-armed runs self-delegate
     * back to the reference tier.
     */
    bool fastTier = false;

    /**
     * Optional result memo: consulted before executing and fed after.
     * A hit replays the recorded deltas without running any bytecode.
     * Ignored while an abort is armed (injected faults must execute).
     */
    MemoCache *memo = nullptr;

    /** Precomputed MemoCache::headerKey(header); zero = compute here. */
    U256 memoHeaderKey;

    /**
     * Detect commutative delta chains (DESIGN.md §14). Forces the
     * reference tier (the detector rides the per-opcode loop) and
     * makes memo lookups require commutative-annotated entries, so the
     * captured metadata is deterministic regardless of cache history.
     */
    bool commutative = false;
};

/** As speculate() above, with fast-tier and memo-cache options. */
SpecResult speculate(const WorldState &base, const BlockHeader &header,
                     const Transaction &tx, const SpecOptions &opts);

/**
 * Commit-time validation outcome, split by cause so re-executions can
 * be attributed: an exact observation no longer matching (the classic
 * miss) vs a commutative delta whose range constraints failed against
 * the live value (e.g. a balance raced to zero under a sub chain).
 */
enum class SpecVerdict
{
    Valid,
    ValidationMiss,
    BoundsMiss,
};

/**
 * True when @p live still matches every observation @p r made against
 * @p base: all read locations carry the base values, all written
 * locations carry the recorded pre-values. Coinbase keys are exempt,
 * and commutative storage deltas are validated by their recorded range
 * constraints instead of exact match.
 */
bool specValid(const SpecResult &r, const WorldState &live,
               const WorldState &base, const Address &coinbase);

/** As specValid(), but reporting the failure cause. */
SpecVerdict specCheck(const SpecResult &r, const WorldState &live,
                      const WorldState &base, const Address &coinbase);

/**
 * As specCheck(), but compares reads against the values recorded in
 * r.readValues instead of a frozen base state — the validation the
 * functional pipeline uses so it never has to copy the pre-block
 * state.
 */
SpecVerdict specCheckLive(const SpecResult &r, const WorldState &live,
                          const Address &coinbase);

/**
 * The write-side half of specValid(): true when every location @p r
 * wrote still carries the pre-value the recorded run observed in
 * @p live — except commutative deltas, which pass whenever their range
 * constraints hold. Shared with the memo cache's lookup-time
 * validation.
 */
bool specWritesMatch(const SpecResult &r, const WorldState &live,
                     const Address &coinbase);

/**
 * The commutative storage delta @p r recorded for @p k, or nullptr.
 * Read-side validation skips such keys (their only observation is the
 * chain load, which the write-side range check covers).
 */
const SpecResult::StorageDelta *
specCommutativeDelta(const SpecResult &r, const StateKey &k);

/**
 * Replay the recorded deltas into @p live through journaled setters.
 * Only call after specValid() returned true; the caller owns the
 * transaction-boundary commit()/revert() exactly as it does around
 * applyTransaction(commitState=false).
 */
void specApply(const SpecResult &r, WorldState &live,
               const Address &coinbase);

} // namespace mtpu::evm
