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
 * Later, a single-owner commit thread calls specCheckLive() to check
 * that the live state still matches every observation (reads compared
 * against the values pinned at speculation time, writes against the
 * recorded pre-values), and on success specApply() replays the deltas
 * through the live state's journaled setters — bit-identical to
 * re-executing the transaction, at a fraction of the cost. On a
 * validation miss the caller simply re-executes; the speculation is
 * discarded. BlockCommitter runs that loop for a whole block.
 *
 * Coinbase fee accounting is treated as commutative, exactly as the
 * consensus-stage dependency analysis already does: coinbase keys are
 * excluded from validation and the coinbase balance is applied as a
 * delta (addBalance), so back-to-back fee credits never invalidate
 * otherwise-independent speculations.
 */

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "evm/commutative.hpp"
#include "evm/interpreter.hpp"
#include "evm/state.hpp"
#include "evm/trace.hpp"
#include "evm/types.hpp"

namespace mtpu::support {
class ThreadPool;
}

namespace mtpu::evm {

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

/** Knobs for speculate(). */
struct SpecOptions
{
    /** Also capture the execution trace (consensus-stage use). */
    bool wantTrace = false;
    /** Optional injected abort, armed exactly as a plain run would. */
    const AbortInjection *abort = nullptr;

    /**
     * Execute on the functional fast tier (direct-threaded interpreter
     * over pre-decoded bytecode) instead of the reference per-opcode
     * loop. Results are bit-identical; traced and abort-armed runs
     * stay on the reference tier, which alone has per-instruction
     * hooks.
     */
    bool fastTier = false;

    /**
     * Detect commutative delta chains (DESIGN.md §14). Forces the
     * reference tier (the detector rides the per-opcode loop).
     */
    bool commutative = false;
};

/**
 * Pre-execute @p tx on a fresh overlay of @p base. Deterministic: the
 * result depends only on (base, header, tx, opts), never on which
 * thread runs it, what else runs concurrently or what ran before.
 * No result is looked up or recorded outside the returned one, so
 * concurrent calls share nothing but the fast tier's DecodeCache.
 */
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
 * Valid when @p live still matches every observation of @p r: each
 * read carries the value pinned in r.readValues, each written location
 * the recorded pre-value. Coinbase keys are exempt, and commutative
 * storage deltas are validated by their range constraints instead.
 */
SpecVerdict specCheckLive(const SpecResult &r, const WorldState &live,
                          const Address &coinbase);

/**
 * The write-side half of specCheckLive(): true when every location @p r
 * wrote still carries the pre-value the recorded run observed in
 * @p live — except commutative deltas, which pass whenever their range
 * constraints hold.
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
 * Only call after specCheckLive() returned Valid; the caller owns the
 * transaction-boundary commit()/revert() exactly as it does around
 * applyTransaction(commitState=false).
 */
void specApply(const SpecResult &r, WorldState &live,
               const Address &coinbase);

/** A commutative storage write: its delta and its chain's branches. */
struct CommTag
{
    U256 delta;
    std::vector<CommConstraint> constraints;
};

/** One transaction committed by BlockCommitter::commit(). */
struct CommittedTx
{
    Receipt receipt;
    /** The speculation's verdict; empty when there was none. */
    std::optional<SpecVerdict> verdict;

    // Trace mode (SpecOptions::wantTrace) only:
    Trace trace;
    AccessSet access; ///< unfiltered (coinbase keys included)
    /** A successful transaction's commutative storage writes. */
    std::map<StateKey, CommTag> commutative;

    bool replayed() const { return verdict == SpecVerdict::Valid; }
};

/**
 * The one speculate/validate/commit path (DESIGN.md §9), shared by the
 * consensus stage, the engine, the functional pipeline and the audit
 * replays.
 *
 * With a pool and more than one transaction, construction speculates
 * every transaction against @p live on the pool (fast tier, each
 * speculation executed afresh; no result is cached or reused):
 * @p live is only read until the first commit(), so no frozen copy of
 * it is needed. commit(i) then replays the speculation of transaction
 * i if specCheckLive() passes, and re-executes it on @p live
 * otherwise: on the tier SpecOptions::fastTier picks, or on the
 * reference tier when an abort is armed or in trace mode (there with
 * access tracking and the commutative detector). State, receipts, traces and access sets are bit-identical
 * to sequential execution in commit order, whatever the pool or tier.
 * The caller picks the order; each index commits at most once.
 */
class BlockCommitter
{
  public:
    /**
     * @param opts reads wantTrace (trace mode), commutative and
     *        fastTier (the re-execution tier; speculations run on the
     *        fast tier unless a trace, commutative tagging or an armed
     *        abort needs the reference tier).
     * @param aborts injected aborts by transaction index, armed on the
     *        speculation and on any re-execution of that transaction.
     */
    BlockCommitter(WorldState &live, const BlockHeader &header,
                   std::vector<const Transaction *> txs,
                   const SpecOptions &opts = {},
                   support::ThreadPool *pool = nullptr,
                   const std::map<int, AbortInjection> *aborts = nullptr);

    CommittedTx commit(std::size_t i);

  private:
    const AbortInjection *abortFor(std::size_t i) const;

    WorldState &live_;
    const BlockHeader &header_;
    std::vector<const Transaction *> txs_;
    SpecOptions opts_;
    const std::map<int, AbortInjection> *aborts_;
    std::vector<SpecResult> spec_; ///< empty without a fan-out
};

} // namespace mtpu::evm
