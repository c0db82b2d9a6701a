/**
 * @file
 * Commutative delta class (DESIGN.md §14). Generalizes the coinbase
 * fee-credit exemption of PR 3: a storage write whose only dependence
 * on the slot's prior value is an affine add/sub chain is captured as
 * (delta, constraints) instead of (observed, final). Two speculations
 * that both increment the same slot then no longer invalidate each
 * other — commit validates the recorded branch constraints against the
 * live value (range check) and applies the delta by arithmetic replay.
 *
 * Three pieces live here, shared across evm / workload / sched / fault:
 *  - CommConstraint + evaluation/uniformity helpers: every comparison
 *    the transaction performed on the tagged chain, re-evaluated at
 *    commit (constraintsHold) or proven uniform over an interval of
 *    achievable values (constraintsUniform) at DAG-elision time.
 *  - CommTracker: per-transaction detector driven by the reference
 *    interpreter (slot-granular affine-chain tagging with poisoning).
 *  - isCoinbaseKey / conflictsExactly: the one shared definition of
 *    "commutative key" used by spec validation, the consensus access
 *    filter, the scheduler DAG and the serializability auditor.
 */

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "evm/state.hpp"
#include "evm/types.hpp"

namespace mtpu::evm {

/**
 * One comparison observed on a commutative chain. A chain operand is
 * (live + off) where `live` is the slot value at validation time; a
 * non-chain operand is the constant `off` itself. `expected` is the
 * boolean outcome the speculative run saw — validation requires the
 * same outcome so the re-played execution takes identical branches.
 */
struct CommConstraint
{
    enum class Kind : std::uint8_t
    {
        Lt,     ///< a < b (unsigned)
        Gt,     ///< a > b (unsigned)
        Slt,    ///< a < b (signed)
        Sgt,    ///< a > b (signed)
        Eq,     ///< a == b
        IsZero, ///< a == 0 (b unused)
    };

    Kind kind = Kind::Eq;
    bool aChain = false; ///< operand a is (live + aOff); else constant aOff
    bool bChain = false;
    U256 aOff;
    U256 bOff;
    bool expected = false;
};

/** Evaluate one constraint at live slot value @p live. */
bool constraintHolds(const CommConstraint &c, const U256 &live);

/** All constraints hold at @p live. */
bool constraintsHold(const std::vector<CommConstraint> &cs,
                     const U256 &live);

/**
 * All constraints hold for EVERY live value in [lo, hi] (inclusive,
 * unsigned, lo <= hi). Conservative: also rejects chains whose shifted
 * range wraps 2^256 or crosses the signed boundary under Slt/Sgt, so
 * that endpoint evaluation provably covers the interior. This is the
 * soundness gate for DAG edge elision: if a transaction's constraints
 * are uniform over every value its peers' elided deltas can produce,
 * any linear extension of the elided DAG replays bit-identically.
 */
bool constraintsUniform(const std::vector<CommConstraint> &cs,
                        const U256 &lo, const U256 &hi);

/**
 * The original commutative special case: coinbase fee credits are pure
 * balance increments, exempt from dependency analysis and validated as
 * deltas. One definition, used by spec validation (speculative.cpp),
 * the consensus access filter (workload.cpp) and the auditor.
 */
inline bool
isCoinbaseKey(const StateKey &k, const Address &coinbase)
{
    return k.address == coinbase;
}

/**
 * Per-transaction commutative-chain detector. The reference
 * interpreter drives it (Interpreter::setCommTracker): SLOAD opens a
 * record and tags the loaded stack slot, ADD/SUB extend the affine
 * chain, comparisons append constraints, SSTORE closes the loop, and
 * any other use of a tagged value poisons the record. After the run,
 * unpoisoned records with a store are commutative-delta candidates.
 */
class CommTracker
{
  public:
    struct Record
    {
        Address addr;
        U256 slot;
        U256 observedFirst; ///< value of the first SLOAD
        U256 curOff;        ///< slot's current value minus observedFirst
        bool poisoned = false;
        bool hasStore = false;
        std::vector<CommConstraint> constraints;
    };

    /**
     * Register an SLOAD. Returns the record index to tag the pushed
     * stack slot with, or -1 when the record is poisoned. Re-loads
     * cross-check @p value against the chain (observedFirst + curOff);
     * any mismatch — e.g. a write this tracker did not see — poisons.
     */
    int load(const Address &addr, const U256 &slot, const U256 &value);

    /**
     * Register an SSTORE of a value tagged @p valRecord (-1 untagged)
     * with chain offset @p valOff, over current value @p cur. Only a
     * store whose value continues the slot's own chain keeps the
     * record clean; everything else poisons (and a tagged value
     * aimed at a different slot poisons its source record too).
     */
    void store(const Address &addr, const U256 &slot, const U256 &cur,
               int valRecord, const U256 &valOff);

    /** Poison record @p idx (no-op for idx < 0). */
    void poison(int idx);

    /** Poison whatever record exists for (addr, slot), creating one. */
    void poisonSlot(const Address &addr, const U256 &slot);

    /** Append a constraint to record @p idx (no-op when poisoned). */
    void addConstraint(int idx, const CommConstraint &c);

    Record *
    at(int idx)
    {
        return idx >= 0 && std::size_t(idx) < records_.size()
                   ? &records_[std::size_t(idx)]
                   : nullptr;
    }

    const Record *find(const Address &addr, const U256 &slot) const;

    const std::vector<Record> &records() const { return records_; }

  private:
    int lookupOrCreate(const Address &addr, const U256 &slot);

    std::vector<Record> records_;
    std::map<StateKey, int> index_;
};

/**
 * Like AccessSet::conflictsWith, but forgives keys both sides declare
 * commutative (AccessSet::commutative): two transactions whose only
 * overlap on a slot is commutative delta traffic are independent —
 * their DAG edge can be elided. A plain reader or exact writer of the
 * slot never has it in its commutative set, so those edges survive.
 * Keys in @p unforgivable never take the exemption: runs under an
 * abort plan pin every key an abort victim writes back into program
 * order (fault::abortVeto).
 */
bool conflictsExactly(const AccessSet &a, const AccessSet &b,
                      const std::set<StateKey> &unforgivable);

} // namespace mtpu::evm
