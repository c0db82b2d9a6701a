/**
 * @file
 * Execution-result memo cache (DESIGN.md §13): the second cache level
 * of the functional tier. Keyed by everything a transaction's result
 * can depend on *statically* — the full block header, the callee's
 * codehash, and the transaction's sender/target/value/gas/calldata —
 * and validated at lookup time against everything it depends on
 * *dynamically*: the values the recorded execution observed for each
 * tracked read and each written location's pre-value (the same
 * machinery specCheckLive() uses at commit time, so a memo hit replays
 * exactly the deltas a fresh speculation would have produced,
 * bit-identically).
 *
 * tx.nonce is deliberately absent from the key: execution never reads
 * it (sender nonce progression flows through state and is covered by
 * the nonce write-delta check). The cache-in-front-of-a-builder
 * idiom: lookup → validate → on miss run the real speculation and
 * insert. Stale entries can only miss, never corrupt.
 *
 * Counters: evm.memo.{hit,miss,invalid} — "invalid" counts lookups
 * that found candidate entries but none whose observations still hold.
 */

#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "evm/speculative.hpp"
#include "evm/state.hpp"
#include "evm/trace.hpp"
#include "evm/types.hpp"
#include "support/u256.hpp"

namespace mtpu::evm {

/** Thread-safe LRU memo of speculative execution results. */
class MemoCache
{
  public:
    explicit MemoCache(std::size_t capacity = 4096)
        : capacity_(capacity ? capacity : 1)
    {}

    /**
     * Fold the full block header (including all recent hashes — any of
     * them is observable through BLOCKHASH) into one digest. Compute
     * once per block and pass to txKey().
     */
    static U256 headerKey(const BlockHeader &header);

    /** Memo key for @p tx executing against @p base under @p hk. */
    static U256 txKey(const U256 &hk, const WorldState &base,
                      const Transaction &tx);

    /**
     * Look up a recorded result whose observations still hold in
     * @p base. On success copies the result (and, when @p wantTrace,
     * a recorded trace — trace-less entries never satisfy a wantTrace
     * lookup) into @p out and returns true. @p wantComm lookups only
     * accept entries recorded with commutative detection, so the
     * returned metadata never depends on what else warmed the cache.
     */
    bool lookup(const U256 &key, const WorldState &base,
                const Address &coinbase, bool wantTrace, bool wantComm,
                SpecResult &out);

    /**
     * Record @p r, which speculate() just produced. The read values
     * r.readValues pinned at speculation time are what future lookups
     * re-validate against other states. @p comm marks a run executed
     * with commutative detection armed.
     */
    void insert(const U256 &key, bool hasTrace, bool comm,
                const SpecResult &r);

    std::size_t size() const;
    void clear();

    /** Process-wide instance shared by every execution path. */
    static MemoCache &global();

  private:
    struct Entry
    {
        SpecResult result; ///< trace member left empty; carries the
                           ///< pinned readValues for validation
        Trace trace;       ///< populated only when hasTrace
        bool hasTrace = false;
        bool commutative = false; ///< recorded with detection armed
        U256 obsDigest; ///< dedupe fingerprint of the observations
    };

    struct Bucket
    {
        std::vector<Entry> entries;
        std::list<U256>::iterator lru;
    };

    static constexpr std::size_t kBucketCap = 4;

    static bool entryValid(const Entry &e, const WorldState &base,
                           const Address &coinbase);

    std::size_t capacity_;
    mutable std::mutex mu_;
    std::unordered_map<U256, Bucket, U256Hash> map_;
    std::list<U256> lru_; ///< front = most recently used
};

} // namespace mtpu::evm
