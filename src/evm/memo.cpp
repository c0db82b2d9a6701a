#include "evm/memo.hpp"

#include "obs/metrics.hpp"
#include "support/keccak.hpp"

namespace mtpu::evm {

U256
MemoCache::headerKey(const BlockHeader &header)
{
    U256 acc = keccak256Pair(U256(header.height), U256(header.timestamp));
    acc = keccak256Pair(acc, header.coinbase);
    acc = keccak256Pair(acc, header.difficulty);
    acc = keccak256Pair(acc, U256(header.gasLimit));
    for (const U256 &h : header.recentHashes)
        acc = keccak256Pair(acc, h);
    return acc;
}

U256
MemoCache::txKey(const U256 &hk, const WorldState &base,
                 const Transaction &tx)
{
    U256 acc = keccak256Pair(hk, base.codeHash(tx.to));
    acc = keccak256Pair(acc, tx.from);
    acc = keccak256Pair(acc, tx.to);
    acc = keccak256Pair(acc, tx.callValue);
    acc = keccak256Pair(acc, U256(tx.gasLimit));
    acc = keccak256Pair(acc, tx.gasPrice);
    acc = keccak256Pair(acc, keccak256Word(tx.data));
    return acc;
}

bool
MemoCache::entryValid(const Entry &e, const WorldState &base,
                      const Address &coinbase)
{
    // Every tracked read must see the same value the recorded run saw;
    // balance-slot observations pin the nonce too (same coverage
    // argument as specCheckLive). Then the write-side pre-value checks are
    // shared verbatim with the commit-time validator.
    for (const SpecResult::ReadValue &o : e.result.readValues) {
        if (o.key.slot == WorldState::kBalanceSlot) {
            if (base.balance(o.key.address) != o.word
                || base.nonce(o.key.address) != o.nonce) {
                return false;
            }
        } else if (base.storageAt(o.key.address, o.key.slot) != o.word) {
            // A commutative slot may have moved; its range constraints
            // (checked in specWritesMatch below) decide validity.
            if (!specCommutativeDelta(e.result, o.key))
                return false;
        }
    }
    return specWritesMatch(e.result, base, coinbase);
}

bool
MemoCache::lookup(const U256 &key, const WorldState &base,
                  const Address &coinbase, bool wantTrace, bool wantComm,
                  SpecResult &out)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
        MTPU_OBS_COUNT("evm.memo.miss", 1);
        return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    for (const Entry &e : it->second.entries) {
        if (wantTrace && !e.hasTrace)
            continue;
        if (wantComm && !e.commutative)
            continue;
        if (!entryValid(e, base, coinbase))
            continue;
        MTPU_OBS_COUNT("evm.memo.hit", 1);
        out = e.result;
        if (wantTrace)
            out.trace = e.trace;
        return true;
    }
    MTPU_OBS_COUNT("evm.memo.invalid", 1);
    return false;
}

void
MemoCache::insert(const U256 &key, bool hasTrace, bool comm,
                  const SpecResult &r)
{
    if (!r.ran)
        return;

    Entry e;
    e.result = r;
    e.result.trace = Trace(); // traces are stored out-of-band
    e.commutative = comm;
    if (hasTrace) {
        e.trace = r.trace;
        e.hasTrace = true;
    }

    // Observation fingerprint: execution is a deterministic function of
    // the key inputs plus these observed values, so two entries with
    // equal digests are the same result.
    U256 dg;
    for (const SpecResult::ReadValue &o : e.result.readValues) {
        dg = keccak256Pair(dg, o.key.address);
        dg = keccak256Pair(dg, o.key.slot);
        dg = keccak256Pair(dg, o.word);
        dg = keccak256Pair(dg, U256(o.nonce));
    }
    for (const auto &d : r.storage)
        dg = keccak256Pair(dg, d.observed);
    for (const auto &d : r.balances)
        dg = keccak256Pair(dg, d.observed);
    for (const auto &d : r.nonces)
        dg = keccak256Pair(dg, U256(d.observed));
    for (const auto &d : r.codes)
        dg = keccak256Pair(dg, keccak256Word(d.observed));
    e.obsDigest = dg;

    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
        lru_.push_front(key);
        it = map_.emplace(key, Bucket{{}, lru_.begin()}).first;
    } else {
        lru_.splice(lru_.begin(), lru_, it->second.lru);
    }
    Bucket &bucket = it->second;
    for (Entry &existing : bucket.entries) {
        if (existing.obsDigest == e.obsDigest) {
            // Equal digests are the same result; upgrade the existing
            // entry field-wise with whatever the new one adds.
            if (hasTrace && !existing.hasTrace) {
                existing.trace = std::move(e.trace);
                existing.hasTrace = true;
            }
            if (comm && !existing.commutative) {
                existing.result = std::move(e.result);
                existing.commutative = true;
            }
            return;
        }
    }
    if (bucket.entries.size() >= kBucketCap)
        bucket.entries.erase(bucket.entries.begin());
    bucket.entries.push_back(std::move(e));

    while (map_.size() > capacity_) {
        map_.erase(lru_.back());
        lru_.pop_back();
    }
}

std::size_t
MemoCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

void
MemoCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    lru_.clear();
}

MemoCache &
MemoCache::global()
{
    static MemoCache cache;
    return cache;
}

} // namespace mtpu::evm
