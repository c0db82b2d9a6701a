#include "evm/speculative.hpp"

#include <map>
#include <set>
#include <utility>

#include "evm/fast_interp.hpp"
#include "evm/memo.hpp"
#include "obs/metrics.hpp"
#include "support/thread_pool.hpp"

namespace mtpu::evm {

namespace {

/**
 * Collapse the overlay's open journal into field-level deltas: the
 * first journal entry per field carries the originally observed value,
 * the overlay itself carries the final one. Entries undone by inner
 * reverts were already popped, so the journal is exactly the net
 * mutation set.
 */
void
extractDeltas(const WorldState &overlay, SpecResult &out)
{
    using Kind = WorldState::JournalEntry::Kind;

    std::set<std::pair<Address, U256>> seen_storage;
    std::set<Address> seen_balance, seen_nonce, seen_code, seen_created;

    for (const WorldState::JournalEntry &e : overlay.journal()) {
        switch (e.kind) {
          case Kind::StorageChange:
            if (seen_storage.insert({e.address, e.slot}).second) {
                out.storage.push_back({e.address, e.slot, e.prevWord,
                                       U256()});
            }
            break;
          case Kind::BalanceChange:
            if (seen_balance.insert(e.address).second)
                out.balances.push_back({e.address, e.prevWord, U256()});
            break;
          case Kind::NonceChange:
            if (seen_nonce.insert(e.address).second)
                out.nonces.push_back({e.address, e.prevNonce, 0});
            break;
          case Kind::CodeChange:
            if (seen_code.insert(e.address).second)
                out.codes.push_back({e.address, e.prevCode, {}});
            break;
          case Kind::AccountCreated:
            if (seen_created.insert(e.address).second)
                out.created.push_back(e.address);
            break;
        }
    }

    for (auto &d : out.storage)
        d.final = overlay.storageAt(d.addr, d.slot);
    for (auto &d : out.balances)
        d.final = overlay.balance(d.addr);
    for (auto &d : out.nonces)
        d.final = overlay.nonce(d.addr);
    for (auto &d : out.codes)
        d.final = overlay.code(d.addr);
}

/**
 * Outcome of the write-side check, split for attribution: `bounds`
 * marks a commutative constraint failure, `commDiverged` marks a
 * commutative slot that moved since speculation but still validated —
 * the case exact matching would have re-executed.
 */
struct WriteCheck
{
    bool ok = true;
    bool bounds = false;
    bool commDiverged = false;
};

WriteCheck
checkWrites(const SpecResult &r, const WorldState &live,
            const Address &coinbase)
{
    WriteCheck wc;
    for (const auto &d : r.storage) {
        U256 live_v = live.storageAt(d.addr, d.slot);
        if (d.commutative) {
            if (!constraintsHold(d.constraints, live_v)) {
                wc.ok = false;
                wc.bounds = true;
                return wc;
            }
            if (live_v != d.observed)
                wc.commDiverged = true;
        } else if (live_v != d.observed) {
            wc.ok = false;
            return wc;
        }
    }
    for (const auto &d : r.balances) {
        if (isCoinbaseKey({d.addr, WorldState::kBalanceSlot}, coinbase))
            continue;
        if (live.balance(d.addr) != d.observed) {
            wc.ok = false;
            return wc;
        }
    }
    for (const auto &d : r.nonces) {
        if (live.nonce(d.addr) != d.observed) {
            wc.ok = false;
            return wc;
        }
    }
    for (const auto &d : r.codes) {
        if (live.code(d.addr) != d.observed) {
            wc.ok = false;
            return wc;
        }
    }
    return wc;
}

SpecVerdict
finishCheck(const SpecResult &r, const WorldState &live,
            const Address &coinbase)
{
    WriteCheck wc = checkWrites(r, live, coinbase);
    if (!wc.ok) {
        if (wc.bounds) {
            MTPU_OBS_COUNT("evm.spec.commutative_bounds_miss", 1);
            return SpecVerdict::BoundsMiss;
        }
        return SpecVerdict::ValidationMiss;
    }
    if (wc.commDiverged)
        MTPU_OBS_COUNT("evm.spec.commutative_hit", 1);
    MTPU_OBS_COUNT("spec.valid.pass", 1);
    return SpecVerdict::Valid;
}

/**
 * Thread-resident fast interpreter: the frame/stack arena is reused
 * across every transaction the thread speculates or re-executes, block
 * after block.
 */
FastInterpreter &
residentFastInterpreter()
{
    static thread_local FastInterpreter interp;
    return interp;
}

/** speculate() with the memo's header key already folded. */
SpecResult
speculateKeyed(const WorldState &base, const BlockHeader &header,
               const Transaction &tx, const SpecOptions &opts,
               const U256 &headerKey)
{
    SpecResult out;

    // Injected aborts must actually execute — never serve them from
    // the memo, and never record their (fault-shaped) results.
    const bool canMemo = opts.memo && !opts.abort;
    // Commutative detection rides the reference tier's tagging; an
    // abort-armed run keeps the exact class (its rolled-back chain
    // would fail the delta cross-check anyway).
    const bool detect = opts.commutative && !opts.abort;
    U256 key;
    if (canMemo) {
        key = MemoCache::txKey(headerKey, base, tx);
        if (opts.memo->lookup(key, base, header.coinbase, opts.wantTrace,
                              detect, out)) {
            MTPU_OBS_COUNT("spec.speculations", 1);
            return out;
        }
    }

    WorldState overlay;
    overlay.bindBase(&base);
    overlay.track(&out.access);

    Trace *trace = opts.wantTrace ? &out.trace : nullptr;
    CommTracker tracker;
    if (detect) {
        Interpreter interp;
        interp.setCommTracker(&tracker);
        out.receipt = interp.applyTransaction(overlay, header, tx, trace,
                                              /*commitState=*/false);
    } else if (opts.fastTier) {
        FastInterpreter &interp = residentFastInterpreter();
        if (opts.abort)
            interp.armAbort(*opts.abort);
        out.receipt = interp.applyTransaction(overlay, header, tx, trace,
                                              /*commitState=*/false);
    } else {
        Interpreter interp;
        if (opts.abort)
            interp.armAbort(*opts.abort);
        out.receipt = interp.applyTransaction(overlay, header, tx, trace,
                                              /*commitState=*/false);
    }
    overlay.track(nullptr);

    extractDeltas(overlay, out);

    // Promote journal deltas whose slot survived tracking with a clean
    // affine chain. The journal cross-check (observed/final must agree
    // exactly with the chain) keeps any tracker blind spot — partial
    // reverts, untracked write paths — in the exact class.
    if (detect) {
        for (auto &d : out.storage) {
            const CommTracker::Record *rec = tracker.find(d.addr, d.slot);
            if (rec && !rec->poisoned && rec->hasStore
                && rec->observedFirst == d.observed
                && d.final == d.observed + rec->curOff) {
                d.commutative = true;
                d.delta = rec->curOff;
                d.constraints = rec->constraints;
            }
        }
    }

    // Pin the observed value of every tracked read (the base is frozen
    // during the fan-out, so this is exactly what execution saw).
    out.readValues.reserve(out.access.reads.size());
    for (const StateKey &k : out.access.reads) {
        if (isCoinbaseKey(k, header.coinbase))
            continue;
        SpecResult::ReadValue rv;
        rv.key = k;
        if (k.slot == WorldState::kBalanceSlot) {
            rv.word = base.balance(k.address);
            rv.nonce = base.nonce(k.address);
        } else {
            rv.word = base.storageAt(k.address, k.slot);
        }
        out.readValues.push_back(std::move(rv));
    }
    out.ran = true;
    if (canMemo)
        opts.memo->insert(key, opts.wantTrace, detect, out);
    MTPU_OBS_COUNT("spec.speculations", 1);
    return out;
}

} // namespace

SpecResult
speculate(const WorldState &base, const BlockHeader &header,
          const Transaction &tx, const SpecOptions &opts)
{
    const bool canMemo = opts.memo && !opts.abort;
    return speculateKeyed(base, header, tx, opts,
                          canMemo ? MemoCache::headerKey(header) : U256());
}

const SpecResult::StorageDelta *
specCommutativeDelta(const SpecResult &r, const StateKey &k)
{
    for (const auto &d : r.storage) {
        if (d.commutative && d.addr == k.address && d.slot == k.slot)
            return &d;
    }
    return nullptr;
}


SpecVerdict
specCheckLive(const SpecResult &r, const WorldState &live,
              const Address &coinbase)
{
    // Failures are derivable: spec.valid.checks - spec.valid.pass.
    MTPU_OBS_COUNT("spec.valid.checks", 1);
    if (!r.ran)
        return SpecVerdict::ValidationMiss;
    // Every location read must still carry the value the speculation
    // observed. Balance-slot sentinels cover nonce too: the nonce
    // getter is untracked, but every nonce mutation is cross-checked
    // through the write deltas. Commutative slots are skipped here:
    // their only reads are the chain loads, which the write-side range
    // check covers.
    for (const SpecResult::ReadValue &rv : r.readValues) {
        if (rv.key.slot == WorldState::kBalanceSlot) {
            if (live.balance(rv.key.address) != rv.word
                || live.nonce(rv.key.address) != rv.nonce) {
                return SpecVerdict::ValidationMiss;
            }
        } else if (live.storageAt(rv.key.address, rv.key.slot)
                   != rv.word) {
            if (!specCommutativeDelta(r, rv.key))
                return SpecVerdict::ValidationMiss;
        }
    }
    return finishCheck(r, live, coinbase);
}

bool
specWritesMatch(const SpecResult &r, const WorldState &live,
                const Address &coinbase)
{
    // Every location written must carry the pre-value the speculation
    // observed when it first wrote it (SSTORE gas and refund paths
    // depend on the old value, so this guards the trace as well);
    // commutative deltas instead pass whenever their recorded range
    // constraints hold against the live value.
    return checkWrites(r, live, coinbase).ok;
}

void
specApply(const SpecResult &r, WorldState &live, const Address &coinbase)
{
    MTPU_OBS_COUNT("spec.applies", 1);
    for (const Address &addr : r.created)
        live.createAccount(addr);
    for (const auto &d : r.balances) {
        if (isCoinbaseKey({d.addr, WorldState::kBalanceSlot}, coinbase)) {
            // Commutative fee credit: apply the delta, not the
            // absolute value, so concurrent blocks of fees stack.
            live.addBalance(d.addr, d.final - d.observed);
        } else {
            live.setBalance(d.addr, d.final);
        }
    }
    for (const auto &d : r.nonces)
        live.setNonce(d.addr, d.final);
    for (const auto &d : r.storage) {
        if (d.commutative) {
            // Arithmetic replay: the validated constraints guarantee a
            // real re-execution at the live value would take the same
            // branches and land exactly here.
            live.setStorage(d.addr, d.slot,
                            live.storageAt(d.addr, d.slot) + d.delta);
        } else {
            live.setStorage(d.addr, d.slot, d.final);
        }
    }
    for (const auto &d : r.codes)
        live.setCode(d.addr, d.final);
}

BlockCommitter::BlockCommitter(WorldState &live, const BlockHeader &header,
                               std::vector<const Transaction *> txs,
                               const SpecOptions &opts,
                               support::ThreadPool *pool,
                               const std::map<int, AbortInjection> *aborts)
    : live_(live), header_(header), txs_(std::move(txs)), opts_(opts),
      aborts_(aborts)
{
    if (!pool || txs_.size() <= 1)
        return;
    // The fan-out is the memo's only client: one header key per block.
    SpecOptions fanout = opts_;
    fanout.fastTier = true;
    fanout.memo = &MemoCache::global();
    const U256 headerKey = MemoCache::headerKey(header_);
    spec_.resize(txs_.size());
    pool->parallelFor(txs_.size(), [&](std::size_t i) {
        SpecOptions o = fanout;
        o.abort = abortFor(i);
        spec_[i] = speculateKeyed(live_, header_, *txs_[i], o, headerKey);
    });
}

const AbortInjection *
BlockCommitter::abortFor(std::size_t i) const
{
    if (!aborts_)
        return nullptr;
    auto it = aborts_->find(int(i));
    return it == aborts_->end() ? nullptr : &it->second;
}

CommittedTx
BlockCommitter::commit(std::size_t i)
{
    CommittedTx out;
    if (i < spec_.size())
        out.verdict = specCheckLive(spec_[i], live_, header_.coinbase);
    if (out.replayed()) {
        SpecResult &sr = spec_[i];
        specApply(sr, live_, header_.coinbase);
        live_.commit();
        out.receipt = std::move(sr.receipt);
        if (!opts_.wantTrace)
            return out;
        out.trace = std::move(sr.trace);
        out.access = std::move(sr.access);
        for (SpecResult::StorageDelta &d : sr.storage) {
            if (d.commutative && out.receipt.success)
                out.commutative[{d.addr, d.slot}] = {
                    d.delta, std::move(d.constraints)};
        }
        return out;
    }

    const AbortInjection *abort = abortFor(i);
    if (opts_.fastTier && !opts_.wantTrace) {
        FastInterpreter &interp = residentFastInterpreter();
        if (abort)
            interp.armAbort(*abort);
        out.receipt = interp.applyTransaction(live_, header_, *txs_[i]);
        return out;
    }

    // The reference tier; in trace mode with access tracking and, as in
    // speculate(), the commutative detector unless an abort is armed.
    Interpreter interp;
    CommTracker tracker;
    if (abort)
        interp.armAbort(*abort);
    else if (opts_.wantTrace && opts_.commutative)
        interp.setCommTracker(&tracker);
    if (opts_.wantTrace)
        live_.track(&out.access);
    out.receipt = interp.applyTransaction(
        live_, header_, *txs_[i], opts_.wantTrace ? &out.trace : nullptr);
    live_.track(nullptr);
    // Same promotion rule as speculate(): a clean chain whose
    // committed value agrees with the tracker.
    for (const CommTracker::Record &r : tracker.records()) {
        if (out.receipt.success && !r.poisoned && r.hasStore
            && live_.storageAt(r.addr, r.slot)
                   == r.observedFirst + r.curOff) {
            out.commutative[{r.addr, r.slot}] = {r.curOff, r.constraints};
        }
    }
    return out;
}

} // namespace mtpu::evm
