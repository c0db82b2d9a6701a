#include "evm/state.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "support/keccak.hpp"
#include "support/rlp.hpp"

namespace mtpu::evm {

const U256 WorldState::kBalanceSlot = U256::max();

namespace {

// State commitment (DESIGN.md §16). The bucket count and key are part
// of the digest's definition, not a tuning knob.
constexpr std::size_t kBuckets = 256;

std::size_t
bucketOf(const U256 &slot)
{
    return std::size_t(slot.low64() & 0xff);
}

/** Work one digest() call did, for the obs counters. */
struct DigestCost
{
    std::uint64_t permutations = 0;
    std::uint64_t buckets = 0;
};

/** keccak256 of @p len bytes, counting its keccak-f permutations. */
U256
hashCounted(const std::uint8_t *data, std::size_t len, DigestCost &cost)
{
    constexpr std::size_t rate = 136;
    std::uint8_t out[32];
    keccak256(data, len, out);
    cost.permutations += len / rate + 1;
    return U256::fromBytes(out, 32);
}

const U256 &
emptyBucketHash()
{
    static const U256 h = keccak256Word({});
    return h;
}

const U256 &
emptyStorageRoot()
{
    static const U256 h = [] {
        Bytes buf(kBuckets * 32);
        for (std::size_t b = 0; b < kBuckets; ++b)
            emptyBucketHash().toBytes(buf.data() + b * 32);
        return keccak256Word(buf);
    }();
    return h;
}

/**
 * Root over the 256 bucket hashes; rehashes only the buckets whose
 * cache bit is clear. Finding their slots is one pass over the
 * storage map (no hashing), gathering the stale buckets' pairs.
 */
U256
storageRoot(const Account &acct, DigestCost &cost)
{
    CommitCache &c = acct.commit;
    if (acct.storage.empty())
        return emptyStorageRoot();
    if (c.rootFresh)
        return c.storageRoot;
    if (c.bucketHash.empty()) {
        c.bucketHash.resize(kBuckets);
        c.freshBuckets.reset();
    }

    struct Entry
    {
        std::size_t bucket;
        const U256 *slot;
        const U256 *value;
    };
    std::vector<Entry> stale;
    for (const auto &[slot, value] : acct.storage) {
        const std::size_t b = bucketOf(slot);
        if (!c.freshBuckets.test(b) && !value.isZero())
            stale.push_back({b, &slot, &value});
    }
    std::sort(stale.begin(), stale.end(),
              [](const Entry &a, const Entry &b) {
        if (a.bucket != b.bucket)
            return a.bucket < b.bucket;
        return *a.slot < *b.slot;
    });

    Bytes pairs;
    auto next = stale.begin();
    for (std::size_t b = 0; b < kBuckets; ++b) {
        if (c.freshBuckets.test(b))
            continue;
        pairs.clear();
        for (; next != stale.end() && next->bucket == b; ++next) {
            const std::size_t at = pairs.size();
            pairs.resize(at + 64);
            next->slot->toBytes(pairs.data() + at);
            next->value->toBytes(pairs.data() + at + 32);
        }
        c.bucketHash[b] = pairs.empty()
                              ? emptyBucketHash()
                              : hashCounted(pairs.data(), pairs.size(),
                                            cost);
        c.freshBuckets.set(b);
        ++cost.buckets;
    }

    std::uint8_t roots[kBuckets * 32];
    for (std::size_t b = 0; b < kBuckets; ++b)
        c.bucketHash[b].toBytes(roots + b * 32);
    c.storageRoot = hashCounted(roots, sizeof(roots), cost);
    c.rootFresh = true;
    return c.storageRoot;
}

/** keccak(nonce || balance || codeHash || storage root). */
const U256 &
commitment(const Account &acct, DigestCost &cost)
{
    CommitCache &c = acct.commit;
    if (c.commitmentFresh)
        return c.commitment;
    std::uint8_t buf[128];
    U256(acct.nonce).toBytes(buf);
    acct.balance.toBytes(buf + 32);
    // Code-less accounts commit to a zero code hash however they got
    // there, so fromRlp(toRlp()) keeps the digest.
    (acct.code.empty() ? U256() : acct.codeHash).toBytes(buf + 64);
    storageRoot(acct, cost).toBytes(buf + 96);
    c.commitment = hashCounted(buf, sizeof(buf), cost);
    c.commitmentFresh = true;
    return c.commitment;
}

using AccountEntry = std::pair<const U256, Account>;

/** The accounts in address order, so nothing depends on hash order. */
std::vector<const AccountEntry *>
sortedAccounts(const std::unordered_map<U256, Account, U256Hash> &accounts)
{
    std::vector<const AccountEntry *> sorted;
    sorted.reserve(accounts.size());
    for (const auto &entry : accounts)
        sorted.push_back(&entry);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto *a, const auto *b) {
        return a->first < b->first;
    });
    return sorted;
}

/** Content sizes of an account's RLP list and of its slot list. */
struct AccountRlpSize
{
    std::size_t fields = 0;
    std::size_t slots = 0;
};

AccountRlpSize
accountRlpSize(const AccountEntry &entry)
{
    const Account &acct = entry.second;
    AccountRlpSize size;
    for (const auto &[slot, value] : acct.storage)
        size.slots +=
            rlp::listSize(rlp::wordSize(slot) + rlp::wordSize(value));
    size.fields = rlp::wordSize(entry.first)
                + rlp::wordSize(U256(acct.nonce))
                + rlp::wordSize(acct.balance)
                + rlp::bytesSize(acct.code.data(), acct.code.size())
                + rlp::listSize(size.slots);
    return size;
}

} // namespace

bool
AccessSet::conflictsWith(const AccessSet &other) const
{
    auto intersects = [](const std::set<StateKey> &a,
                         const std::set<StateKey> &b) {
        auto ia = a.begin();
        auto ib = b.begin();
        while (ia != a.end() && ib != b.end()) {
            if (*ia < *ib)
                ++ia;
            else if (*ib < *ia)
                ++ib;
            else
                return true;
        }
        return false;
    };
    return intersects(writes, other.writes) || intersects(writes, other.reads)
        || intersects(reads, other.writes);
}

const Account *
WorldState::find(const Address &addr) const
{
    auto it = accounts_.find(addr);
    return it == accounts_.end() ? nullptr : &it->second;
}

const Account *
WorldState::findThrough(const Address &addr) const
{
    if (const Account *local = find(addr))
        return local;
    return base_ ? base_->find(addr) : nullptr;
}

Account &
WorldState::touch(const Address &addr)
{
    auto it = accounts_.find(addr);
    if (it == accounts_.end()) {
        if (base_) {
            if (const Account *b = base_->find(addr)) {
                // Materialize a local copy-on-write account: scalars
                // and code are copied, storage stays a local diff that
                // falls through to the base. The account logically
                // already exists, so nothing is journaled.
                Account copy;
                copy.nonce = b->nonce;
                copy.balance = b->balance;
                copy.code = b->code;
                copy.codeHash = b->codeHash;
                copy.baseBacked = true;
                return accounts_.emplace(addr, std::move(copy))
                    .first->second;
            }
        }
        journal_.push_back({JournalEntry::Kind::AccountCreated, addr,
                            U256(), U256(), 0, {}, U256()});
        it = accounts_.emplace(addr, Account{}).first;
        digestFresh_ = false;
    }
    return it->second;
}

void
WorldState::dirtyAccount(Account &acct)
{
    acct.commit.commitmentFresh = false;
    digestFresh_ = false;
}

void
WorldState::dirtySlot(Account &acct, const U256 &slot)
{
    acct.commit.freshBuckets.reset(bucketOf(slot));
    acct.commit.rootFresh = false;
    dirtyAccount(acct);
}

void
WorldState::noteRead(const Address &addr, const U256 &slot) const
{
    if (tracker_)
        tracker_->reads.insert({addr, slot});
}

void
WorldState::noteWrite(const Address &addr, const U256 &slot) const
{
    if (tracker_)
        tracker_->writes.insert({addr, slot});
}

bool
WorldState::exists(const Address &addr) const
{
    return findThrough(addr) != nullptr;
}

U256
WorldState::balance(const Address &addr) const
{
    noteRead(addr, kBalanceSlot);
    const Account *acct = findThrough(addr);
    return acct ? acct->balance : U256();
}

std::uint64_t
WorldState::nonce(const Address &addr) const
{
    const Account *acct = findThrough(addr);
    return acct ? acct->nonce : 0;
}

const Bytes &
WorldState::code(const Address &addr) const
{
    static const Bytes empty;
    const Account *acct = findThrough(addr);
    return acct ? acct->code : empty;
}

U256
WorldState::codeHash(const Address &addr) const
{
    const Account *acct = findThrough(addr);
    return acct ? acct->codeHash : U256();
}

U256
WorldState::peekStorage(const Address &addr, const U256 &slot) const
{
    const Account *local = find(addr);
    if (local) {
        auto it = local->storage.find(slot);
        if (it != local->storage.end())
            return it->second;
        if (!local->baseBacked)
            return U256();
        // Base-backed local diff: untouched slots live in the base.
    } else if (!base_) {
        return U256();
    }
    const Account *b = base_ ? base_->find(addr) : nullptr;
    if (!b)
        return U256();
    auto it = b->storage.find(slot);
    return it == b->storage.end() ? U256() : it->second;
}

U256
WorldState::storageAt(const Address &addr, const U256 &slot) const
{
    noteRead(addr, slot);
    return peekStorage(addr, slot);
}

void
WorldState::createAccount(const Address &addr)
{
    touch(addr);
}

void
WorldState::setBalance(const Address &addr, const U256 &value)
{
    noteWrite(addr, kBalanceSlot);
    Account &acct = touch(addr);
    journal_.push_back({JournalEntry::Kind::BalanceChange, addr, U256(),
                        acct.balance, 0, {}, U256()});
    acct.balance = value;
    dirtyAccount(acct);
}

void
WorldState::addBalance(const Address &addr, const U256 &delta)
{
    // Zero-delta transfers (the common case for contract calls) leave
    // no trace: no journal entry and no read/write-set entry, so they
    // cannot manufacture spurious inter-transaction dependencies.
    if (delta.isZero())
        return;
    setBalance(addr, balance(addr) + delta);
}

bool
WorldState::subBalance(const Address &addr, const U256 &delta)
{
    if (delta.isZero())
        return true;
    U256 cur = balance(addr);
    if (cur < delta)
        return false;
    setBalance(addr, cur - delta);
    return true;
}

void
WorldState::setNonce(const Address &addr, std::uint64_t nonce)
{
    Account &acct = touch(addr);
    journal_.push_back({JournalEntry::Kind::NonceChange, addr, U256(),
                        U256(), acct.nonce, {}, U256()});
    acct.nonce = nonce;
    dirtyAccount(acct);
}

void
WorldState::incNonce(const Address &addr)
{
    setNonce(addr, nonce(addr) + 1);
}

void
WorldState::setCode(const Address &addr, Bytes code)
{
    Account &acct = touch(addr);
    journal_.push_back({JournalEntry::Kind::CodeChange, addr, U256(),
                        U256(), 0, acct.code, acct.codeHash});
    acct.codeHash = keccak256Word(code);
    acct.code = std::move(code);
    dirtyAccount(acct);
}

void
WorldState::setStorage(const Address &addr, const U256 &slot,
                       const U256 &value)
{
    noteWrite(addr, slot);
    Account &acct = touch(addr);
    U256 prev = peekStorage(addr, slot);
    journal_.push_back({JournalEntry::Kind::StorageChange, addr, slot,
                        prev, 0, {}, U256()});
    dirtySlot(acct, slot);
    if (acct.baseBacked) {
        // The local map is a diff over the base: zeros must be stored
        // explicitly, or the read would fall through to a stale base
        // value.
        acct.storage[slot] = value;
    } else if (value.isZero()) {
        acct.storage.erase(slot);
    } else {
        acct.storage[slot] = value;
    }
}

U256
WorldState::digest() const
{
    if (base_)
        throw std::logic_error("WorldState::digest: overlay");
    MTPU_OBS_COUNT("evm.digest_calls", 1);
    if (digestFresh_)
        return digest_;

    // Fold (address || commitment) in address order.
    const auto sorted = sortedAccounts(accounts_);
    DigestCost cost;
    Bytes buf(sorted.size() * 64);
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        sorted[i]->first.toBytes(buf.data() + i * 64);
        commitment(sorted[i]->second, cost)
            .toBytes(buf.data() + i * 64 + 32);
    }
    digest_ = hashCounted(buf.data(), buf.size(), cost);
    digestFresh_ = true;
    MTPU_OBS_COUNT("evm.keccak_permutations", cost.permutations);
    MTPU_OBS_COUNT("evm.digest_buckets_rehashed", cost.buckets);
    return digest_;
}

Bytes
WorldState::toRlp() const
{
    Bytes out;
    out.reserve(rlpSize());
    appendRlp(out);
    return out;
}

std::size_t
WorldState::rlpSize() const
{
    std::size_t payload = 0;
    for (const auto &entry : accounts_)
        payload += rlp::listSize(accountRlpSize(entry).fields);
    return rlp::listSize(payload);
}

void
WorldState::appendRlp(Bytes &out) const
{
    // Serialization is only defined for a settled, standalone state:
    // an overlay's accounts are a partial diff and an open journal
    // means a transaction is mid-flight.
    if (base_ || !journal_.empty())
        throw std::logic_error(
            "WorldState::toRlp: overlay or open journal");

    // Accounts and slots in sorted order, each list header written
    // from sizes computed up front, straight into @p out: the state is
    // the largest thing the program serializes.
    const auto sorted = sortedAccounts(accounts_);
    std::vector<AccountRlpSize> sizes;
    sizes.reserve(sorted.size());
    std::size_t payload = 0;
    for (const auto *entry : sorted) {
        sizes.push_back(accountRlpSize(*entry));
        payload += rlp::listSize(sizes.back().fields);
    }
    rlp::appendListHeader(out, payload);

    std::vector<const std::pair<const U256, U256> *> slots;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        const Account &acct = sorted[i]->second;
        rlp::appendListHeader(out, sizes[i].fields);
        rlp::appendWord(out, sorted[i]->first);
        rlp::appendWord(out, U256(acct.nonce));
        rlp::appendWord(out, acct.balance);
        rlp::appendBytes(out, acct.code.data(), acct.code.size());
        rlp::appendListHeader(out, sizes[i].slots);
        slots.clear();
        for (const auto &slot : acct.storage)
            slots.push_back(&slot);
        std::sort(slots.begin(), slots.end(),
                  [](const auto *a, const auto *b) {
            return a->first < b->first;
        });
        for (const auto *slot : slots) {
            rlp::appendListHeader(out, rlp::wordSize(slot->first)
                                           + rlp::wordSize(slot->second));
            rlp::appendWord(out, slot->first);
            rlp::appendWord(out, slot->second);
        }
    }
}

WorldState
WorldState::fromRlp(const Bytes &encoded)
{
    return fromRlp(encoded.data(), encoded.size());
}

WorldState
WorldState::fromRlp(const std::uint8_t *data, std::size_t len)
{
    // Read item by item: an rlp::Item tree of a large state costs
    // several times the encoding in memory.
    rlp::Reader top(data, len);
    if (!top.nextIsList())
        throw std::invalid_argument("WorldState::fromRlp: bad shape");
    rlp::Reader accounts = top.list();
    if (!top.atEnd())
        throw std::invalid_argument("WorldState::fromRlp: trailing bytes");

    auto field = [](rlp::Reader &r) -> rlp::Reader & {
        if (r.atEnd() || r.nextIsList())
            throw std::invalid_argument(
                "WorldState::fromRlp: bad account");
        return r;
    };
    WorldState state;
    while (!accounts.atEnd()) {
        if (!accounts.nextIsList())
            throw std::invalid_argument(
                "WorldState::fromRlp: bad account");
        rlp::Reader item = accounts.list();
        Address addr = field(item).word();
        if (state.accounts_.count(addr))
            throw std::invalid_argument(
                "WorldState::fromRlp: duplicate account");
        Account acct;
        acct.nonce = field(item).word().low64();
        acct.balance = field(item).word();
        const auto [code, code_len] = field(item).bytes();
        acct.code.assign(code, code + code_len);
        acct.codeHash = acct.code.empty() ? U256()
                                          : keccak256Word(acct.code);
        if (item.atEnd() || !item.nextIsList())
            throw std::invalid_argument(
                "WorldState::fromRlp: bad account");
        rlp::Reader slots = item.list();
        if (!item.atEnd())
            throw std::invalid_argument(
                "WorldState::fromRlp: bad account");
        U256 prev_slot;
        bool first = true;
        while (!slots.atEnd()) {
            if (!slots.nextIsList())
                throw std::invalid_argument(
                    "WorldState::fromRlp: bad slot");
            rlp::Reader pair = slots.list();
            U256 slot = pair.word();
            U256 value = pair.word();
            if (!pair.atEnd())
                throw std::invalid_argument(
                    "WorldState::fromRlp: bad slot");
            if (!first && !(prev_slot < slot))
                throw std::invalid_argument(
                    "WorldState::fromRlp: unsorted slots");
            if (value.isZero())
                throw std::invalid_argument(
                    "WorldState::fromRlp: zero-valued slot");
            acct.storage.emplace(slot, value);
            prev_slot = slot;
            first = false;
        }
        state.accounts_.emplace(addr, std::move(acct));
    }
    return state;
}

void
WorldState::revert(Snapshot snap)
{
    while (journal_.size() > snap) {
        JournalEntry &e = journal_.back();
        auto it = accounts_.find(e.address);
        if (it != accounts_.end()) {
            Account &acct = it->second;
            switch (e.kind) {
              case JournalEntry::Kind::StorageChange:
                dirtySlot(acct, e.slot);
                if (acct.baseBacked)
                    acct.storage[e.slot] = e.prevWord;
                else if (e.prevWord.isZero())
                    acct.storage.erase(e.slot);
                else
                    acct.storage[e.slot] = e.prevWord;
                break;
              case JournalEntry::Kind::BalanceChange:
                acct.balance = e.prevWord;
                dirtyAccount(acct);
                break;
              case JournalEntry::Kind::NonceChange:
                acct.nonce = e.prevNonce;
                dirtyAccount(acct);
                break;
              case JournalEntry::Kind::CodeChange:
                dirtyAccount(acct);
                // The hash was journaled with the code: undo restores
                // the cached value instead of rehashing the bytecode.
                acct.codeHash = e.prevCodeHash;
                acct.code = std::move(e.prevCode);
                break;
              case JournalEntry::Kind::AccountCreated:
                accounts_.erase(it);
                digestFresh_ = false;
                break;
            }
        }
        journal_.pop_back();
    }
}

} // namespace mtpu::evm
