/**
 * @file
 * World state: accounts (nonce, balance, code, storage) with snapshot /
 * revert journaling for nested calls and aborted transactions, plus
 * read/write-set tracking used to extract the inter-transaction
 * dependency DAG in the consensus stage (§2.2.2).
 */

#pragma once

#include <bitset>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "evm/types.hpp"
#include "support/u256.hpp"

namespace mtpu::evm {

/**
 * Cached pieces of one account's state commitment (DESIGN.md §16).
 * Filled by WorldState::digest(), cleared by the journaled setters and
 * revert() that change what they cover; never part of consensus data.
 */
struct CommitCache
{
    /** Storage buckets (slot low byte) whose bucketHash is current. */
    std::bitset<256> freshBuckets;
    /** One hash per bucket; allocated on the first warm of a non-empty
     *  storage, so accounts without storage carry no table. */
    std::vector<U256> bucketHash;
    U256 storageRoot;
    U256 commitment;
    bool rootFresh = false;
    bool commitmentFresh = false;
};

/** One account's persistent state (Table 4 "State"). */
struct Account
{
    std::uint64_t nonce = 0;
    U256 balance;
    Bytes code;
    U256 codeHash;
    std::unordered_map<U256, U256, U256Hash> storage;

    /**
     * Overlay metadata: the account was materialized from the overlay
     * base on first write, and its storage map holds only the slots
     * written locally — reads of other slots fall through to the base
     * state. Always false outside overlay states.
     */
    bool baseBacked = false;

    /** Commitment cache; copied with the account (warm copies). */
    mutable CommitCache commit;

    bool isContract() const { return !code.empty(); }
};

/** A (address, storage-slot) location; balance reads use slot = MAX. */
struct StateKey
{
    Address address;
    U256 slot;

    bool
    operator<(const StateKey &o) const
    {
        if (address != o.address)
            return address < o.address;
        return slot < o.slot;
    }
    bool
    operator==(const StateKey &o) const
    {
        return address == o.address && slot == o.slot;
    }
};

/** Read/write sets of one transaction, for dependency analysis. */
struct AccessSet
{
    std::set<StateKey> reads;
    std::set<StateKey> writes;

    /**
     * Keys this transaction touches only through a validated
     * commutative delta chain (subset of reads/writes). Filled by the
     * consensus stage's commutativity classifier; conflictsExactly()
     * in evm/commutative.hpp forgives overlaps where both sides agree.
     */
    std::set<StateKey> commutative;

    /** True if this set conflicts (RW/WR/WW) with @p other. */
    bool conflictsWith(const AccessSet &other) const;
};

/**
 * The replicated world state.
 *
 * Mutations go through journaled setters so that any prefix of changes
 * can be rolled back — used for REVERT, out-of-gas aborts, and the
 * discard-on-exception behaviour of the State Buffer (§3.3.6).
 */
class WorldState
{
  public:
    /** Sentinel slot used in access sets for balance/nonce accesses. */
    static const U256 kBalanceSlot;

    // -- reads --------------------------------------------------------
    bool exists(const Address &addr) const;
    U256 balance(const Address &addr) const;
    std::uint64_t nonce(const Address &addr) const;
    const Bytes &code(const Address &addr) const;
    U256 codeHash(const Address &addr) const;
    U256 storageAt(const Address &addr, const U256 &slot) const;

    // -- journaled writes ----------------------------------------------
    void createAccount(const Address &addr);
    void setBalance(const Address &addr, const U256 &value);
    void addBalance(const Address &addr, const U256 &delta);
    /** @return false when the balance is insufficient. */
    bool subBalance(const Address &addr, const U256 &delta);
    void setNonce(const Address &addr, std::uint64_t nonce);
    void incNonce(const Address &addr);
    void setCode(const Address &addr, Bytes code);
    void setStorage(const Address &addr, const U256 &slot,
                    const U256 &value);

    // -- snapshots ------------------------------------------------------
    using Snapshot = std::size_t;
    Snapshot snapshot() const { return journal_.size(); }
    void revert(Snapshot snap);
    /** Drop journal history (transaction boundary). */
    void commit() { journal_.clear(); }
    /**
     * commit() and free the journal's storage, which commit() keeps
     * for the next transaction: for a state built by one long run of
     * writes (a genesis) that will not journal that much again.
     */
    void commitAndRelease() { std::vector<JournalEntry>().swap(journal_); }

    // -- copy-on-write overlay -------------------------------------------
    /**
     * Turn this (empty, freshly constructed) state into a journaled
     * copy-on-write overlay of @p base: reads of untouched accounts and
     * slots fall through to the base, writes materialize per-account
     * local copies (scalars and code are copied, storage stays a local
     * diff). The base is only read, never mutated, so many overlays of
     * the same base can execute concurrently — this is what gives
     * speculative pre-execution per-transaction isolation.
     *
     * The overlay's journal records exactly the fields the execution
     * mutated with the values it observed before mutating them, which
     * the speculative executor turns into a validatable delta set.
     * digest() is not defined on an overlay.
     */
    void
    bindBase(const WorldState *base)
    {
        accounts_.clear();
        journal_.clear();
        base_ = base;
        digestFresh_ = false;
    }

    // -- access tracking -------------------------------------------------
    /** Begin recording reads/writes into @p sink (nullptr stops). */
    void track(AccessSet *sink) { tracker_ = sink; }

    /**
     * Commitment to the full world state (accounts, balances, nonces,
     * code hashes, storage), independent of insertion order. Two
     * states with the same digest are identical for consensus
     * purposes; used to verify serializability of parallel schedules.
     *
     * Two-level and cached (DESIGN.md §16): each account's storage is
     * hashed in 256 buckets keyed by the slot's low byte, and only the
     * buckets, accounts and state hash that a setter or revert()
     * touched since the last call are recomputed. Copies carry the
     * caches. Not thread-safe on one object: the call fills mutable
     * caches, so warm a state shared by several threads at a
     * single-threaded point before they copy or read it.
     * @throws std::logic_error on an overlay.
     */
    U256 digest() const;

    /**
     * Canonical RLP serialization of the full state — the snapshot
     * payload of the durability subsystem (DESIGN.md §12). Accounts
     * and storage slots are emitted in sorted order, so two states
     * with equal digest() produce byte-identical encodings. Must not
     * be called on an overlay or with an open journal.
     */
    Bytes toRlp() const;

    /** Length of toRlp()'s encoding, computed without encoding. */
    std::size_t rlpSize() const;

    /**
     * Append toRlp()'s encoding to @p out without a buffer of its own,
     * so a caller that reserved rlpSize() more bytes holds the state's
     * encoding once. Same preconditions as toRlp().
     */
    void appendRlp(Bytes &out) const;

    /**
     * Rebuild a state from toRlp() output. Code hashes are recomputed
     * from the code bytes, never trusted from the wire.
     * @throws std::invalid_argument on malformed input.
     */
    static WorldState fromRlp(const Bytes &encoded);
    /** As fromRlp(Bytes), over @p len bytes at @p data. */
    static WorldState fromRlp(const std::uint8_t *data, std::size_t len);

    /**
     * One undo record. Public (read-only via journal()) so the
     * speculative executor can turn an overlay's open journal into a
     * field-level delta set; everything else should treat this as an
     * implementation detail.
     */
    struct JournalEntry
    {
        enum class Kind
        {
            StorageChange,
            BalanceChange,
            NonceChange,
            CodeChange,
            AccountCreated,
        } kind;
        Address address;
        U256 slot;      // StorageChange
        U256 prevWord;  // previous storage value / balance
        std::uint64_t prevNonce = 0;
        Bytes prevCode;
        U256 prevCodeHash; // cached hash of prevCode (no rehash on undo)
    };

    /** Read-only view of the open journal (oldest first). */
    const std::vector<JournalEntry> &journal() const { return journal_; }

  private:
    Account &touch(const Address &addr);
    const Account *find(const Address &addr) const;
    /** Local account, falling through to the overlay base. */
    const Account *findThrough(const Address &addr) const;
    /** Overlay-aware storage read without access tracking. */
    U256 peekStorage(const Address &addr, const U256 &slot) const;

    void noteRead(const Address &addr, const U256 &slot) const;
    void noteWrite(const Address &addr, const U256 &slot) const;

    /** Commitment-cache invalidation for a changed scalar / code. */
    void dirtyAccount(Account &acct);
    /** ... and for a changed storage slot (its bucket too). */
    void dirtySlot(Account &acct, const U256 &slot);

    std::unordered_map<U256, Account, U256Hash> accounts_;
    std::vector<JournalEntry> journal_;
    const WorldState *base_ = nullptr;
    mutable AccessSet *tracker_ = nullptr;
    mutable U256 digest_;
    mutable bool digestFresh_ = false;
};

} // namespace mtpu::evm
