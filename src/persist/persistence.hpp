/**
 * @file
 * Durability facade (DESIGN.md §12): owns the storage backend, the
 * WAL appender and the snapshot store, runs crash recovery, and hosts
 * the crash-injection knob the kill-and-restart harness drives.
 *
 * Recovery protocol:
 *  0. A WAL or snapshot of format v1 (chained state digest, replaced
 *     by the state commitment of DESIGN.md §16) is refused as
 *     unrecoverable before anything is repaired or removed; the data
 *     directory stays byte-identical.
 *  1. Load the newest snapshot that validates (integrity hash + state
 *     digest); corrupt snapshots are counted and deleted so the
 *     fallback is stable across restarts.
 *  2. Scan the WAL; byte-level damage at the tail (torn write, bit
 *     flip, truncation, lost unsynced suffix) truncates the file back
 *     to its valid prefix — availability is preserved and the damaged
 *     block re-executes live after restart.
 *  3. Semantically validate the surviving records: heights must be
 *     contiguous, each record's preDigest must equal its
 *     predecessor's postDigest, the first record must link to genesis
 *     (or to the snapshot that opened a fresh WAL epoch), and a
 *     snapshot inside the record range must agree with the record at
 *     its height. Any violation is unrecoverable corruption — the
 *     caller must exit with the documented corruption code rather
 *     than risk silent divergence.
 *  4. Replay records above the snapshot height through the real
 *     engine (consensus stage + audited execution), verifying the
 *     tx-list, receipt and post-state digests of every replayed
 *     block.
 *
 * Crash injection: MTPU_CRASH_AT_SLOT=<n> arms a hard _exit(42)
 * inside the WAL append of slot n; MTPU_CRASH_KIND picks the tail
 * damage left behind (before | torn | after | bitflip | nofsync).
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/mtpu.hpp"
#include "persist/snapshot.hpp"
#include "persist/storage.hpp"
#include "persist/wal.hpp"

namespace mtpu::persist {

/** Exit code of an injected crash (never used by real failures). */
constexpr int kCrashExitCode = 42;

struct PersistConfig
{
    std::string dataDir;
    /** Snapshot every N committed blocks; 0 disables snapshots. */
    std::uint64_t snapshotEvery = 16;
};

/** Injected crash directive (kill-and-restart harness). */
struct CrashPlan
{
    enum class Kind
    {
        None,
        Before,  ///< exit before any WAL bytes of the slot are written
        Torn,    ///< write the first half of the frame, sync, exit
        After,   ///< write + sync the full frame, exit (default)
        BitFlip, ///< write the frame with one payload bit flipped, exit
        NoFsync, ///< write all but the frame's last bytes unsynced, exit
    };

    Kind kind = Kind::None;
    std::uint64_t slot = 0;

    /** Parse MTPU_CRASH_AT_SLOT / MTPU_CRASH_KIND. Unset or
     *  unparsable values disarm the plan. */
    static CrashPlan fromEnv();
};

/** Everything recovery learned (and the recovered chain state). */
struct RecoveryResult
{
    bool ok = true;           ///< false => unrecoverable corruption
    std::string error;        ///< reason when !ok

    bool usedSnapshot = false;
    std::uint64_t snapshotHeight = 0;
    std::uint64_t corruptSnapshots = 0; ///< snapshots rejected+deleted
    std::uint64_t walRecords = 0;       ///< valid records found
    std::uint64_t walTruncatedBytes = 0;///< damaged tail bytes removed
    bool walTailTruncated = false;
    std::uint64_t blocksReplayed = 0;
    /** Height of the last recovered block; 0 = fresh chain. */
    std::uint64_t recoveredHeight = 0;
    U256 chainDigest;                   ///< digest of the result state
    evm::WorldState state;              ///< recovered chain state
};

/** Digest chain over the cut transaction list (wire identity). */
U256 txListDigest(const std::vector<workload::TxRecord> &txs);

/** Digest chain over the block's receipts (execution identity). */
U256 receiptListDigest(const std::vector<workload::TxRecord> &txs);

class Persistence
{
  public:
    /**
     * @param storage backend override (fault injection); null creates
     *        a FileStorage over cfg.dataDir.
     */
    explicit Persistence(const PersistConfig &cfg,
                         std::unique_ptr<Storage> storage = nullptr);

    /**
     * Run the recovery protocol and prepare the WAL for appending.
     * Must be called (once) before appendBlock/maybeSnapshot. Replay
     * executes on a fresh processor built from @p hw_cfg with @p run
     * options — pass the same options the live server will use.
     */
    RecoveryResult recover(const arch::MtpuConfig &hw_cfg,
                           const core::RunOptions &run,
                           const evm::WorldState &genesis);

    /**
     * Frame, append and fsync one committed block; fires the armed
     * crash plan when @p slot matches. Returns false once the WAL is
     * broken (persistence stops, the chain keeps running).
     */
    bool appendBlock(std::uint64_t slot, const WalRecord &rec);

    /** Write a snapshot when @p height hits the configured cadence. */
    void maybeSnapshot(std::uint64_t height, const U256 &chain_digest,
                       const evm::WorldState &state);

    /** Recovered WAL record for @p height (null when unavailable). */
    const WalRecord *recordFor(std::uint64_t height) const;

    std::uint64_t recoveredHeight() const { return recoveredHeight_; }
    bool walBroken() const { return wal_ && wal_->broken(); }
    std::uint64_t walAppends() const
    {
        return wal_ ? wal_->appendedRecords() : 0;
    }
    std::uint64_t walBytes() const
    {
        return wal_ ? wal_->appendedBytes() : 0;
    }
    std::uint64_t snapshotsWritten() const { return snapshotsWritten_; }

    Storage &storage() { return *store_; }
    const PersistConfig &config() const { return cfg_; }

  private:
    /** Perform the armed crash: leave the planned tail damage behind
     *  and _exit(kCrashExitCode). Never returns. */
    [[noreturn]] void crashAppend(const WalRecord &rec);

    PersistConfig cfg_;
    std::unique_ptr<Storage> store_;
    SnapshotStore snapshots_;
    std::unique_ptr<WalWriter> wal_;
    CrashPlan crash_;
    std::map<std::uint64_t, WalRecord> records_; ///< by height
    std::uint64_t recoveredHeight_ = 0;
    std::uint64_t snapshotsWritten_ = 0;
};

} // namespace mtpu::persist
