#include "persist/persistence.hpp"

#include <cstdlib>
#include <cstring>

#include <unistd.h>

#include "obs/metrics.hpp"
#include "support/keccak.hpp"

namespace mtpu::persist {

CrashPlan
CrashPlan::fromEnv()
{
    CrashPlan plan;
    const char *at = std::getenv("MTPU_CRASH_AT_SLOT");
    if (!at || !*at)
        return plan;
    char *end = nullptr;
    unsigned long long slot = std::strtoull(at, &end, 10);
    if (end == at || *end != '\0')
        return plan;
    plan.slot = slot;
    plan.kind = Kind::After;
    if (const char *kind = std::getenv("MTPU_CRASH_KIND")) {
        if (std::strcmp(kind, "before") == 0)
            plan.kind = Kind::Before;
        else if (std::strcmp(kind, "torn") == 0)
            plan.kind = Kind::Torn;
        else if (std::strcmp(kind, "after") == 0)
            plan.kind = Kind::After;
        else if (std::strcmp(kind, "bitflip") == 0)
            plan.kind = Kind::BitFlip;
        else if (std::strcmp(kind, "nofsync") == 0)
            plan.kind = Kind::NoFsync;
        else
            plan.kind = Kind::None; // unknown kind: disarm, stay alive
    }
    return plan;
}

U256
txListDigest(const std::vector<workload::TxRecord> &txs)
{
    U256 acc;
    for (const workload::TxRecord &rec : txs)
        acc = keccak256Pair(acc, keccak256Word(rec.tx.toRlp()));
    return acc;
}

U256
receiptListDigest(const std::vector<workload::TxRecord> &txs)
{
    U256 acc;
    for (const workload::TxRecord &rec : txs)
        acc = keccak256Pair(acc, keccak256Word(rec.receipt.toRlp()));
    return acc;
}

Persistence::Persistence(const PersistConfig &cfg,
                         std::unique_ptr<Storage> storage)
    : cfg_(cfg), store_(storage ? std::move(storage)
                                : std::make_unique<FileStorage>(
                                      cfg.dataDir)),
      snapshots_(*store_), crash_(CrashPlan::fromEnv())
{}

RecoveryResult
Persistence::recover(const arch::MtpuConfig &hw_cfg,
                     const core::RunOptions &run,
                     const evm::WorldState &genesis)
{
    RecoveryResult res;
    // Warm point (DESIGN.md §16): every copy of genesis below starts
    // from its filled commitment caches. Each replayed block's
    // consensus rerun warms the state it starts from.
    const U256 genesis_digest = genesis.digest();
    res.state = genesis;

    auto fail = [&](const std::string &why) {
        res.ok = false;
        res.error = why;
        MTPU_OBS_COUNT("recovery.corruption_events", 1);
        return res;
    };
    // Files of another format version are refused before anything is
    // repaired or removed, so the data directory stays byte-identical.
    auto refuse = [&](const std::string &file) {
        res.ok = false;
        res.error = file + " is persistence format v1 (chained state "
                           "digest); this build reads format v2 only; "
                           "the data directory was left untouched";
        return res;
    };

    // 0. A format v1 log stops recovery here.
    Bytes head;
    store_->readRange(kWalFile, 0, 8, head);
    if (head == legacyWalMagic())
        return refuse(kWalFile);

    // 1. Newest snapshot that validates.
    std::string legacy_snapshot;
    std::optional<LoadedSnapshot> snap =
        snapshots_.loadNewest(&res.corruptSnapshots, &legacy_snapshot);
    if (res.corruptSnapshots)
        MTPU_OBS_COUNT("recovery.corruption_events",
                       res.corruptSnapshots);
    if (!legacy_snapshot.empty())
        return refuse(legacy_snapshot);

    // 2. WAL scan + tail repair. The scan streams the log and keeps
    //    the blocks of the records above the snapshot only: those are
    //    all that replay, unless the snapshot turns out stale (below).
    WalScanResult scan = scanWal(walSource(*store_, kWalFile),
                                 [&](std::uint64_t height) {
        return !snap || height > snap->height;
    });
    if (scan.tailCorrupt) {
        res.walTailTruncated = true;
        res.walTruncatedBytes = store_->size(kWalFile) - scan.validBytes;
        MTPU_OBS_COUNT("recovery.truncated_records", 1);
        if (scan.validBytes == 0) {
            // Even the magic is damaged: the whole file is garbage.
            store_->remove(kWalFile);
        } else if (!store_->truncate(kWalFile, scan.validBytes)) {
            return fail("cannot truncate damaged WAL tail");
        }
    }
    res.walRecords = scan.records.size();

    // 3. Semantic validation of the surviving record sequence.
    const std::vector<WalRecord> &recs = scan.records;
    for (std::size_t i = 1; i < recs.size(); ++i) {
        if (recs[i].height != recs[i - 1].height + 1)
            return fail(recs[i].height <= recs[i - 1].height
                            ? "duplicate or regressing WAL height"
                            : "gap in WAL heights");
        if (recs[i].preDigest != recs[i - 1].postDigest)
            return fail("WAL digest chain broken");
    }

    std::size_t replay_from = 0; // index into recs
    bool reset_wal_epoch = false;

    // Note on the WAL base: a WAL normally starts at the chain's
    // first block and its first record links to genesis. After a
    // recovery in which the snapshot was ahead of every surviving
    // record, the log is restarted ("fresh epoch") and its first
    // record links to that snapshot instead — which may since have
    // been pruned. Genesis linkage is therefore only enforced when
    // recovery actually replays from genesis.
    if (snap) {
        res.state = std::move(snap->state);
        res.recoveredHeight = snap->height;
        res.usedSnapshot = true;
        res.snapshotHeight = snap->height;
        if (recs.empty()) {
            // Everything below the snapshot is gone (or never was);
            // the snapshot is self-validating, so it is authoritative.
            replay_from = 0;
            reset_wal_epoch = true;
        } else if (recs.front().height == snap->height + 1) {
            // WAL epoch opened right at this snapshot: the first
            // record must link to it.
            if (recs.front().preDigest != snap->chainDigest)
                return fail("WAL epoch does not link to snapshot");
            replay_from = 0;
        } else if (snap->height >= recs.front().height
                   && snap->height <= recs.back().height) {
            const WalRecord &at =
                recs[std::size_t(snap->height - recs.front().height)];
            if (at.postDigest != snap->chainDigest)
                return fail("snapshot and WAL disagree at height "
                            + std::to_string(snap->height));
            replay_from =
                std::size_t(snap->height - recs.front().height) + 1;
        } else if (snap->height > recs.back().height) {
            // The WAL tail behind the snapshot was damaged and
            // truncated: the snapshot is ahead of every surviving
            // record. Trust the snapshot and open a fresh WAL epoch
            // so future appends do not leave a height gap behind it.
            replay_from = recs.size();
            reset_wal_epoch = true;
        } else if (recs.front().preDigest == genesis_digest) {
            // Snapshot predates the WAL base by more than one block
            // but the log reaches back to genesis: ignore the stale
            // snapshot and replay the whole log, every block of it.
            scan = scanWal(walSource(*store_, kWalFile),
                           [](std::uint64_t) { return true; });
            res.state = genesis;
            res.recoveredHeight = 0;
            res.usedSnapshot = false;
            replay_from = 0;
        } else {
            // Records between the snapshot and the WAL base are
            // missing, and genesis cannot bridge the gap either.
            return fail("WAL base unreachable from snapshot");
        }
    } else {
        if (!recs.empty()
            && recs.front().preDigest != genesis_digest)
            return fail("WAL does not link to genesis");
    }

    // 4. Replay through the real engine, verifying every digest.
    if (replay_from < recs.size()) {
        core::MtpuProcessor proc(hw_cfg);
        core::RunOptions replay_run = run;
        replay_run.scheme = core::Scheme::SpatioTemporal;
        replay_run.recovery.validateConflicts = true;
        for (std::size_t i = replay_from; i < recs.size(); ++i) {
            const WalRecord &rec = recs[i];
            if (res.state.digest() != rec.preDigest)
                return fail("replay pre-state mismatch at height "
                            + std::to_string(rec.height));
            workload::BlockRun block;
            try {
                block = workload::BlockRun::fromRlp(rec.blockRlp);
            } catch (const std::invalid_argument &) {
                return fail("undecodable block at height "
                            + std::to_string(rec.height));
            }
            if (block.header.height != rec.height)
                return fail("block/record height mismatch at "
                            + std::to_string(rec.height));
            if (txListDigest(block.txs) != rec.txDigest)
                return fail("tx digest mismatch at height "
                            + std::to_string(rec.height));
            workload::runConsensusStage(block, res.state);
            core::AuditedRun out =
                proc.executeAudited(block, res.state, replay_run);
            if (!out.ok() || !out.stats.finalState)
                return fail("replay execution failed at height "
                            + std::to_string(rec.height));
            if (receiptListDigest(block.txs) != rec.receiptDigest)
                return fail("receipt digest mismatch at height "
                            + std::to_string(rec.height));
            // Moved: the audit's engine-state check warmed it.
            res.state = std::move(*out.stats.finalState);
            res.state.commit();
            if (res.state.digest() != rec.postDigest)
                return fail("replay post-state mismatch at height "
                            + std::to_string(rec.height));
            res.recoveredHeight = rec.height;
            ++res.blocksReplayed;
            MTPU_OBS_COUNT("recovery.blocks_replayed", 1);
        }
    }

    res.chainDigest = res.state.digest();

    if (reset_wal_epoch) {
        // Drop the stale log; the WalWriter below re-creates it and
        // the first append opens the new epoch at snapshot height + 1.
        store_->remove(kWalFile);
    }

    // Index records for the server's replay-skip verification and
    // open the WAL for appending.
    for (WalRecord &rec : scan.records)
        records_.emplace(rec.height, std::move(rec));
    recoveredHeight_ = res.recoveredHeight;
    wal_ = std::make_unique<WalWriter>(*store_);
    return res;
}

bool
Persistence::appendBlock(std::uint64_t slot, const WalRecord &rec)
{
    if (!wal_)
        return false;
    if (crash_.kind != CrashPlan::Kind::None && slot == crash_.slot)
        crashAppend(rec); // does not return
    return wal_->append(rec);
}

void
Persistence::crashAppend(const WalRecord &rec)
{
    Bytes frame = walFrame(rec.encodePayload());
    switch (crash_.kind) {
      case CrashPlan::Kind::Before:
        break;
      case CrashPlan::Kind::Torn: {
        Bytes half(frame.begin(),
                   frame.begin() + long(frame.size() / 2));
        store_->append(kWalFile, half);
        store_->sync(kWalFile);
        break;
      }
      case CrashPlan::Kind::After:
        store_->append(kWalFile, frame);
        store_->sync(kWalFile);
        break;
      case CrashPlan::Kind::BitFlip: {
        // Flip one payload bit so length checks pass but CRC fails.
        frame[frame.size() / 2] ^= 0x10;
        store_->append(kWalFile, frame);
        store_->sync(kWalFile);
        break;
      }
      case CrashPlan::Kind::NoFsync: {
        // Unsynced write whose last bytes never reach disk.
        Bytes most(frame.begin(), frame.end() - 3);
        store_->append(kWalFile, most);
        break;
      }
      case CrashPlan::Kind::None:
        break;
    }
    // Hard exit: no destructors, no buffered-IO flush — as close to
    // kill -9 as a single process can simulate on itself.
    ::_exit(kCrashExitCode);
}

void
Persistence::maybeSnapshot(std::uint64_t height,
                           const U256 &chain_digest,
                           const evm::WorldState &state)
{
    if (cfg_.snapshotEvery == 0 || height % cfg_.snapshotEvery != 0)
        return;
    if (snapshots_.write(height, chain_digest, state))
        ++snapshotsWritten_;
}

const WalRecord *
Persistence::recordFor(std::uint64_t height) const
{
    auto it = records_.find(height);
    return it == records_.end() ? nullptr : &it->second;
}

} // namespace mtpu::persist
