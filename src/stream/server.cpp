#include "stream/server.hpp"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"
#include "support/stats.hpp"

namespace mtpu::stream {

const char *
soakOutcomeName(SoakOutcome o)
{
    switch (o) {
      case SoakOutcome::Ok: return "ok";
      case SoakOutcome::AuditFailure: return "audit_failure";
      case SoakOutcome::WatchdogTrip: return "watchdog_trip";
      case SoakOutcome::OverloadAbort: return "overload_abort";
      case SoakOutcome::CorruptionAbort: return "corruption_abort";
    }
    return "unknown";
}

StreamServer::StreamServer(const arch::MtpuConfig &cfg,
                           const core::RunOptions &run,
                           const evm::WorldState &genesis,
                           const contracts::ContractSet &set,
                           const StreamConfig &stream_cfg)
    : cfg_(stream_cfg), run_(run), proc_(cfg), pool_(stream_cfg.pool),
      builder_(set, stream_cfg.block), chain_(genesis)
{
    // The streaming path always runs recovered: the processor keeps
    // the functional state (finalState advances the chain) and the
    // watchdog turns livelock into a failed block instead of a hang.
    run_.scheme = core::Scheme::SpatioTemporal;
    run_.recovery.validateConflicts = true;
}

SoakReport
StreamServer::run(const Producer &producer, std::uint64_t slots)
{
    SoakReport rep;
    auto wall_start = std::chrono::steady_clock::now();
    MempoolStats before = pool_.stats();

    for (std::uint64_t i = 0; i < slots; ++i) {
        std::uint64_t slot = slotCursor_++;
        auto slot_start = std::chrono::steady_clock::now();
        ++rep.slots;

        // 1. Flow control: grant credits, let the producer push.
        std::size_t credits = pool_.beginSlot(slot);
        std::vector<workload::WireTx> wires = producer(slot, credits);
        rep.submitted += wires.size();
        for (const workload::WireTx &w : wires)
            pool_.submit(w);
        MTPU_OBS_GAUGE("stream.pool_depth",
                       std::int64_t(pool_.size()));
        MTPU_OBS_GAUGE("stream.parked_depth",
                       std::int64_t(pool_.parkedCount()));

        // 2a. Replay-skip: a block at or below the recovered height
        //     was already executed by a previous process and its
        //     state arrived via recovery. Cut it (the pool must
        //     advance exactly as live), verify the cut against the
        //     durable record, and move on without executing.
        if (persist_
            && builder_.nextHeight() <= persist_->recoveredHeight()) {
            BuiltBlock built = builder_.buildCut(pool_);
            if (built.empty()) {
                ++rep.emptyBlocks;
                continue;
            }
            const persist::WalRecord *rec =
                persist_->recordFor(built.block.header.height);
            if (rec
                && rec->txDigest
                       != persist::txListDigest(built.block.txs)) {
                rep.outcome = SoakOutcome::CorruptionAbort;
                break;
            }
            ++rep.replayedBlocks;
            rep.replayedTxs += built.block.txs.size();
            for (std::uint64_t arrival : built.arrivalSlots)
                rep.latencySlots.push_back(
                    slot >= arrival ? slot - arrival : 0);
            continue;
        }

        // 2b. Deadline-budgeted block cut + consensus stage, on the
        //     processor's host pool: the server holds no pool of its own.
        BuiltBlock built = builder_.build(pool_, chain_,
                                          proc_.hostPool());
        if (built.empty()) {
            ++rep.emptyBlocks;
            continue;
        }

        // The pre-state digest anchors this block's WAL record into
        // the digest chain; only computed when persisting. A cached
        // read: the consensus stage in build() warmed chain_'s
        // commitment caches (DESIGN.md §16).
        U256 pre_digest;
        if (persist_)
            pre_digest = chain_.digest();

        // 3. Recovered, audited execution on the engine; the committed
        //    functional state becomes the next block's pre-state.
        core::AuditedRun res =
            proc_.executeAudited(built.block, chain_, run_);
        rep.conflictAborts += res.stats.conflictAborts;
        rep.retries += res.stats.retries;
        rep.failedReceipts += res.stats.failedTxs;
        rep.revertedReceipts += res.stats.revertedTxs;
        rep.executionFailures +=
            res.stats.failedTxs - res.stats.revertedTxs;
        rep.committedTxs += built.block.txs.size();
        ++rep.blocks;
        MTPU_OBS_COUNT("stream.blocks", 1);
        MTPU_OBS_COUNT("stream.committed_txs", built.block.txs.size());

        BlockSummary row;
        row.height = built.block.header.height;
        row.slot = slot;
        row.txs = built.block.txs.size();
        row.makespan = res.stats.makespan;
        row.conflictAborts = res.stats.conflictAborts;
        row.retries = res.stats.retries;
        row.poolDepthAfter = pool_.size();
        row.auditOk = res.audit.ok();
        rep.blockLog.push_back(row);

        for (std::uint64_t arrival : built.arrivalSlots) {
            std::uint64_t lat = slot >= arrival ? slot - arrival : 0;
            rep.latencySlots.push_back(lat);
            MTPU_OBS_HIST("stream.latency_slots",
                          obs::pow2Bounds(0, 12), lat);
        }
        if (cfg_.keepBlocks)
            rep.committedBlocks.push_back(built.block);

        if (res.stats.watchdogFired) {
            rep.watchdogFired = true;
            rep.outcome = SoakOutcome::WatchdogTrip;
            break;
        }
        if (!res.audit.ok()) {
            ++rep.auditFailures;
            rep.outcome = SoakOutcome::AuditFailure;
            break;
        }
        if (!res.stats.finalState) {
            // Recovery was active, so this cannot happen; fail loudly
            // rather than silently re-executing from a stale state.
            rep.outcome = SoakOutcome::AuditFailure;
            ++rep.auditFailures;
            break;
        }
        // Moved, not copied: chain_ keeps the caches the audit's
        // engine-state check warmed, so the post-digest is a read.
        chain_ = std::move(*res.stats.finalState);
        chain_.commit();

        // 3b. Durability: append the committed block to the WAL
        //     (fsync per slot; an armed crash plan fires inside) and
        //     snapshot on cadence. A broken WAL stops persisting but
        //     never stops the chain.
        if (persist_) {
            persist::WalRecord wrec;
            wrec.height = built.block.header.height;
            wrec.txDigest = persist::txListDigest(built.block.txs);
            wrec.preDigest = pre_digest;
            wrec.postDigest = chain_.digest();
            wrec.receiptDigest =
                persist::receiptListDigest(built.block.txs);
            wrec.blockRlp = built.block.toRlp();
            persist_->appendBlock(slot, wrec);
            if (!persist_->walBroken())
                persist_->maybeSnapshot(wrec.height, wrec.postDigest,
                                        chain_);
        }

        // 4. Graceful-degradation policy: bounded shedding is normal
        //    operation; a shed ratio beyond the ceiling means the
        //    offered load is unserviceable — abort cleanly.
        if (cfg_.maxShedRatio < 1.0 && slot >= cfg_.warmupSlots) {
            const MempoolStats &ps = pool_.stats();
            std::uint64_t submitted = ps.submitted - before.submitted;
            std::uint64_t shed = ps.shedTotal() - before.shedTotal();
            if (submitted > 0
                && double(shed) / double(submitted) > cfg_.maxShedRatio) {
                rep.outcome = SoakOutcome::OverloadAbort;
                break;
            }
        }

        if (cfg_.slotDeadlineMicros > 0) {
            auto micros =
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - slot_start)
                    .count();
            if (std::uint64_t(micros) > cfg_.slotDeadlineMicros)
                ++rep.deadlineMisses;
        }
    }

    // Final accounting: this run's share of the pool counters.
    rep.pool = pool_.stats();
    rep.offered = rep.submitted; // producers report held-back via credits
    std::sort(rep.latencySlots.begin(), rep.latencySlots.end());
    if (!rep.latencySlots.empty()) {
        rep.latencyP50 = percentileSorted(rep.latencySlots, 0.50);
        rep.latencyP90 = percentileSorted(rep.latencySlots, 0.90);
        rep.latencyP99 = percentileSorted(rep.latencySlots, 0.99);
        std::uint64_t sum = 0;
        for (std::uint64_t v : rep.latencySlots)
            sum += v;
        rep.latencyMean =
            double(sum) / double(rep.latencySlots.size());
        // Queued-only view: strip the same-slot fast path (sorted, so
        // the zeros are a prefix).
        auto first_queued = std::upper_bound(rep.latencySlots.begin(),
                                             rep.latencySlots.end(),
                                             std::uint64_t(0));
        std::vector<std::uint64_t> queued(first_queued,
                                          rep.latencySlots.end());
        rep.queuedTxs = queued.size();
        rep.queuedP50 = percentileSorted(queued, 0.50);
        rep.queuedP99 = percentileSorted(queued, 0.99);
    }
    if (persist_) {
        rep.walAppends = persist_->walAppends();
        rep.walBytes = persist_->walBytes();
        rep.snapshotsWritten = persist_->snapshotsWritten();
        rep.walBroken = persist_->walBroken();
    }
    rep.chainDigest = chain_.digest();
    rep.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
    return rep;
}

} // namespace mtpu::stream
