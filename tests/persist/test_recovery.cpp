/**
 * @file
 * In-process kill-and-restart: a streaming run with persistence
 * attached is stopped (cleanly or with injected storage faults on the
 * WAL), then a fresh Persistence + StreamServer pair recovers the data
 * directory and re-feeds the identical wire stream from slot 0. The
 * invariant under test is the tentpole claim: the durable and the
 * restarted runs' final chain digests are bit-identical to that of an
 * uninterrupted run with no persistence attached, for every storage
 * fault class that recovery classifies as tail damage.
 * (The subprocess version with hard _exit crashes lives in
 * test_crash_restart.cpp; the unrecoverable-corruption classes live in
 * test_wal.cpp's semantic corpus.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>

#include "fault/storage_faults.hpp"
#include "persist/persistence.hpp"
#include "stream/server.hpp"
#include "workload/stream_gen.hpp"

namespace mtpu::persist {
namespace {

struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/mtpu_recover_XXXXXX";
        path = mkdtemp(tmpl);
    }
    ~TempDir() { std::system(("rm -rf " + path).c_str()); }
};

constexpr std::uint64_t kSlots = 18;

/**
 * One process lifetime: recover the data directory, then run stream
 * slots against the same seeded wire generator every instance uses —
 * the restart contract is that the producer re-feeds the identical
 * stream from slot 0. An empty @p dir runs volatile, with no
 * persistence attached.
 */
class Durable
{
  public:
    explicit Durable(const std::string &dir)
        : gen_(9, 64, 1), wire_(gen_, 9, 16, mix_)
    {
        scfg_.pool.capacity = 128;
        scfg_.block.maxTxs = 6;
        cfg_.threads = 1;
        run_.scheme = core::Scheme::SpatioTemporal;
        run_.redundancyOpt = true;
        run_.threads = 1;

        if (!dir.empty()) {
            inner_ = std::make_unique<FileStorage>(dir);
            fault::StorageFaultParams params;
            auto faulty =
                std::make_unique<fault::FaultyStorage>(*inner_, params);
            faulty_ = faulty.get();
            PersistConfig pcfg;
            pcfg.dataDir = dir;
            pcfg.snapshotEvery = 8;
            persist_ = std::make_unique<Persistence>(pcfg,
                                                     std::move(faulty));
            rec = persist_->recover(cfg_, run_, gen_.genesis());
            if (!rec.ok)
                return;
        }
        server_ = std::make_unique<stream::StreamServer>(
            cfg_, run_, gen_.genesis(), gen_.contracts(), scfg_);
        if (persist_) {
            server_->setChainState(rec.state);
            server_->attachPersistence(persist_.get());
        }
    }

    stream::SoakReport
    run(std::uint64_t slots)
    {
        auto producer = [&](std::uint64_t slot, std::size_t credits) {
            wire_.resyncNonces([&](const evm::Address &a) {
                return server_->mempool().pendingNonce(a);
            });
            std::size_t send = std::min<std::size_t>(12, credits);
            return wire_.slotTxs(slot, send);
        };
        return server_->run(producer, slots);
    }

    fault::FaultyStorage &faulty() { return *faulty_; }

    RecoveryResult rec;

  private:
    workload::Generator gen_;
    workload::StreamMix mix_;
    workload::StreamGenerator wire_;
    std::unique_ptr<FileStorage> inner_;
    stream::StreamConfig scfg_;
    arch::MtpuConfig cfg_;
    core::RunOptions run_;
    fault::FaultyStorage *faulty_ = nullptr;
    std::unique_ptr<Persistence> persist_;
    std::unique_ptr<stream::StreamServer> server_;
};

/**
 * Final digest of the same stream with no persistence attached
 * (computed once): every durable and restarted run must reach the
 * chain that was never persisted.
 */
const U256 &
referenceDigest()
{
    static const U256 digest = [] {
        Durable a("");
        stream::SoakReport rep = a.run(kSlots);
        EXPECT_EQ(rep.outcome, stream::SoakOutcome::Ok);
        return rep.chainDigest;
    }();
    return digest;
}

TEST(Recovery, FreshDirectoryStartsAtGenesis)
{
    TempDir t;
    Durable a(t.path);
    ASSERT_TRUE(a.rec.ok) << a.rec.error;
    EXPECT_EQ(a.rec.recoveredHeight, 0u);
    EXPECT_FALSE(a.rec.usedSnapshot);
    EXPECT_EQ(a.rec.walRecords, 0u);
}

TEST(Recovery, UninterruptedRunPersistsAndRestartReplays)
{
    TempDir t;
    {
        Durable a(t.path);
        ASSERT_TRUE(a.rec.ok) << a.rec.error;
        stream::SoakReport rep = a.run(kSlots);
        ASSERT_EQ(rep.outcome, stream::SoakOutcome::Ok);
        EXPECT_EQ(rep.walAppends, rep.blocks);
        EXPECT_GT(rep.snapshotsWritten, 0u);
        EXPECT_FALSE(rep.walBroken);
        EXPECT_EQ(rep.chainDigest, referenceDigest());
    }
    // Restart over the same directory: everything is already durable,
    // so every slot replay-skips and nothing re-executes.
    Durable b(t.path);
    ASSERT_TRUE(b.rec.ok) << b.rec.error;
    EXPECT_TRUE(b.rec.usedSnapshot);
    EXPECT_GT(b.rec.walRecords, 0u);
    EXPECT_GT(b.rec.blocksReplayed, 0u);
    stream::SoakReport rep = b.run(kSlots);
    EXPECT_EQ(rep.outcome, stream::SoakOutcome::Ok);
    EXPECT_EQ(rep.blocks, 0u);
    EXPECT_GT(rep.replayedBlocks, 0u);
    EXPECT_EQ(rep.chainDigest, referenceDigest());
}

TEST(Recovery, CleanKillMidRunRecoversToIdenticalDigest)
{
    TempDir t;
    {
        Durable a(t.path);
        ASSERT_TRUE(a.rec.ok);
        a.run(7); // process dies after slot 7 with everything synced
    }
    Durable b(t.path);
    ASSERT_TRUE(b.rec.ok) << b.rec.error;
    EXPECT_EQ(b.rec.walRecords, 7u);
    EXPECT_FALSE(b.rec.walTailTruncated);
    stream::SoakReport rep = b.run(kSlots);
    EXPECT_EQ(rep.outcome, stream::SoakOutcome::Ok);
    EXPECT_EQ(rep.replayedBlocks, 7u);
    EXPECT_EQ(rep.blocks, kSlots - 7);
    EXPECT_EQ(rep.chainDigest, referenceDigest());
}

TEST(Recovery, FailedFsyncLosesTailButRestartConverges)
{
    TempDir t;
    {
        Durable a(t.path);
        ASSERT_TRUE(a.rec.ok);
        a.run(6);
        // The kernel rejects the next fsync: the slot-6 record is
        // dropped from the page cache and the WAL latches broken.
        a.faulty().schedule(kWalFile, fault::StorageFaultKind::FailSync);
        stream::SoakReport rep = a.run(2);
        EXPECT_TRUE(rep.walBroken);
        EXPECT_EQ(a.faulty().failedSyncs(), 1u);
        // Availability over durability: the chain kept committing.
        EXPECT_EQ(rep.blocks, 2u);
    }
    Durable b(t.path);
    ASSERT_TRUE(b.rec.ok) << b.rec.error;
    EXPECT_EQ(b.rec.walRecords, 6u); // slots 6..7 were never durable
    stream::SoakReport rep = b.run(kSlots);
    EXPECT_EQ(rep.outcome, stream::SoakOutcome::Ok);
    EXPECT_EQ(rep.chainDigest, referenceDigest());
}

TEST(Recovery, TornWalAppendIsTruncatedAndReExecuted)
{
    TempDir t;
    {
        Durable a(t.path);
        ASSERT_TRUE(a.rec.ok);
        a.run(6);
        // The slot-6 frame is torn 10 bytes in; later appends land
        // after the torn prefix, so the scan loses everything from
        // slot 6 on. The snapshot at height 1008 (slot 8) is AHEAD of
        // the surviving records — the fresh-WAL-epoch recovery path.
        a.faulty().schedule(kWalFile,
                            fault::StorageFaultKind::TornWrite, 10);
        a.run(3);
    }
    Durable b(t.path);
    ASSERT_TRUE(b.rec.ok) << b.rec.error;
    EXPECT_TRUE(b.rec.walTailTruncated);
    EXPECT_EQ(b.rec.walRecords, 6u);
    EXPECT_TRUE(b.rec.usedSnapshot);
    EXPECT_GT(b.rec.snapshotHeight,
              b.rec.walRecords ? 1000u + b.rec.walRecords - 1 : 0u);
    stream::SoakReport rep = b.run(kSlots);
    EXPECT_EQ(rep.outcome, stream::SoakOutcome::Ok);
    EXPECT_EQ(rep.chainDigest, referenceDigest());
}

TEST(Recovery, BitFlippedWalRecordIsCaughtByCrc)
{
    TempDir t;
    {
        Durable a(t.path);
        ASSERT_TRUE(a.rec.ok);
        a.run(6);
        a.faulty().schedule(kWalFile, fault::StorageFaultKind::BitFlip);
        a.run(1); // slot 6's record lands with one flipped bit
    }
    Durable b(t.path);
    ASSERT_TRUE(b.rec.ok) << b.rec.error;
    EXPECT_TRUE(b.rec.walTailTruncated);
    EXPECT_EQ(b.rec.walRecords, 6u);
    stream::SoakReport rep = b.run(kSlots);
    EXPECT_EQ(rep.outcome, stream::SoakOutcome::Ok);
    EXPECT_EQ(rep.chainDigest, referenceDigest());
}

TEST(Recovery, TruncatedTailAppendIsRepairedOnRecovery)
{
    TempDir t;
    {
        Durable a(t.path);
        ASSERT_TRUE(a.rec.ok);
        a.run(6);
        // The slot-6 frame loses its last bytes before reaching the
        // platter — the classic truncated-tail crash artifact.
        a.faulty().schedule(kWalFile,
                            fault::StorageFaultKind::TruncateTail, 5);
        a.run(1);
    }
    Durable b(t.path);
    ASSERT_TRUE(b.rec.ok) << b.rec.error;
    EXPECT_TRUE(b.rec.walTailTruncated);
    EXPECT_GT(b.rec.walTruncatedBytes, 0u);
    EXPECT_EQ(b.rec.walRecords, 6u);
    stream::SoakReport rep = b.run(kSlots);
    EXPECT_EQ(rep.outcome, stream::SoakOutcome::Ok);
    EXPECT_EQ(rep.chainDigest, referenceDigest());
}

TEST(Recovery, SnapshotCadenceZeroDisablesSnapshots)
{
    TempDir t;
    workload::Generator gen(9, 64, 1);
    PersistConfig pcfg;
    pcfg.dataDir = t.path;
    pcfg.snapshotEvery = 0;
    Persistence p(pcfg);
    arch::MtpuConfig cfg;
    core::RunOptions run;
    ASSERT_TRUE(p.recover(cfg, run, gen.genesis()).ok);
    evm::WorldState state = gen.genesis();
    p.maybeSnapshot(16, state.digest(), state);
    EXPECT_EQ(p.snapshotsWritten(), 0u);
}

} // namespace
} // namespace mtpu::persist
