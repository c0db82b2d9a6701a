/**
 * @file
 * Persistence format version (DESIGN.md §12, §16). Format v2
 * ("MTPUWAL2", "MTPUSNP2") stores digests of the two-level state
 * commitment; a v1 file ("MTPUWAL1", "MTPUSNAP") stores the replaced
 * chained digest. Recovery must refuse a v1 WAL or snapshot as
 * unrecoverable (mtpu_sim exit 5) with a message naming the version,
 * and leave every file of the data directory byte-identical — never
 * treat the old magic as damage and repair or delete it.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "persist/persistence.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "workload/workload.hpp"

namespace mtpu::persist {
namespace {

struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/mtpu_format_XXXXXX";
        path = mkdtemp(tmpl);
    }
    ~TempDir() { std::system(("rm -rf " + path).c_str()); }
};

/** Every file of the store with its bytes. */
std::map<std::string, Bytes>
contents(const Storage &store)
{
    std::map<std::string, Bytes> out;
    for (const std::string &name : store.list())
        store.read(name, out[name]);
    return out;
}

/** Overwrite the 8-byte magic of @p name with @p magic. */
void
setMagic(Storage &store, const std::string &name, const char *magic)
{
    Bytes raw;
    ASSERT_TRUE(store.read(name, raw));
    ASSERT_GE(raw.size(), 8u);
    std::copy(magic, magic + 8, raw.begin());
    ASSERT_TRUE(store.writeAtomic(name, raw));
}

RecoveryResult
recoverDir(const std::string &dir, const workload::Generator &gen)
{
    PersistConfig cfg;
    cfg.dataDir = dir;
    Persistence p(cfg);
    return p.recover(arch::MtpuConfig{}, core::RunOptions{},
                     gen.genesis());
}

TEST(FormatVersion, MagicsNameVersionTwo)
{
    const Bytes v2 = walMagic(), v1 = legacyWalMagic();
    EXPECT_EQ(std::string(v2.begin(), v2.end()), "MTPUWAL2");
    EXPECT_EQ(std::string(v1.begin(), v1.end()), "MTPUWAL1");
    WalScanResult scan = scanWal(v1);
    EXPECT_TRUE(scan.legacyFormat);
    EXPECT_FALSE(scan.tailCorrupt);
}

TEST(FormatVersion, V1WalIsRefusedAndLeftByteIdentical)
{
    TempDir t;
    FileStorage fs(t.path);
    workload::Generator gen(9, 48, 1);
    WalRecord rec;
    rec.height = 1;
    rec.preDigest = U256(0x1234); // a v1 digest: meaningless to v2
    Bytes image = legacyWalMagic();
    const Bytes frame = walFrame(rec.encodePayload());
    image.insert(image.end(), frame.begin(), frame.end());
    image.push_back(0x7f); // plus a torn tail v2 would truncate
    ASSERT_TRUE(fs.append(kWalFile, image));
    ASSERT_TRUE(fs.sync(kWalFile));
    const auto before = contents(fs);

    RecoveryResult r = recoverDir(t.path, gen);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("format v1"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find(kWalFile), std::string::npos) << r.error;
    EXPECT_EQ(contents(fs), before);
}

TEST(FormatVersion, V1SnapshotIsRefusedAndLeftByteIdentical)
{
    TempDir t;
    FileStorage fs(t.path);
    workload::Generator gen(9, 48, 1);
    SnapshotStore snaps(fs);
    ASSERT_TRUE(snaps.write(4, gen.genesis().digest(), gen.genesis()));
    ASSERT_TRUE(snaps.write(8, gen.genesis().digest(), gen.genesis()));
    setMagic(fs, SnapshotStore::fileName(4), "MTPUSNAP");
    setMagic(fs, SnapshotStore::fileName(8), "MTPUSNAP");
    const auto before = contents(fs);

    RecoveryResult r = recoverDir(t.path, gen);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("format v1"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find(SnapshotStore::fileName(8)),
              std::string::npos)
        << r.error;
    EXPECT_EQ(r.corruptSnapshots, 0u);
    EXPECT_EQ(contents(fs), before);
}

int
runSim(const std::string &args)
{
    const std::string cmd =
        std::string(MTPU_SIM_PATH) + " " + args + " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    EXPECT_TRUE(WIFEXITED(rc)) << "crashed: " << cmd;
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(FormatVersion, MtpuSimExitsFiveOnAV1DataDirectory)
{
    TempDir t;
    const std::string args =
        "--stream --blocks 8 --txs 6 --rate 8 --seed 9 --accounts 48 "
        "--senders 16 --snapshot-every 4 --data-dir " + t.path;
    ASSERT_EQ(runSim(args), 0);

    FileStorage fs(t.path);
    setMagic(fs, kWalFile, "MTPUWAL1");
    const auto before = contents(fs);
    ASSERT_GT(before.size(), 1u); // the WAL and its snapshots
    EXPECT_EQ(runSim(args), 5);
    EXPECT_EQ(contents(fs), before);
}

} // namespace
} // namespace mtpu::persist
