/**
 * @file
 * Storage-layer semantics: the POSIX FileStorage backend and the
 * fault-injecting decorator (fault::FaultyStorage) whose page-cache
 * model — appends visible to readers but durable only after sync —
 * underpins every crash-recovery test above it.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "fault/storage_faults.hpp"
#include "persist/storage.hpp"

namespace mtpu::persist {
namespace {

Bytes
bytes(const std::string &s)
{
    return Bytes(s.begin(), s.end());
}

struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/mtpu_storage_XXXXXX";
        path = mkdtemp(tmpl);
    }
    ~TempDir() { std::system(("rm -rf " + path).c_str()); }
};

TEST(FileStorage, AppendReadSizeRoundTrip)
{
    TempDir t;
    FileStorage fs(t.path);
    EXPECT_EQ(fs.size("a"), 0u);
    Bytes out;
    EXPECT_FALSE(fs.read("a", out));

    EXPECT_TRUE(fs.append("a", bytes("hello ")));
    EXPECT_TRUE(fs.append("a", bytes("world")));
    EXPECT_TRUE(fs.sync("a"));
    EXPECT_EQ(fs.size("a"), 11u);
    ASSERT_TRUE(fs.read("a", out));
    EXPECT_EQ(out, bytes("hello world"));
}

TEST(FileStorage, ReadRangeMatchesTheDefaultOverWholeReads)
{
    // FileStorage reads the range itself; a decorator without its own
    // readRange gets the default, which slices a whole read. Both must
    // agree, including ranges that run past the end.
    TempDir t;
    FileStorage fs(t.path);
    fault::StorageFaultParams params;
    fault::FaultyStorage decorated(fs, params);
    ASSERT_TRUE(fs.append("a", bytes("hello world")));
    for (const Storage *store : {static_cast<const Storage *>(&fs),
                                 static_cast<const Storage *>(&decorated)}) {
        Bytes out;
        ASSERT_TRUE(store->readRange("a", 6, 5, out));
        EXPECT_EQ(out, bytes("world"));
        ASSERT_TRUE(store->readRange("a", 6, 100, out));
        EXPECT_EQ(out, bytes("world"));
        ASSERT_TRUE(store->readRange("a", 11, 4, out));
        EXPECT_TRUE(out.empty());
        ASSERT_TRUE(store->readRange("a", 40, 4, out));
        EXPECT_TRUE(out.empty());
        EXPECT_FALSE(store->readRange("missing", 0, 4, out));
    }
}

TEST(FileStorage, TruncateRemoveList)
{
    TempDir t;
    FileStorage fs(t.path);
    fs.append("b", bytes("0123456789"));
    fs.append("a", bytes("x"));
    EXPECT_EQ(fs.list(), (std::vector<std::string>{"a", "b"}));

    EXPECT_TRUE(fs.truncate("b", 4));
    Bytes out;
    ASSERT_TRUE(fs.read("b", out));
    EXPECT_EQ(out, bytes("0123"));

    EXPECT_TRUE(fs.remove("a"));
    EXPECT_EQ(fs.list(), (std::vector<std::string>{"b"}));
    EXPECT_EQ(fs.size("a"), 0u);
}

TEST(FileStorage, WriteAtomicReplacesWholeFile)
{
    TempDir t;
    FileStorage fs(t.path);
    fs.append("s", bytes("old content, longer than the new one"));
    EXPECT_TRUE(fs.writeAtomic("s", bytes("new")));
    Bytes out;
    ASSERT_TRUE(fs.read("s", out));
    EXPECT_EQ(out, bytes("new"));
    // The temp sibling must not linger in the listing.
    EXPECT_EQ(fs.list(), (std::vector<std::string>{"s"}));
}

TEST(FileStorage, RejectsUncreatableDirectory)
{
    EXPECT_THROW(FileStorage("/proc/nonexistent/mtpu"),
                 std::runtime_error);
}

TEST(FaultyStorage, UnsyncedBytesVisibleToReaderUntilCrash)
{
    TempDir t;
    FileStorage inner(t.path);
    fault::StorageFaultParams params;
    fault::FaultyStorage fs(inner, params);

    inner.append("f", bytes("durable."));
    EXPECT_TRUE(fs.append("f", bytes("pending")));

    // The writing process sees its own unsynced bytes...
    Bytes out;
    ASSERT_TRUE(fs.read("f", out));
    EXPECT_EQ(out, bytes("durable.pending"));
    EXPECT_EQ(fs.size("f"), 15u);
    // ...but the platter does not.
    ASSERT_TRUE(inner.read("f", out));
    EXPECT_EQ(out, bytes("durable."));

    // Crash: the unsynced suffix is gone.
    fs.dropUnsynced();
    ASSERT_TRUE(fs.read("f", out));
    EXPECT_EQ(out, bytes("durable."));
}

TEST(FaultyStorage, SyncMakesBytesDurable)
{
    TempDir t;
    FileStorage inner(t.path);
    fault::StorageFaultParams params;
    fault::FaultyStorage fs(inner, params);

    fs.append("f", bytes("abc"));
    EXPECT_TRUE(fs.sync("f"));
    fs.dropUnsynced(); // no-op: everything already synced
    Bytes out;
    ASSERT_TRUE(inner.read("f", out));
    EXPECT_EQ(out, bytes("abc"));
}

TEST(FaultyStorage, FailedSyncDropsTheBuffer)
{
    TempDir t;
    FileStorage inner(t.path);
    fault::StorageFaultParams params;
    fault::FaultyStorage fs(inner, params);

    fs.append("f", bytes("kept"));
    ASSERT_TRUE(fs.sync("f"));
    fs.append("f", bytes("lost"));
    fs.schedule("f", fault::StorageFaultKind::FailSync);
    EXPECT_FALSE(fs.sync("f"));
    EXPECT_EQ(fs.failedSyncs(), 1u);

    // The failed sync behaves like a crashed kernel: the unsynced
    // bytes vanish even from the writer's own view.
    Bytes out;
    ASSERT_TRUE(fs.read("f", out));
    EXPECT_EQ(out, bytes("kept"));
    // A later sync succeeds (one-shot directive).
    fs.append("f", bytes("more"));
    EXPECT_TRUE(fs.sync("f"));
    ASSERT_TRUE(inner.read("f", out));
    EXPECT_EQ(out, bytes("keptmore"));
}

TEST(FaultyStorage, TornWriteKeepsDirectedPrefix)
{
    TempDir t;
    FileStorage inner(t.path);
    fault::StorageFaultParams params;
    fault::FaultyStorage fs(inner, params);

    fs.schedule("f", fault::StorageFaultKind::TornWrite, 3);
    EXPECT_TRUE(fs.append("f", bytes("0123456789")));
    EXPECT_EQ(fs.tornWrites(), 1u);
    EXPECT_TRUE(fs.sync("f"));
    Bytes out;
    ASSERT_TRUE(inner.read("f", out));
    EXPECT_EQ(out, bytes("012"));
}

TEST(FaultyStorage, BitFlipFlipsExactlyOneBit)
{
    TempDir t;
    FileStorage inner(t.path);
    fault::StorageFaultParams params;
    fault::FaultyStorage fs(inner, params);

    Bytes data = bytes("ABCDEFGH");
    fs.schedule("f", fault::StorageFaultKind::BitFlip, 12); // bit 12
    EXPECT_TRUE(fs.append("f", data));
    EXPECT_EQ(fs.bitFlips(), 1u);
    fs.sync("f");

    Bytes out;
    ASSERT_TRUE(inner.read("f", out));
    ASSERT_EQ(out.size(), data.size());
    int flipped_bits = 0;
    for (std::size_t i = 0; i < data.size(); ++i)
        flipped_bits += __builtin_popcount(unsigned(out[i] ^ data[i]));
    EXPECT_EQ(flipped_bits, 1);
}

TEST(FaultyStorage, TruncateTailChopsTheBufferedAppend)
{
    TempDir t;
    FileStorage inner(t.path);
    fault::StorageFaultParams params;
    fault::FaultyStorage fs(inner, params);

    fs.schedule("f", fault::StorageFaultKind::TruncateTail, 4);
    EXPECT_TRUE(fs.append("f", bytes("0123456789")));
    fs.sync("f");
    Bytes out;
    ASSERT_TRUE(inner.read("f", out));
    EXPECT_EQ(out, bytes("012345"));
}

TEST(FaultyStorage, SeededRatesAreDeterministic)
{
    auto count = [](std::uint64_t seed) {
        TempDir t;
        FileStorage inner(t.path);
        fault::StorageFaultParams params;
        params.seed = seed;
        params.tornWriteRate = 0.3;
        params.bitFlipRate = 0.2;
        fault::FaultyStorage fs(inner, params);
        for (int i = 0; i < 64; ++i)
            fs.append("f", bytes("some record data"));
        return fs.tornWrites() * 1000 + fs.bitFlips();
    };
    EXPECT_EQ(count(7), count(7));
    EXPECT_NE(count(7), count(8)); // a different schedule, almost surely
    EXPECT_GT(count(7), 0u);
}

} // namespace
} // namespace mtpu::persist
