/**
 * @file
 * WAL framing, scanning and the corrupt-WAL corpus: a table of
 * damaged log images (truncated header, flipped CRC, mid-record
 * truncation, bad magic, trailing garbage, empty file) asserting the
 * documented recovery policy — byte-level tail damage truncates and
 * continues, semantic damage (duplicate height, height gap, broken
 * digest chain, no genesis link) is unrecoverable. Never silent
 * divergence: every damaged image lands in exactly one of the two
 * buckets.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <ostream>
#include <string>

#include "fault/storage_faults.hpp"
#include "persist/persistence.hpp"
#include "persist/wal.hpp"
#include "workload/workload.hpp"

namespace mtpu::persist {
namespace {

struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/mtpu_wal_XXXXXX";
        path = mkdtemp(tmpl);
    }
    ~TempDir() { std::system(("rm -rf " + path).c_str()); }
};

/** Crafted record whose digests chain height N to height N+1. */
WalRecord
chainedRecord(std::uint64_t height)
{
    WalRecord rec;
    rec.height = height;
    rec.txDigest = U256(height * 7 + 1);
    rec.preDigest = U256(height * 1000);
    rec.postDigest = U256((height + 1) * 1000);
    rec.receiptDigest = U256(height * 7 + 2);
    // Padding stands in for the block body: it keeps every frame well
    // past the offsets the corpus damages, and is never decoded by the
    // paths under test (all corpus failures fire before replay).
    rec.blockRlp = Bytes(64, 0xab);
    return rec;
}

/** A WAL image of chained records plus each frame's end offset. */
struct Image
{
    Bytes raw;
    std::vector<std::size_t> frameEnd;
};

Image
makeImage(std::uint64_t first_height, std::size_t count)
{
    Image img;
    img.raw = walMagic();
    for (std::size_t i = 0; i < count; ++i) {
        Bytes frame =
            walFrame(chainedRecord(first_height + i).encodePayload());
        img.raw.insert(img.raw.end(), frame.begin(), frame.end());
        img.frameEnd.push_back(img.raw.size());
    }
    return img;
}

TEST(WalRecord, PayloadRoundTrip)
{
    WalRecord rec = chainedRecord(42);
    rec.blockRlp = Bytes{0xc2, 0x01, 0x02};
    WalRecord back = WalRecord::decodePayload(rec.encodePayload());
    EXPECT_EQ(back.height, rec.height);
    EXPECT_EQ(back.txDigest, rec.txDigest);
    EXPECT_EQ(back.preDigest, rec.preDigest);
    EXPECT_EQ(back.postDigest, rec.postDigest);
    EXPECT_EQ(back.receiptDigest, rec.receiptDigest);
    EXPECT_EQ(back.blockRlp, rec.blockRlp);
}

TEST(WalRecord, DecodeRejectsGarbage)
{
    EXPECT_THROW(WalRecord::decodePayload(Bytes{0x01, 0x02, 0x03}),
                 std::invalid_argument);
    EXPECT_THROW(WalRecord::decodePayload(Bytes{}),
                 std::invalid_argument);
}

TEST(ScanWal, CleanImageDecodesAllRecords)
{
    Image img = makeImage(5, 3);
    WalScanResult scan = scanWal(img.raw);
    EXPECT_FALSE(scan.tailCorrupt);
    EXPECT_EQ(scan.validBytes, img.raw.size());
    ASSERT_EQ(scan.records.size(), 3u);
    EXPECT_EQ(scan.records[0].height, 5u);
    EXPECT_EQ(scan.records[2].height, 7u);
    EXPECT_EQ(scan.records[1].preDigest, scan.records[0].postDigest);
}

// ---------------------------------------------------------------------
// S4 corpus, byte-damage half: each damaged image must scan to the
// exact surviving prefix with tailCorrupt set — truncate-and-continue,
// never a decoded record past the damage.
// ---------------------------------------------------------------------

struct ByteDamageCase
{
    const char *name;
    std::function<Bytes(const Image &)> damage;
    std::size_t survivors;          ///< records decoded
    std::function<std::size_t(const Image &)> validBytes;
    bool tailCorrupt;
};

// gtest's fallback printer dumps the struct's raw bytes, pointers
// included; gtest_discover_tests bakes that dump into the ctest name,
// which then changed with every build under ASLR. Print the case name.
void
PrintTo(const ByteDamageCase &c, std::ostream *os)
{
    *os << c.name;
}

class WalCorpus : public ::testing::TestWithParam<ByteDamageCase>
{};

TEST_P(WalCorpus, ScanStopsExactlyAtTheDamage)
{
    const ByteDamageCase &c = GetParam();
    Image img = makeImage(5, 3);
    Bytes damaged = c.damage(img);
    WalScanResult scan = scanWal(damaged);
    EXPECT_EQ(scan.records.size(), c.survivors) << scan.note;
    EXPECT_EQ(scan.validBytes, c.validBytes(img)) << scan.note;
    EXPECT_EQ(scan.tailCorrupt, c.tailCorrupt) << scan.note;
    if (c.tailCorrupt)
        EXPECT_FALSE(scan.note.empty());
    // The surviving prefix is intact: re-scanning the truncated image
    // must be clean (this is what recovery persists back to disk).
    Bytes repaired(damaged.begin(),
                   damaged.begin() + long(scan.validBytes));
    WalScanResult again = scanWal(repaired);
    EXPECT_FALSE(again.tailCorrupt);
    EXPECT_EQ(again.records.size(), c.survivors);
}

const ByteDamageCase kByteDamage[] = {
    {"empty_file", [](const Image &) { return Bytes{}; }, 0,
     [](const Image &) { return std::size_t(0); }, false},
    {"magic_only",
     [](const Image &) { return walMagic(); }, 0,
     [](const Image &) { return walMagic().size(); }, false},
    {"truncated_frame_header",
     [](const Image &img) {
         return Bytes(img.raw.begin(),
                      img.raw.begin() + long(img.frameEnd[1] + 4));
     },
     2, [](const Image &img) { return img.frameEnd[1]; }, true},
    {"mid_record_truncation",
     [](const Image &img) {
         return Bytes(img.raw.begin(),
                      img.raw.begin() + long(img.frameEnd[1] + 20));
     },
     2, [](const Image &img) { return img.frameEnd[1]; }, true},
    {"flipped_crc_byte",
     [](const Image &img) {
         Bytes d = img.raw;
         d[img.frameEnd[1] + 5] ^= 0x01; // CRC field of frame 3
         return d;
     },
     2, [](const Image &img) { return img.frameEnd[1]; }, true},
    {"payload_bit_flip",
     [](const Image &img) {
         Bytes d = img.raw;
         d[img.frameEnd[1] + 12] ^= 0x40; // payload of frame 3
         return d;
     },
     2, [](const Image &img) { return img.frameEnd[1]; }, true},
    {"bad_magic",
     [](const Image &img) {
         Bytes d = img.raw;
         d[0] ^= 0xff;
         return d;
     },
     0, [](const Image &) { return std::size_t(0); }, true},
    {"trailing_garbage",
     [](const Image &img) {
         Bytes d = img.raw;
         d.insert(d.end(), {0xde, 0xad, 0xbe});
         return d;
     },
     3, [](const Image &img) { return img.frameEnd[2]; }, true},
};

INSTANTIATE_TEST_SUITE_P(
    Corpus, WalCorpus, ::testing::ValuesIn(kByteDamage),
    [](const ::testing::TestParamInfo<ByteDamageCase> &info) {
        return info.param.name;
    });

// ---------------------------------------------------------------------
// S4 corpus, semantic half: structurally valid WALs whose record
// sequence lies. Recovery must refuse (unrecoverable corruption, the
// exit-5 class) — replaying around these would silently diverge.
// ---------------------------------------------------------------------

struct SemanticCase
{
    const char *name;
    std::vector<std::uint64_t> heights;
    /** Break the preDigest chain at this record index (0 = intact). */
    std::size_t breakChainAt;
    bool linkToGenesis;
    const char *errorContains;
};

void
PrintTo(const SemanticCase &c, std::ostream *os)
{
    *os << c.name;
}

class WalSemanticCorpus : public ::testing::TestWithParam<SemanticCase>
{};

TEST_P(WalSemanticCorpus, RecoveryRefusesToReplay)
{
    const SemanticCase &c = GetParam();
    workload::Generator gen(3, 32, 1);
    evm::WorldState genesis = gen.genesis();

    std::vector<WalRecord> recs;
    for (std::uint64_t h : c.heights)
        recs.push_back(chainedRecord(h));
    for (std::size_t i = 1; i < recs.size(); ++i)
        recs[i].preDigest = recs[i - 1].postDigest;
    if (c.linkToGenesis)
        recs.front().preDigest = genesis.digest();
    if (c.breakChainAt)
        recs[c.breakChainAt].preDigest = U256(0xbad);

    TempDir t;
    FileStorage fs(t.path);
    Bytes image = walMagic();
    for (const WalRecord &rec : recs) {
        Bytes frame = walFrame(rec.encodePayload());
        image.insert(image.end(), frame.begin(), frame.end());
    }
    fs.append(kWalFile, image);
    fs.sync(kWalFile);

    PersistConfig cfg;
    cfg.dataDir = t.path;
    Persistence p(cfg);
    RecoveryResult res =
        p.recover(arch::MtpuConfig{}, core::RunOptions{}, genesis);
    EXPECT_FALSE(res.ok) << c.name;
    EXPECT_NE(res.error.find(c.errorContains), std::string::npos)
        << c.name << ": got \"" << res.error << '"';
}

const SemanticCase kSemantic[] = {
    {"duplicate_block_height", {5, 6, 6}, 0, true, "duplicate"},
    {"regressing_height", {5, 6, 5}, 0, true, "duplicate or regressing"},
    {"height_gap", {5, 6, 8}, 0, true, "gap in WAL heights"},
    {"broken_digest_chain", {5, 6, 7}, 2, true, "digest chain broken"},
    {"no_genesis_link", {5, 6, 7}, 0, false, "does not link to genesis"},
};

INSTANTIATE_TEST_SUITE_P(
    Corpus, WalSemanticCorpus, ::testing::ValuesIn(kSemantic),
    [](const ::testing::TestParamInfo<SemanticCase> &info) {
        return info.param.name;
    });

// ---------------------------------------------------------------------
// Writer semantics.
// ---------------------------------------------------------------------

TEST(WalWriter, CreatesMagicAndAppendsScannableRecords)
{
    TempDir t;
    FileStorage fs(t.path);
    WalWriter w(fs);
    EXPECT_FALSE(w.broken());
    WalRecord a = chainedRecord(9);
    WalRecord b = chainedRecord(10);
    EXPECT_TRUE(w.append(a));
    EXPECT_TRUE(w.append(b));
    EXPECT_EQ(w.appendedRecords(), 2u);
    EXPECT_GT(w.appendedBytes(), 0u);

    Bytes raw;
    ASSERT_TRUE(fs.read(kWalFile, raw));
    WalScanResult scan = scanWal(raw);
    EXPECT_FALSE(scan.tailCorrupt);
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.records[0].height, 9u);
    EXPECT_EQ(scan.records[1].height, 10u);
}

TEST(WalScan, StreamedScanOfAFileMatchesTheInMemoryScan)
{
    // 40 frames of ~50 KiB: the file spans two of walSource()'s 1 MiB
    // chunks, so frames straddle a chunk boundary. A torn tail is
    // reported at the same offset either way.
    TempDir t;
    FileStorage fs(t.path);
    WalWriter w(fs);
    for (std::uint64_t h = 1; h <= 40; ++h) {
        WalRecord rec = chainedRecord(h);
        rec.blockRlp = Bytes(50000 + h, std::uint8_t(h));
        ASSERT_TRUE(w.append(rec));
    }
    ASSERT_TRUE(fs.append(kWalFile, Bytes{0x10, 0x00}));
    Bytes raw;
    ASSERT_TRUE(fs.read(kWalFile, raw));
    ASSERT_GT(raw.size(), std::size_t(1) << 20);

    const WalScanResult whole = scanWal(raw);
    const WalScanResult streamed = scanWal(
        walSource(fs, kWalFile),
        [](std::uint64_t height) { return height > 30; });
    EXPECT_TRUE(streamed.tailCorrupt);
    EXPECT_EQ(streamed.note, whole.note);
    EXPECT_EQ(streamed.validBytes, whole.validBytes);
    ASSERT_EQ(streamed.records.size(), 40u);
    ASSERT_EQ(whole.records.size(), 40u);
    for (std::size_t i = 0; i < 40; ++i) {
        const WalRecord &a = streamed.records[i], &b = whole.records[i];
        EXPECT_EQ(a.height, b.height);
        EXPECT_EQ(a.postDigest, b.postDigest);
        // Only the blocks the caller asked for are kept.
        EXPECT_EQ(a.blockRlp, a.height > 30 ? b.blockRlp : Bytes());
    }
}

TEST(WalWriter, ReopeningAppendsAfterExistingRecords)
{
    TempDir t;
    FileStorage fs(t.path);
    {
        WalWriter w(fs);
        w.append(chainedRecord(1));
    }
    {
        WalWriter w(fs); // non-empty file: no second magic
        w.append(chainedRecord(2));
    }
    Bytes raw;
    ASSERT_TRUE(fs.read(kWalFile, raw));
    WalScanResult scan = scanWal(raw);
    EXPECT_FALSE(scan.tailCorrupt);
    ASSERT_EQ(scan.records.size(), 2u);
}

TEST(WalWriter, LatchesBrokenOnFailedSync)
{
    TempDir t;
    FileStorage inner(t.path);
    fault::StorageFaultParams params;
    fault::FaultyStorage fs(inner, params);
    WalWriter w(fs);

    EXPECT_TRUE(w.append(chainedRecord(1)));
    fs.schedule(kWalFile, fault::StorageFaultKind::FailSync);
    EXPECT_FALSE(w.append(chainedRecord(2)));
    EXPECT_TRUE(w.broken());
    // Once broken, the writer must not resume: a later successful
    // append would leave a height gap recovery reads as corruption.
    EXPECT_FALSE(w.append(chainedRecord(3)));
    EXPECT_EQ(w.appendedRecords(), 1u);

    Bytes raw;
    ASSERT_TRUE(inner.read(kWalFile, raw));
    WalScanResult scan = scanWal(raw);
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].height, 1u);
}

} // namespace
} // namespace mtpu::persist
