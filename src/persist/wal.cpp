#include "persist/wal.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "support/crc32.hpp"
#include "support/rlp.hpp"

namespace mtpu::persist {

namespace {

/** Reject frames whose length field cannot be a real record. */
constexpr std::uint64_t kMaxPayload = 1u << 28;

std::uint32_t
readU32(const Bytes &raw, std::uint64_t off)
{
    return std::uint32_t(raw[off]) | (std::uint32_t(raw[off + 1]) << 8)
        | (std::uint32_t(raw[off + 2]) << 16)
        | (std::uint32_t(raw[off + 3]) << 24);
}

/** Copy up to @p len bytes of @p all at @p offset into @p out. */
void
copyRange(const Bytes &all, std::uint64_t offset, std::uint64_t len,
          Bytes &out)
{
    const std::uint64_t from = std::min<std::uint64_t>(offset, all.size());
    const std::uint64_t n = std::min<std::uint64_t>(len, all.size() - from);
    out.assign(all.begin() + long(from), all.begin() + long(from + n));
}

void
putU32(Bytes &out, std::uint32_t v)
{
    out.push_back(std::uint8_t(v));
    out.push_back(std::uint8_t(v >> 8));
    out.push_back(std::uint8_t(v >> 16));
    out.push_back(std::uint8_t(v >> 24));
}

} // namespace

Bytes
walMagic()
{
    static const char magic[] = "MTPUWAL2";
    return Bytes(magic, magic + 8);
}

Bytes
legacyWalMagic()
{
    static const char magic[] = "MTPUWAL1";
    return Bytes(magic, magic + 8);
}

Bytes
WalRecord::encodePayload() const
{
    return rlp::encode(rlp::Item::makeList(
        {rlp::Item::word(U256(height)), rlp::Item::word(txDigest),
         rlp::Item::word(preDigest), rlp::Item::word(postDigest),
         rlp::Item::word(receiptDigest), rlp::Item::bytes(blockRlp)}));
}

WalRecord
WalRecord::decodePayload(const Bytes &payload)
{
    rlp::Item root = rlp::decode(payload);
    if (!root.isList || root.list.size() != 6)
        throw std::invalid_argument("WalRecord: bad shape");
    for (std::size_t i = 0; i < 6; ++i)
        if (root.list[i].isList)
            throw std::invalid_argument("WalRecord: bad field");
    WalRecord rec;
    rec.height = root.list[0].toWord().low64();
    rec.txDigest = root.list[1].toWord();
    rec.preDigest = root.list[2].toWord();
    rec.postDigest = root.list[3].toWord();
    rec.receiptDigest = root.list[4].toWord();
    rec.blockRlp = root.list[5].str;
    return rec;
}

Bytes
walFrame(const Bytes &payload)
{
    Bytes out;
    out.reserve(payload.size() + 8);
    putU32(out, std::uint32_t(payload.size()));
    putU32(out, crc32(payload));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

WalScanResult
scanWal(const Bytes &raw)
{
    return scanWal(
        [&raw](std::uint64_t offset, std::uint64_t len, Bytes &out) {
            copyRange(raw, offset, len, out);
            return true;
        },
        [](std::uint64_t) { return true; });
}

WalSource
walSource(const Storage &store, const std::string &name)
{
    constexpr std::uint64_t kChunk = 1u << 20;
    struct Chunk
    {
        Bytes bytes;
        std::uint64_t start = 0;
        bool loaded = false;
    };
    auto chunk = std::make_shared<Chunk>();
    return [&store, name, chunk](std::uint64_t offset, std::uint64_t len,
                                 Bytes &out) {
        if (len > kChunk)
            return store.readRange(name, offset, len, out);
        Chunk &c = *chunk;
        if (!c.loaded || offset < c.start
            || offset + len > c.start + c.bytes.size()) {
            c.loaded = store.readRange(name, offset, kChunk, c.bytes);
            c.start = offset;
            if (!c.loaded)
                return false;
        }
        copyRange(c.bytes, offset - c.start, len, out);
        return true;
    };
}

WalScanResult
scanWal(const WalSource &source,
        const std::function<bool(std::uint64_t)> &keepBlock)
{
    WalScanResult res;
    Bytes head;
    if (!source(0, 8, head) || head.empty())
        return res;

    if (head == legacyWalMagic()) {
        res.legacyFormat = true;
        res.note = "WAL format v1 (MTPUWAL1)";
        return res;
    }
    if (head != walMagic()) {
        res.tailCorrupt = true;
        res.note = "bad magic";
        return res;
    }

    std::uint64_t off = head.size();
    res.validBytes = off;
    Bytes payload;
    while (source(off, 8, head) && !head.empty()) {
        if (head.size() < 8) {
            res.tailCorrupt = true;
            res.note = "truncated frame header";
            break;
        }
        std::uint64_t len = readU32(head, 0);
        std::uint32_t crc = readU32(head, 4);
        if (len > kMaxPayload || !source(off + 8, len, payload)
            || payload.size() < len) {
            res.tailCorrupt = true;
            res.note = "frame extends past end of file";
            break;
        }
        if (crc32(payload) != crc) {
            res.tailCorrupt = true;
            res.note = "CRC mismatch";
            break;
        }
        WalRecord rec;
        try {
            rec = WalRecord::decodePayload(payload);
        } catch (const std::invalid_argument &) {
            // CRC passed but the payload does not parse — corruption
            // that happens to preserve the checksum, or a foreign
            // record format. Treat as byte damage.
            res.tailCorrupt = true;
            res.note = "undecodable payload";
            break;
        }
        if (!keepBlock(rec.height))
            Bytes().swap(rec.blockRlp);
        res.records.push_back(std::move(rec));
        off += 8 + len;
        res.validBytes = off;
    }
    return res;
}

WalWriter::WalWriter(Storage &store, std::string file)
    : store_(store), file_(std::move(file))
{
    if (store_.size(file_) == 0) {
        if (!store_.append(file_, walMagic())
            || !store_.sync(file_))
            broken_ = true;
    }
}

bool
WalWriter::append(const WalRecord &rec)
{
    if (broken_)
        return false;
    Bytes frame = walFrame(rec.encodePayload());
    if (!store_.append(file_, frame)) {
        broken_ = true;
        return false;
    }
    if (!store_.sync(file_)) {
        MTPU_OBS_COUNT("persist.fsync_failures", 1);
        broken_ = true;
        return false;
    }
    ++appended_;
    bytes_ += frame.size();
    MTPU_OBS_COUNT("persist.wal_appends", 1);
    MTPU_OBS_COUNT("persist.wal_bytes", frame.size());
    MTPU_OBS_COUNT("persist.fsyncs", 1);
    return true;
}

} // namespace mtpu::persist
