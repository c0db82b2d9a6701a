/**
 * @file
 * Block-granular write-ahead log (DESIGN.md §12).
 *
 * File layout: an 8-byte magic ("MTPUWAL2") followed by CRC-framed
 * records, one per committed block:
 *
 *     [u32 payload length LE][u32 CRC32(payload) LE][RLP payload]
 *
 * The payload is the RLP list [height, txDigest, preDigest,
 * postDigest, receiptDigest, blockRlp]: the digests chain each record
 * to its predecessor (preDigest of record N must equal postDigest of
 * record N-1), txDigest identifies the cut transaction list so a
 * restarted run can verify it rebuilds the same blocks, and blockRlp
 * is the full workload::BlockRun encoding used for replay.
 *
 * Append durability: one append + fsync per committed slot. A failed
 * append or sync latches the writer broken — it stops persisting
 * rather than risk a height gap in the log, which recovery would
 * (correctly) treat as semantic corruption. Availability over
 * durability: the live chain keeps running, the log just ends early.
 *
 * Scanning tolerates arbitrary byte damage at the tail (torn write,
 * truncation, bit flip, lost unsynced suffix): the scan stops at the
 * first frame that fails length or CRC validation and reports the
 * byte offset of the valid prefix so recovery can truncate there.
 * Because frames are length-prefixed there is no way to resync past a
 * damaged frame, so everything after it is discarded by design.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "persist/storage.hpp"
#include "support/u256.hpp"

namespace mtpu::persist {

/** Name of the log file inside the data directory. */
inline const char *const kWalFile = "wal.log";

/** 8-byte magic at offset 0 of every WAL file. */
Bytes walMagic();

/**
 * Magic of format v1 ("MTPUWAL1"), whose digests use the chained state
 * digest that v2's state commitment replaced (DESIGN.md §12, §16).
 * Such a log is refused, never repaired.
 */
Bytes legacyWalMagic();

/** One committed block as persisted in the WAL. */
struct WalRecord
{
    std::uint64_t height = 0;
    U256 txDigest;      ///< keccak chain over the cut tx RLP payloads
    U256 preDigest;     ///< WorldState::digest() before the block
    U256 postDigest;    ///< WorldState::digest() after the block
    U256 receiptDigest; ///< aggregate receipt digest of the block
    Bytes blockRlp;     ///< workload::BlockRun::toRlp()

    /** RLP-encode the record payload (no frame). */
    Bytes encodePayload() const;

    /**
     * Decode a payload produced by encodePayload().
     * @throws std::invalid_argument on malformed input.
     */
    static WalRecord decodePayload(const Bytes &payload);
};

/** Wrap @p payload in the [len][crc][payload] frame. */
Bytes walFrame(const Bytes &payload);

/** Result of scanning a WAL image for its valid record prefix. */
struct WalScanResult
{
    std::vector<WalRecord> records; ///< decoded valid prefix
    std::uint64_t validBytes = 0;   ///< end offset of the valid prefix
    bool tailCorrupt = false;       ///< bytes past validBytes are damaged
    bool legacyFormat = false;      ///< format v1 log: not scanned at all
    std::string note;               ///< why the scan stopped early
};

/**
 * Scan a raw WAL image. Byte-level damage (bad magic, short frame,
 * CRC mismatch, undecodable payload) stops the scan and sets
 * tailCorrupt; records decoded before that point are returned. A
 * format v1 image sets legacyFormat instead and is not scanned. An
 * empty image is valid (fresh log). Semantic validation of the record
 * sequence (height continuity, digest chaining) is recovery's job.
 */
WalScanResult scanWal(const Bytes &raw);

/**
 * Piecewise access to a WAL image: fills @p out with up to @p len
 * bytes at @p offset (fewer at the end, none past it); false when the
 * image cannot be read, which the scan treats as its end.
 */
using WalSource = std::function<bool(std::uint64_t offset,
                                     std::uint64_t len, Bytes &out)>;

/** A WalSource over @p name in @p store, read in 1 MiB chunks. */
WalSource walSource(const Storage &store, const std::string &name);

/**
 * As scanWal(raw), reading through @p source. A record keeps its
 * blockRlp only when @p keepBlock(height) is true; the others come back
 * with it empty. Recovery keeps only the blocks it replays, so its
 * memory does not grow with the length of the log.
 */
WalScanResult scanWal(const WalSource &source,
                      const std::function<bool(std::uint64_t)> &keepBlock);

/**
 * Appender. Assumes recovery has already truncated the file to a
 * valid prefix (or the file is new); writes the magic when starting
 * from an empty file.
 */
class WalWriter
{
  public:
    WalWriter(Storage &store, std::string file = kWalFile);

    /**
     * Frame, append and fsync one record. Returns false and latches
     * broken() on any storage failure; once broken, all further
     * appends are no-ops returning false.
     */
    bool append(const WalRecord &rec);

    bool broken() const { return broken_; }
    std::uint64_t appendedRecords() const { return appended_; }
    std::uint64_t appendedBytes() const { return bytes_; }

    Storage &store() { return store_; }
    const std::string &file() const { return file_; }

  private:
    Storage &store_;
    std::string file_;
    bool broken_ = false;
    std::uint64_t appended_ = 0;
    std::uint64_t bytes_ = 0;
};

} // namespace mtpu::persist
