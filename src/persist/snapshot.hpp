/**
 * @file
 * Periodic WorldState snapshots (DESIGN.md §12).
 *
 * File layout ("snapshot-<height>.snap", atomic temp-write + rename):
 *
 *     [8-byte magic "MTPUSNP2"][32-byte keccak256(body)][body]
 *
 * where body is the RLP list [height, chainDigest, stateRlp] and
 * stateRlp is WorldState::toRlp(). A snapshot is valid only when the
 * integrity hash matches AND the decoded state's digest() equals the
 * stored chainDigest — a bit flip that survives keccak would still be
 * caught by the digest check, and vice versa.
 *
 * The store keeps the newest kKeepSnapshots files and prunes older
 * ones after each successful write; load falls back from newest to
 * oldest (then to genesis) when a snapshot fails validation, counting
 * each rejection as a corruption event.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "evm/state.hpp"
#include "persist/storage.hpp"
#include "support/u256.hpp"

namespace mtpu::persist {

/** Snapshots retained after pruning (newest first). */
constexpr std::size_t kKeepSnapshots = 2;

/** A validated snapshot: chain state as of the end of @p height. */
struct LoadedSnapshot
{
    std::uint64_t height = 0;
    U256 chainDigest;
    evm::WorldState state;
};

class SnapshotStore
{
  public:
    explicit SnapshotStore(Storage &store) : store_(store) {}

    /**
     * Serialize @p state (digest must equal @p chain_digest) and
     * atomically publish it as the snapshot for @p height, then prune
     * all but the newest kKeepSnapshots. Returns false on storage
     * failure; an existing newest snapshot is never damaged by a
     * failed write (temp + rename).
     */
    bool write(std::uint64_t height, const U256 &chain_digest,
               const evm::WorldState &state);

    /**
     * Load the newest snapshot that passes validation, deleting any
     * newer ones that fail (so the next run does not retry them).
     * A format v1 file ("MTPUSNAP", chained state digest) is not
     * damage: loading stops there and removes nothing further.
     * @param corrupt_out incremented once per rejected snapshot file.
     * @param legacy_out set to the name of the v1 file that stopped
     *        the load.
     * @return nullopt when no valid snapshot exists (start from
     *         genesis) or a v1 file was met.
     */
    std::optional<LoadedSnapshot>
    loadNewest(std::uint64_t *corrupt_out = nullptr,
               std::string *legacy_out = nullptr);

    /** File name for @p height ("snapshot-000000001007.snap"). */
    static std::string fileName(std::uint64_t height);

    /** Parse a snapshot file name; false when @p name is not one. */
    static bool parseName(const std::string &name,
                          std::uint64_t &height_out);

    /**
     * Validate a raw snapshot image (magic, integrity hash, decoded
     * state digest vs stored chainDigest). Exposed for corpus tests.
     */
    static bool validate(const Bytes &raw, LoadedSnapshot &out);

  private:
    Storage &store_;
};

} // namespace mtpu::persist
