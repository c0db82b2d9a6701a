#include "persist/snapshot.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "support/keccak.hpp"
#include "support/rlp.hpp"

namespace mtpu::persist {

namespace {

const char kSnapMagic[] = "MTPUSNP2";
/** Format v1: its chain digest is the replaced chained state digest. */
const char kLegacySnapMagic[] = "MTPUSNAP";
constexpr std::size_t kMagicLen = 8;
constexpr std::size_t kHashLen = 32;

} // namespace

std::string
SnapshotStore::fileName(std::uint64_t height)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "snapshot-%012llu.snap",
                  static_cast<unsigned long long>(height));
    return buf;
}

bool
SnapshotStore::parseName(const std::string &name,
                         std::uint64_t &height_out)
{
    const std::string prefix = "snapshot-";
    const std::string suffix = ".snap";
    if (name.size() != prefix.size() + 12 + suffix.size()
        || name.compare(0, prefix.size(), prefix) != 0
        || name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix)
            != 0)
        return false;
    std::uint64_t h = 0;
    for (std::size_t i = prefix.size(); i < prefix.size() + 12; ++i) {
        char c = name[i];
        if (c < '0' || c > '9')
            return false;
        h = h * 10 + std::uint64_t(c - '0');
    }
    height_out = h;
    return true;
}

bool
SnapshotStore::write(std::uint64_t height, const U256 &chain_digest,
                     const evm::WorldState &state)
{
    auto start = std::chrono::steady_clock::now();

    // Encoded straight into one exactly sized buffer: the file is the
    // only state-sized allocation a snapshot makes.
    const std::size_t state_len = state.rlpSize();
    const std::size_t payload = rlp::wordSize(U256(height))
                              + rlp::wordSize(chain_digest)
                              + rlp::listSize(state_len);
    Bytes file;
    file.reserve(kMagicLen + kHashLen + rlp::listSize(payload));
    file.assign(kSnapMagic, kSnapMagic + kMagicLen);
    file.resize(kMagicLen + kHashLen); // the hash, filled in below
    rlp::appendListHeader(file, payload);
    rlp::appendWord(file, U256(height));
    rlp::appendWord(file, chain_digest);
    rlp::appendStringHeader(file, state_len);
    state.appendRlp(file);
    keccak256(file.data() + kMagicLen + kHashLen,
              file.size() - kMagicLen - kHashLen,
              file.data() + kMagicLen);

    if (!store_.writeAtomic(fileName(height), file))
        return false;

    // Prune older snapshots, newest first.
    std::vector<std::uint64_t> heights;
    for (const std::string &name : store_.list()) {
        std::uint64_t h = 0;
        if (parseName(name, h))
            heights.push_back(h);
    }
    std::sort(heights.rbegin(), heights.rend());
    for (std::size_t i = kKeepSnapshots; i < heights.size(); ++i)
        store_.remove(fileName(heights[i]));

    auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    MTPU_OBS_COUNT("persist.snapshot_count", 1);
    MTPU_OBS_COUNT("persist.snapshot_bytes", file.size());
    MTPU_OBS_HIST("persist.snapshot_micros", obs::pow2Bounds(4, 24),
                  std::uint64_t(micros));
    return true;
}

std::optional<LoadedSnapshot>
SnapshotStore::loadNewest(std::uint64_t *corrupt_out,
                          std::string *legacy_out)
{
    std::vector<std::uint64_t> heights;
    for (const std::string &name : store_.list()) {
        std::uint64_t h = 0;
        if (parseName(name, h))
            heights.push_back(h);
    }
    std::sort(heights.rbegin(), heights.rend());

    for (std::uint64_t h : heights) {
        Bytes raw;
        if (!store_.read(fileName(h), raw)) {
            if (corrupt_out)
                ++*corrupt_out;
            store_.remove(fileName(h));
            continue;
        }
        if (raw.size() >= kMagicLen
            && std::equal(kLegacySnapMagic, kLegacySnapMagic + kMagicLen,
                          raw.begin())) {
            // Another format version, not damage: leave it and stop.
            if (legacy_out)
                *legacy_out = fileName(h);
            return std::nullopt;
        }
        LoadedSnapshot snap;
        if (validate(raw, snap) && snap.height == h)
            return snap;
        if (corrupt_out)
            ++*corrupt_out;
        // A snapshot that fails validation is useless forever; remove
        // it so the fallback is stable across restarts.
        store_.remove(fileName(h));
    }
    return std::nullopt;
}

bool
SnapshotStore::validate(const Bytes &raw, LoadedSnapshot &out)
{
    if (raw.size() < kMagicLen + kHashLen)
        return false;
    if (!std::equal(kSnapMagic, kSnapMagic + kMagicLen, raw.begin()))
        return false;
    const std::uint8_t *body = raw.data() + kMagicLen + kHashLen;
    const std::size_t body_len = raw.size() - kMagicLen - kHashLen;
    std::uint8_t want[kHashLen];
    keccak256(body, body_len, want);
    if (!std::equal(want, want + kHashLen, raw.begin() + kMagicLen))
        return false;

    try {
        rlp::Reader top(body, body_len);
        rlp::Reader fields = top.list();
        out.height = fields.word().low64();
        out.chainDigest = fields.word();
        const auto [state, state_len] = fields.bytes();
        if (!fields.atEnd() || !top.atEnd())
            return false;
        out.state = evm::WorldState::fromRlp(state, state_len);
    } catch (const std::invalid_argument &) {
        return false;
    }
    // Defence in depth: the decoded state must hash to the digest the
    // snapshot claims, independent of the whole-file integrity hash.
    return out.state.digest() == out.chainDigest;
}

} // namespace mtpu::persist
