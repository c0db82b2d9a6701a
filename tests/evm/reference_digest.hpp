/**
 * @file
 * From-scratch reference for WorldState::digest() (DESIGN.md §16),
 * kept in tests only: it rebuilds the two-level commitment from the
 * canonical toRlp() encoding, with no cache, so the cached digest can
 * be checked against it differentially.
 */

#pragma once

#include <array>

#include "evm/state.hpp"
#include "support/keccak.hpp"
#include "support/rlp.hpp"

namespace mtpu::evm::testing {

inline void
appendWord32(Bytes &out, const U256 &w)
{
    std::uint8_t buf[32];
    w.toBytes(buf);
    out.insert(out.end(), buf, buf + 32);
}

/**
 * keccak over (address || commitment) in address order, where
 * commitment = keccak(nonce || balance || codeHash || storageRoot),
 * storageRoot = keccak over the 256 bucket hashes, and bucket b's hash
 * is keccak over its sorted (slot || value) pairs, slot low byte = b.
 */
inline U256
referenceDigest(const WorldState &state)
{
    WorldState settled = state; // toRlp() needs a closed journal
    settled.commit();
    const rlp::Item root = rlp::decode(settled.toRlp());

    Bytes top;
    for (const rlp::Item &acct : root.list) {
        std::array<Bytes, 256> buckets;
        // toRlp() emits slots sorted, so each bucket stays sorted.
        for (const rlp::Item &slot : acct.list[4].list) {
            const U256 key = slot.list[0].toWord();
            Bytes &b = buckets[std::size_t(key.low64() & 0xff)];
            appendWord32(b, key);
            appendWord32(b, slot.list[1].toWord());
        }
        static const U256 empty_bucket = keccak256Word({});
        Bytes roots;
        for (const Bytes &b : buckets)
            appendWord32(roots, b.empty() ? empty_bucket : keccak256Word(b));

        const Bytes &code = acct.list[3].str;
        Bytes fields;
        appendWord32(fields, acct.list[1].toWord());
        appendWord32(fields, acct.list[2].toWord());
        appendWord32(fields, code.empty() ? U256() : keccak256Word(code));
        appendWord32(fields, keccak256Word(roots));

        appendWord32(top, acct.list[0].toWord());
        appendWord32(top, keccak256Word(fields));
    }
    return keccak256Word(top);
}

} // namespace mtpu::evm::testing
