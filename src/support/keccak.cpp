/**
 * @file
 * Keccak-f[1600] sponge with rate 1088 (Keccak-256).
 */

#include "support/keccak.hpp"

#include <cstring>

namespace mtpu {

namespace {

constexpr int kRounds = 24;

constexpr std::uint64_t kRoundConstants[kRounds] = {
    0x0000000000000001ull, 0x0000000000008082ull, 0x800000000000808aull,
    0x8000000080008000ull, 0x000000000000808bull, 0x0000000080000001ull,
    0x8000000080008081ull, 0x8000000000008009ull, 0x000000000000008aull,
    0x0000000000000088ull, 0x0000000080008009ull, 0x000000008000000aull,
    0x000000008000808bull, 0x800000000000008bull, 0x8000000000008089ull,
    0x8000000000008003ull, 0x8000000000008002ull, 0x8000000000000080ull,
    0x000000000000800aull, 0x800000008000000aull, 0x8000000080008081ull,
    0x8000000000008080ull, 0x0000000080000001ull, 0x8000000080008008ull,
};

// Rho rotation amounts and Pi lane order for the single-temp rho+pi
// walk: step i rotates the lane that lands at kPiLane[i].
constexpr int kRhoRot[kRounds] = {
    1,  3,  6,  10, 15, 21, 28, 36, 45, 55, 2,  14,
    27, 41, 56, 8,  25, 43, 62, 18, 39, 61, 20, 44,
};

constexpr int kPiLane[kRounds] = {
    10, 7,  11, 17, 18, 3, 5,  16, 8,  21, 24, 4,
    15, 23, 19, 13, 12, 2, 20, 14, 22, 9,  6,  1,
};

inline std::uint64_t
rotl(std::uint64_t v, int n)
{
    return (v << n) | (v >> (64 - n));
}

/**
 * The permutation over a flat 25-lane state (lane i = A[i%5, i/5]).
 * Theta and chi are hand-unrolled and rho+pi is the standard
 * single-temporary cycle walk; this runs several times faster than the
 * textbook 2-D formulation with modulo indexing, and keccak dominates
 * state digests, mapping slots and the cache keys, so it is a hot
 * function for the whole simulator.
 */
void
keccakF1600(std::uint64_t a[25])
{
    for (int round = 0; round < kRounds; ++round) {
        // Theta
        std::uint64_t c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20];
        std::uint64_t c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21];
        std::uint64_t c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22];
        std::uint64_t c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23];
        std::uint64_t c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24];
        std::uint64_t d0 = c4 ^ rotl(c1, 1);
        std::uint64_t d1 = c0 ^ rotl(c2, 1);
        std::uint64_t d2 = c1 ^ rotl(c3, 1);
        std::uint64_t d3 = c2 ^ rotl(c4, 1);
        std::uint64_t d4 = c3 ^ rotl(c0, 1);
        a[0] ^= d0; a[5] ^= d0; a[10] ^= d0; a[15] ^= d0; a[20] ^= d0;
        a[1] ^= d1; a[6] ^= d1; a[11] ^= d1; a[16] ^= d1; a[21] ^= d1;
        a[2] ^= d2; a[7] ^= d2; a[12] ^= d2; a[17] ^= d2; a[22] ^= d2;
        a[3] ^= d3; a[8] ^= d3; a[13] ^= d3; a[18] ^= d3; a[23] ^= d3;
        a[4] ^= d4; a[9] ^= d4; a[14] ^= d4; a[19] ^= d4; a[24] ^= d4;

        // Rho + Pi (tables are compile-time constants; the loop fully
        // unrolls, so every rotation amount is an immediate)
        std::uint64_t t = a[1];
        for (int i = 0; i < kRounds; ++i) {
            const int j = kPiLane[i];
            const std::uint64_t tmp = a[j];
            a[j] = rotl(t, kRhoRot[i]);
            t = tmp;
        }

        // Chi, row by row
        for (int j = 0; j < 25; j += 5) {
            const std::uint64_t b0 = a[j], b1 = a[j + 1], b2 = a[j + 2],
                                b3 = a[j + 3], b4 = a[j + 4];
            a[j] = b0 ^ (~b1 & b2);
            a[j + 1] = b1 ^ (~b2 & b3);
            a[j + 2] = b2 ^ (~b3 & b4);
            a[j + 3] = b3 ^ (~b4 & b0);
            a[j + 4] = b4 ^ (~b0 & b1);
        }

        // Iota
        a[0] ^= kRoundConstants[round];
    }
}

} // namespace

void
keccak256(const std::uint8_t *data, std::size_t len, std::uint8_t out[32])
{
    constexpr std::size_t rate = 136; // 1088 bits
    std::uint64_t state[25];
    std::memset(state, 0, sizeof(state));

    std::uint8_t block[rate];
    std::size_t offset = 0;
    while (len - offset >= rate) {
        for (std::size_t i = 0; i < rate / 8; ++i) {
            std::uint64_t lane;
            std::memcpy(&lane, data + offset + i * 8, 8);
            state[i] ^= lane;
        }
        keccakF1600(state);
        offset += rate;
    }

    // Final padded block: pad10*1 with Keccak domain byte 0x01.
    std::memset(block, 0, rate);
    if (len > offset) // data may be null when len == 0
        std::memcpy(block, data + offset, len - offset);
    block[len - offset] = 0x01;
    block[rate - 1] |= 0x80;
    for (std::size_t i = 0; i < rate / 8; ++i) {
        std::uint64_t lane;
        std::memcpy(&lane, block + i * 8, 8);
        state[i] ^= lane;
    }
    keccakF1600(state);

    std::memcpy(out, state, 32);
}

U256
keccak256Word(const std::vector<std::uint8_t> &data)
{
    std::uint8_t digest[32];
    keccak256(data.data(), data.size(), digest);
    return U256::fromBytes(digest, 32);
}

U256
keccak256Pair(const U256 &a, const U256 &b)
{
    std::uint8_t buf[64];
    a.toBytes(buf);
    b.toBytes(buf + 32);
    std::uint8_t digest[32];
    keccak256(buf, 64, digest);
    return U256::fromBytes(digest, 32);
}

} // namespace mtpu
