/**
 * @file
 * Parameterized adversarial / DeFi-composability workload packs
 * (DESIGN.md §15). Production traffic is uglier than the paper's TOP8
 * mix: application-inherent conflict patterns — flash-loan call
 * chains, mint storms on a monotonic counter, airdrop fanouts from
 * one sender, oracle-update-then-liquidate bursts, and outright
 * adversarial recursion/poisoning/gas-griefing — are exactly the
 * shapes that break speculative and commutativity-aware execution.
 * Each pack drafts deterministic transactions against the deployed
 * contract universe; the shared Generator::buildBlockFrom builder
 * stamps the header and runs the consensus stage.
 *
 * Drafting and block building are split so the stress fuzzer can
 * interleave drafts from several packs into one block.
 */

#pragma once

#include <string>
#include <vector>

#include "workload/workload.hpp"

namespace mtpu::workload {

/** The workload packs. */
enum class Pack
{
    HotToken,        ///< every tx a Dai transfer to one hot receiver
    MintStorm,       ///< distinct senders mint; totalSupply hotspot
    FlashLoan,       ///< borrow -> swap -> repay across 4 contracts
    Airdrop,         ///< one sender fans out to fresh receivers
    OracleLiquidate, ///< price writes then dependent liquidations
    Adversarial,     ///< recursion, poisoning, gas griefing
};

/** Stable lowercase name (CLI `--pack NAME`, bench JSON keys). */
const char *packName(Pack pack);

/** Parse a pack name; returns false (and leaves @p out) on no match. */
bool parsePack(const std::string &name, Pack &out);

/** All packs, in enum order. */
const std::vector<Pack> &allPacks();

/** Pack knobs beyond the transaction count. */
struct PackParams
{
    int txCount = 64;
    /** OracleLiquidate: number of distinct price feeds. */
    int feeds = 4;
    /** Adversarial: recursive self-call depth of the poke() txs. */
    int recursionDepth = 6;
};

/**
 * Draft the pack's transactions (deterministic in the pack, params
 * and the generator's user universe; no RNG draws, no execution).
 */
std::vector<Generator::PackTx> draftPack(Generator &gen, Pack pack,
                                         const PackParams &params);

/** Draft the pack and build + consensus-execute the block. */
BlockRun buildPackBlock(Generator &gen, Pack pack,
                        const PackParams &params);

} // namespace mtpu::workload
