/**
 * @file
 * Streaming block builder: cuts a block's worth of ready transactions
 * from the mempool under the deadline budget (tx-count and gas caps),
 * then runs the consensus stage against the evolving chain state so
 * the block carries the traces, receipts, access sets, ground-truth
 * dependency DAG and pre- and post-state digests the
 * SpatioTemporalEngine and the serializability Auditor require —
 * exactly what batch blocks carry, which is what keeps stream
 * execution bit-identical to batch execution for the same admitted
 * transactions.
 */

#pragma once

#include <map>
#include <string>
#include <vector>

#include "contracts/contracts.hpp"
#include "stream/mempool.hpp"
#include "support/thread_pool.hpp"
#include "workload/workload.hpp"

namespace mtpu::stream {

struct BuilderConfig
{
    /** Deadline budget: at most this many transactions per block. */
    std::size_t maxTxs = 64;
    /** Deadline budget: sum of declared gas limits per block. */
    std::uint64_t gasBudget = 30'000'000;
    /** Height of the first cut block. */
    std::uint64_t baseHeight = 1000;
};

/** A cut block plus its stream-side bookkeeping. */
struct BuiltBlock
{
    workload::BlockRun block;
    /** Arrival slot of each transaction, aligned with block.txs. */
    std::vector<std::uint64_t> arrivalSlots;

    bool empty() const { return block.txs.empty(); }
};

class BlockBuilder
{
  public:
    /** @param set contract universe, used to re-derive the
     *  contract/function labels the scheduler's redundancy steering
     *  keys on (wire transactions do not transport labels). */
    BlockBuilder(const contracts::ContractSet &set,
                 const BuilderConfig &cfg);

    /**
     * Cut the next block from @p pool and run its consensus stage
     * against @p pre_state (on @p host_pool when non-null). Returns an
     * empty BuiltBlock when the pool has nothing ready.
     */
    BuiltBlock build(Mempool &pool, const evm::WorldState &pre_state,
                     support::ThreadPool *host_pool);

    /**
     * Cut-only build: identical cut, header and labels (the cut
     * depends only on pool state, never on chain state), but no
     * consensus stage — no traces, receipts or DAG. Used for the
     * replay-skip phase after crash recovery: the pool must advance
     * exactly as live, but the block's execution already happened in
     * a previous process and its state came back via recovery.
     */
    BuiltBlock buildCut(Mempool &pool);

    /** Height the next cut block will carry. */
    std::uint64_t nextHeight() const { return cfg_.baseHeight + built_; }

    const BuilderConfig &config() const { return cfg_; }

  private:
    struct Label
    {
        std::string contract;
        bool isErc20 = false;
        const contracts::ContractSpec *spec = nullptr;
    };

    BuilderConfig cfg_;
    std::uint64_t built_ = 0;
    std::map<evm::Address, Label> byAddress_;
};

} // namespace mtpu::stream
