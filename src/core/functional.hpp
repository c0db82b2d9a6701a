/**
 * @file
 * Functional fast-execution pipeline (DESIGN.md §13): the throughput
 * tier of the two-tier executor. Executes whole blocks with
 * speculative fan-out on a thread pool — each transaction runs on the
 * direct-threaded FastInterpreter behind the decoded-program and
 * result-memo caches — then commits in program order via
 * validate-or-re-execute. Receipts, logs and the state digest are
 * bit-identical to sequential reference execution at every thread
 * count.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "evm/state.hpp"
#include "support/thread_pool.hpp"
#include "workload/workload.hpp"

namespace mtpu::core {

/** Outcome of one functional block execution. */
struct FunctionalBlockResult
{
    std::vector<evm::Receipt> receipts;
    std::uint64_t txCount = 0;
    std::uint64_t replayed = 0;    ///< committed via delta replay
    std::uint64_t reexecuted = 0;  ///< missed validation, ran for real
    /** Subset of reexecuted: an exact observation no longer held. */
    std::uint64_t reexecValidationMiss = 0;
    /** Subset of reexecuted: a commutative range constraint failed. */
    std::uint64_t reexecBoundsMiss = 0;
};

/**
 * A long-lived functional executor over an owned chain state.
 *
 * Construction copies the pre-state; executeBlock() mutates the owned
 * state block by block, exactly like a node's canonical chain would
 * advance. Thread count 1 executes sequentially (no speculation);
 * >1 speculates on a pool and commits program-order.
 */
class FunctionalPipeline
{
  public:
    /**
     * @param pre_state starting chain state (copied).
     * @param threads host threads (ThreadPool::resolveThreads()):
     *        1 = sequential, > 1 = speculative fan-out.
     */
    explicit FunctionalPipeline(const evm::WorldState &pre_state,
                                int threads = 1);

    /** Execute and commit one block against the owned state. */
    FunctionalBlockResult executeBlock(const workload::BlockRun &block);

    /**
     * Commutative delta commits (DESIGN.md §14): speculations record
     * pure add/sub storage chains as (delta, constraints) and the
     * program-order commit validates them by range check + arithmetic
     * replay instead of exact pre-value match. Default off.
     */
    void setCommutative(bool on) { commutative_ = on; }

    const evm::WorldState &state() const { return state_; }

  private:
    evm::WorldState state_;
    std::unique_ptr<support::ThreadPool> pool_;
    bool commutative_ = false;
};

} // namespace mtpu::core
