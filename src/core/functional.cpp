#include "core/functional.hpp"

#include "evm/speculative.hpp"
#include "obs/metrics.hpp"

namespace mtpu::core {

FunctionalPipeline::FunctionalPipeline(const evm::WorldState &pre_state,
                                       int threads)
    : state_(pre_state), pool_(support::ThreadPool::forThreads(threads))
{}

FunctionalBlockResult
FunctionalPipeline::executeBlock(const workload::BlockRun &block)
{
    FunctionalBlockResult out;
    out.txCount = block.txs.size();
    out.receipts.reserve(block.txs.size());

    // Speculative fan-out (pool only) against state_, then the
    // single-owner program-order commit: valid speculations replay
    // their recorded deltas, everything else re-executes on the fast
    // tier. Bit-identical to sequential reference execution for any
    // thread count.
    evm::SpecOptions opts;
    opts.fastTier = true;
    opts.commutative = commutative_;
    evm::BlockCommitter committer(state_, block.header, block.transactions(),
                                  opts, pool_.get());
    for (std::size_t i = 0; i < block.txs.size(); ++i) {
        evm::CommittedTx c = committer.commit(i);
        out.receipts.push_back(std::move(c.receipt));
        if (c.replayed()) {
            ++out.replayed;
            continue;
        }
        ++out.reexecuted;
        if (c.verdict == evm::SpecVerdict::BoundsMiss)
            ++out.reexecBoundsMiss;
        else if (c.verdict)
            ++out.reexecValidationMiss;
    }

    // Deliberately no per-block digest: hashing the whole state is
    // O(state size) and would dominate the fast tier's wall clock.
    // Callers that want the digest take it from state() when needed.
    MTPU_OBS_COUNT("functional.blocks", 1);
    MTPU_OBS_COUNT("functional.txs", out.txCount);
    return out;
}

} // namespace mtpu::core
