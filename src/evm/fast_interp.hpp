/**
 * @file
 * Functional fast-execution tier (DESIGN.md §13): a direct-threaded
 * interpreter over pre-decoded bytecode (evm/decode.hpp) with
 * arena-allocated call frames, no per-instruction tracing and no taint
 * bookkeeping. Semantics — receipts, gas, logs, state deltas, error
 * classification — are bit-identical to the reference Interpreter;
 * differential tests in tests/functional pin this.
 *
 * Runs that need per-instruction hooks (trace capture, armed abort
 * injection, commutative tagging) belong to the reference Interpreter;
 * evm::BlockCommitter picks the tier per transaction.
 */

#pragma once

#include <memory>
#include <vector>

#include "evm/interpreter.hpp"
#include "evm/state.hpp"
#include "evm/types.hpp"

namespace mtpu::evm {

class DecodeCache;
struct FastFrame;

/**
 * Drop-in functional replacement for Interpreter. One instance per
 * executing thread; frames and stacks are reused across transactions
 * (reset, not reallocated), so a long-lived instance amortizes all
 * per-call allocation.
 */
class FastInterpreter
{
  public:
    FastInterpreter();
    ~FastInterpreter();
    FastInterpreter(const FastInterpreter &) = delete;
    FastInterpreter &operator=(const FastInterpreter &) = delete;

    /** Same contract as Interpreter::call. */
    CallResult call(WorldState &state, const BlockHeader &header,
                    const Address &origin, const U256 &gas_price,
                    const CallParams &params);

    /** Same contract as Interpreter::applyTransaction. */
    Receipt applyTransaction(WorldState &state, const BlockHeader &header,
                             const Transaction &tx,
                             bool commitState = true);

    /** Logs collected by the most recent applyTransaction/call. */
    const std::vector<LogEntry> &logs() const { return logs_; }

  private:
    friend struct FastCtx;

    FastFrame &frameAt(std::size_t depth);

    std::vector<LogEntry> logs_;
    std::vector<std::unique_ptr<FastFrame>> arena_;
    DecodeCache *cache_;
};

} // namespace mtpu::evm
