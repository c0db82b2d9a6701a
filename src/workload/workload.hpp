/**
 * @file
 * Workload generation: synthetic blocks with controlled dependency
 * ratio, ERC20 share and contract-popularity skew, matching the
 * independent variables of the paper's evaluation (Figs. 13-16,
 * Tables 8/9).
 *
 * Blocks are generated, then executed sequentially on a scratch copy
 * of the world state ("consensus stage"): this yields the per-tx
 * execution traces, the read/write sets, and the ground-truth
 * dependency DAG that the paper assumes is shipped inside the block
 * (§2.2.2).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "contracts/contracts.hpp"
#include "evm/interpreter.hpp"
#include "evm/state.hpp"
#include "evm/trace.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace mtpu::workload {

/** One generated transaction plus everything learned about it. */
struct TxRecord
{
    evm::Transaction tx;
    std::string contract;   ///< contract name
    std::string function;   ///< entry-function name
    bool isErc20 = false;
    evm::Trace trace;       ///< consensus-stage execution trace
    evm::Receipt receipt;
    evm::AccessSet access;  ///< coinbase-fee accesses filtered out
    std::vector<int> deps;  ///< indices of earlier conflicting txs
    int redundancy = 0;     ///< later txs invoking the same contract
};

/** A generated block with its dependency DAG. */
struct BlockRun
{
    evm::BlockHeader header;
    std::vector<TxRecord> txs;

    /** The state transition the consensus stage ran the block over. */
    struct ConsensusDigest
    {
        U256 pre;  ///< digest of the state the block ran on
        U256 post; ///< digest after it, in program order
    };

    /**
     * Set by runConsensusStage(), like a header's parent and state
     * roots; not part of toRlp(), so fromRlp() leaves it unset. An
     * Auditor whose genesis digests to `pre` compares the engine's
     * final state against `post` instead of replaying the block
     * (DESIGN.md §8); against any other pre-state it replays.
     */
    std::optional<ConsensusDigest> consensusDigest;

    /** The transactions in program order (evm::BlockCommitter input). */
    std::vector<const evm::Transaction *> transactions() const;

    /** Fraction of transactions with at least one dependency. */
    double measuredDepRatio() const;
    /** Fraction of transactions on ERC20 contracts. */
    double erc20Ratio() const;
    /** Length of the longest dependency chain (critical path). */
    int criticalPathLength() const;

    /**
     * Serialize header, transactions, the dependency DAG and the
     * redundancy values to RLP — the paper's blocks carry the
     * serialized DAG so every node benefits from the consensus-stage
     * analysis (§2.2.2, footnote 3).
     */
    Bytes toRlp() const;

    /**
     * Parse the network form back. Traces, receipts and access sets
     * are not transported; re-derive them with
     * Generator-style consensus execution if needed.
     * @throws std::invalid_argument on malformed input.
     */
    static BlockRun fromRlp(const Bytes &encoded);
};

/** Generation knobs. */
struct BlockParams
{
    int txCount = 64;
    /** Target fraction of dependent transactions in [0, 1]. */
    double depRatio = 0.0;
    /**
     * Target ERC20 share in [0, 1]; negative means "natural" mix
     * (Zipf over the TOP8).
     */
    double erc20Share = -1.0;
    /** Zipf exponent of contract popularity (natural mix). */
    double zipfS = 1.0;
    /** Restrict to a single contract (Fig. 13); empty = all. */
    std::string onlyContract;
};

/**
 * Consensus-stage execution against an arbitrary pre-block state:
 * program-order execution filling each TxRecord's trace, receipt and
 * access set, then the ground-truth dependency DAG and redundancy
 * values, and the pre- and post-state digests in
 * BlockRun::consensusDigest. With a pool, transactions are
 * speculatively pre-executed in parallel and committed in program
 * order via validate-or-re-execute — bit-identical to the sequential
 * path — and the post-state digest is hashed while the DAG is built.
 * This is the batch Generator's consensus stage factored out so the
 * streaming block builder can run it against the evolving chain state.
 */
/**
 * @param commutative_dag when true, DAG edges between transaction
 *        pairs whose only overlap is commutative delta traffic
 *        (validated by the group-interval classifier, DESIGN.md §14)
 *        are elided — mirroring the long-standing coinbase exemption.
 *        Off by default so shipped DAGs stay exact; access sets always
 *        carry the commutative classification either way.
 */
void runConsensusStage(BlockRun &block, const evm::WorldState &pre_state,
                       support::ThreadPool *pool = nullptr,
                       bool commutative_dag = false);

/** The conflict relation of a block's access sets, as a DAG. */
struct ConflictGraph
{
    /** Per transaction, its conflicting earlier ones, ascending. */
    std::vector<std::vector<int>> preds;
    /** Conflicting pairs dropped by commutative elision. */
    std::uint64_t elided = 0;
};

/**
 * The one conflict-graph builder (DESIGN.md §8, §14): i < j is an edge
 * when AccessSet::conflictsWith holds — j writes a key i reads or
 * writes, or reads a key i writes. Candidates come from a key index of
 * earlier readers and writers, so disjoint pairs cost nothing. With
 * @p elide_commutative a candidate keeps its edge only when
 * evm::conflictsExactly(j, i, @p veto) holds; the rest count in
 * `elided`. The consensus stage ships this graph as the deps; the
 * engine and the auditor rebuild it as ground truth.
 */
ConflictGraph conflictGraph(const BlockRun &block, bool elide_commutative,
                            const std::set<evm::StateKey> &veto);

/**
 * The generator. Owns the deployed contract universe and a pristine
 * post-deployment world state that each block starts from.
 */
class Generator
{
  public:
    /**
     * @param threads host threads for the consensus stage, resolved by
     *        support::ThreadPool::resolveThreads(): 1 (default)
     *        executes sequentially, >1 pre-executes
     *        transactions on a work-stealing pool and commits them
     *        in program order (DESIGN.md §9). Generated blocks are
     *        bit-identical at every value.
     */
    explicit Generator(std::uint64_t seed = 1, int num_users = 512,
                       int threads = 1);

    /** Generate a block and execute it sequentially for ground truth. */
    BlockRun generateBlock(const BlockParams &params);

    /**
     * Build a batch of single-contract transactions covering the
     * contract's entry functions (Fig. 12/13 workloads).
     */
    BlockRun contractBatch(const std::string &contract, int tx_count);

    /**
     * One drafted (not yet executed) pack transaction. The workload
     * packs (packs.hpp) draft these and hand them to buildBlockFrom;
     * the stress fuzzer interleaves drafts from several packs into a
     * single adversarial block.
     */
    struct PackTx
    {
        evm::Transaction tx;
        std::string contract;
        std::string function;
        bool isErc20 = false;
    };

    /**
     * The shared block builder behind every hand-rolled pack: stamps
     * the standard synthetic header (height/timestamp advance with the
     * generator's block counter), adopts the drafts in order and runs
     * the consensus stage for ground-truth traces, receipts and DAG.
     */
    BlockRun buildBlockFrom(std::vector<PackTx> drafts);

    /** The k-th synthetic user (wraps around the universe). */
    evm::Address user(int k) const
    {
        return users_[std::size_t(k) % users_.size()];
    }

    /**
     * Elide commutative-only DAG edges in subsequently generated
     * blocks (passed through to runConsensusStage). Default off.
     */
    void setCommutativeDag(bool on) { commutativeDag_ = on; }

    /**
     * Execute one explicit call on a fresh copy of the genesis state
     * and return the full record (trace, receipt, access set). Used by
     * targeted experiments and examples.
     */
    TxRecord singleCall(const std::string &contract,
                        const std::string &function,
                        const std::vector<U256> &args,
                        const U256 &value = U256(), int sender = 0);

    /**
     * Draft one independent transaction (no execution) for streaming
     * producers: the tx plus its contract/function labels. Negative
     * @p erc20_share selects the natural Zipf TOP8 mix. Deterministic
     * given the generator's call history.
     */
    TxRecord draftStreamTx(double erc20_share = -1.0,
                           double zipf_s = 1.0);

    const contracts::ContractSet &contracts() const { return set_; }

    /** Pristine world state (post-deployment). */
    const evm::WorldState &genesis() const { return genesis_; }

    /** The synthetic user universe (all funded in genesis). */
    const std::vector<evm::Address> &users() const { return users_; }

  private:
    struct Draft
    {
        evm::Transaction tx;
        std::string contract;
        std::string function;
        bool isErc20 = false;
    };

    /** Fresh user that has not yet acted in the current block. */
    evm::Address freshUser();
    /** Independent (conflict-free) transaction. */
    Draft draftIndependent(double erc20_share, double zipf_s,
                           const std::string &only);
    /** Transaction designed to conflict with @p prior. */
    Draft draftDependent(const Draft &prior);

    Draft draftTokenOp(const contracts::ContractSpec &spec);
    Draft draftSwap(const contracts::ContractSpec &router);
    Draft draftMarket(const contracts::ContractSpec &mkt);
    Draft draftGateway();
    Draft draftVote();

    /**
     * Program-order execution to obtain traces/receipts/deps. With a
     * pool, transactions are speculatively pre-executed in parallel
     * against the genesis state and committed in program order via
     * validate-or-re-execute — bit-identical to the sequential path.
     */
    void runConsensusStage(BlockRun &block);

    contracts::ContractSet set_;
    evm::WorldState genesis_;
    std::vector<evm::Address> users_;
    Rng rng_;
    std::unique_ptr<support::ThreadPool> pool_;

    // Per-block allocation cursors (reset in generateBlock).
    int userCursor_ = 0;
    int auctionCursor_ = 0;    ///< pre-opened auction ids
    int saleTokenCursor_ = 0;  ///< owned-but-unauctioned token ids
    int proposalCursor_ = 0;
    int seedCursor_ = 0;       ///< rotates chain seeds over the TOP8
    std::uint64_t blockCounter_ = 0;
    bool commutativeDag_ = false;
};

} // namespace mtpu::workload
