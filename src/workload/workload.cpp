#include "workload/workload.hpp"

#include <algorithm>
#include <map>

#include "evm/commutative.hpp"
#include "evm/speculative.hpp"
#include "obs/metrics.hpp"

namespace mtpu::workload {

using contracts::ContractSet;
using contracts::ContractSpec;
using evm::Address;

namespace sel = contracts::sel;

std::vector<const evm::Transaction *>
BlockRun::transactions() const
{
    std::vector<const evm::Transaction *> out;
    out.reserve(txs.size());
    for (const TxRecord &rec : txs)
        out.push_back(&rec.tx);
    return out;
}

double
BlockRun::measuredDepRatio() const
{
    if (txs.empty())
        return 0.0;
    int dependent = 0;
    for (const TxRecord &rec : txs)
        dependent += !rec.deps.empty();
    return double(dependent) / double(txs.size());
}

double
BlockRun::erc20Ratio() const
{
    if (txs.empty())
        return 0.0;
    int erc20 = 0;
    for (const TxRecord &rec : txs)
        erc20 += rec.isErc20;
    return double(erc20) / double(txs.size());
}

int
BlockRun::criticalPathLength() const
{
    std::vector<int> depth(txs.size(), 1);
    int longest = txs.empty() ? 0 : 1;
    for (std::size_t i = 0; i < txs.size(); ++i) {
        for (int d : txs[i].deps)
            depth[i] = std::max(depth[i], depth[std::size_t(d)] + 1);
        longest = std::max(longest, depth[i]);
    }
    return longest;
}

Bytes
BlockRun::toRlp() const
{
    using rlp::Item;
    std::vector<Item> header_fields;
    header_fields.push_back(Item::word(U256(header.height)));
    header_fields.push_back(Item::word(U256(header.timestamp)));
    header_fields.push_back(Item::word(header.coinbase));
    header_fields.push_back(Item::word(header.difficulty));
    header_fields.push_back(Item::word(U256(header.gasLimit)));

    std::vector<Item> tx_items, dep_items, value_items;
    for (const TxRecord &rec : txs) {
        tx_items.push_back(Item::bytes(rec.tx.toRlp()));
        std::vector<Item> deps;
        for (int d : rec.deps)
            deps.push_back(Item::word(U256(std::uint64_t(d))));
        dep_items.push_back(Item::makeList(std::move(deps)));
        value_items.push_back(
            Item::word(U256(std::uint64_t(rec.redundancy))));
    }

    Item block = Item::makeList({
        Item::makeList(std::move(header_fields)),
        Item::makeList(std::move(tx_items)),
        Item::makeList(std::move(dep_items)),
        Item::makeList(std::move(value_items)),
    });
    return rlp::encode(block);
}

BlockRun
BlockRun::fromRlp(const Bytes &encoded)
{
    using rlp::Item;
    Item block = rlp::decode(encoded);
    if (!block.isList || block.list.size() != 4)
        throw std::invalid_argument("BlockRun::fromRlp: bad shape");

    const Item &header_item = block.list[0];
    const Item &tx_list = block.list[1];
    const Item &dep_list = block.list[2];
    const Item &value_list = block.list[3];
    if (!header_item.isList || header_item.list.size() != 5
        || !tx_list.isList || !dep_list.isList || !value_list.isList
        || tx_list.list.size() != dep_list.list.size()
        || tx_list.list.size() != value_list.list.size()) {
        throw std::invalid_argument("BlockRun::fromRlp: bad shape");
    }

    BlockRun out;
    out.header.height = header_item.list[0].toWord().low64();
    out.header.timestamp = header_item.list[1].toWord().low64();
    out.header.coinbase = header_item.list[2].toWord();
    out.header.difficulty = header_item.list[3].toWord();
    out.header.gasLimit = header_item.list[4].toWord().low64();

    for (std::size_t i = 0; i < tx_list.list.size(); ++i) {
        TxRecord rec;
        rec.tx = evm::Transaction::fromRlp(tx_list.list[i].str);
        const Item &deps = dep_list.list[i];
        if (!deps.isList)
            throw std::invalid_argument("BlockRun::fromRlp: bad deps");
        for (const Item &d : deps.list) {
            std::uint64_t idx = d.toWord().low64();
            if (idx >= i)
                throw std::invalid_argument(
                    "BlockRun::fromRlp: forward dependency");
            rec.deps.push_back(int(idx));
        }
        rec.redundancy = int(value_list.list[i].toWord().low64());
        out.txs.push_back(std::move(rec));
    }
    return out;
}

Generator::Generator(std::uint64_t seed, int num_users, int threads)
    : rng_(seed), pool_(support::ThreadPool::forThreads(threads))
{
    for (int i = 0; i < num_users; ++i) {
        users_.push_back(contracts::userAddress(i));
        genesis_.setBalance(users_.back(),
                            U256::fromDec("1000000000000000000000"));
    }
    set_.deploy(genesis_, users_);
    // One journal entry per genesis slot: MiBs nothing reuses.
    genesis_.commitAndRelease();
}

Address
Generator::freshUser()
{
    Address u = users_[std::size_t(userCursor_) % users_.size()];
    ++userCursor_;
    return u;
}

Generator::Draft
Generator::draftTokenOp(const ContractSpec &spec)
{
    Draft d;
    d.contract = spec.name;
    d.isErc20 = true;
    d.tx.to = spec.address;

    // WETH exposes a reduced interface.
    bool is_weth = spec.name == "WETH9";
    std::uint64_t roll = rng_.below(is_weth ? 2 : 10);
    Address sender = freshUser();
    d.tx.from = sender;

    if (is_weth) {
        // Keep WETH conflict-free: transfer / balanceOf only.
        if (roll == 0) {
            d.function = "transfer";
            d.tx.data = ContractSet::encodeCall(
                sel::kTransfer, {freshUser(), U256(1 + rng_.below(100))});
        } else {
            d.function = "balanceOf";
            d.tx.data = ContractSet::encodeCall(sel::kBalanceOf, {sender});
        }
        return d;
    }

    if (roll < 5) {
        d.function = "transfer";
        d.tx.data = ContractSet::encodeCall(
            sel::kTransfer, {freshUser(), U256(1 + rng_.below(1000))});
    } else if (roll < 7) {
        d.function = "approve";
        d.tx.data = ContractSet::encodeCall(
            sel::kApprove, {freshUser(), U256(1 + rng_.below(100000))});
    } else if (roll < 8) {
        // transferFrom: deploy() seeds allowance[u][u+1..u+4], so the
        // spender (tx sender) is the user right after `from`. All
        // parties are fresh, keeping the transaction independent.
        std::size_t from_idx =
            std::size_t(userCursor_ - 1) % users_.size();
        Address from = users_[from_idx];
        d.tx.from = users_[(from_idx + 1) % users_.size()];
        ++userCursor_; // consume the spender slot too
        d.function = "transferFrom";
        d.tx.data = ContractSet::encodeCall(
            sel::kTransferFrom,
            {from, freshUser(), U256(1 + rng_.below(500))});
    } else if (roll < 9) {
        d.function = "balanceOf";
        d.tx.data = ContractSet::encodeCall(sel::kBalanceOf, {sender});
    } else {
        d.function = "allowance";
        d.tx.data = ContractSet::encodeCall(
            sel::kAllowance,
            {sender, users_[(std::size_t(userCursor_)) % users_.size()]});
    }
    return d;
}

Generator::Draft
Generator::draftSwap(const ContractSpec &router)
{
    // Swaps conflict through pair reserves and router token balances;
    // they are used as dependent picks and in natural mixes.
    static const char *pool[] = {"TetherUSD", "LinkToken", "Dai", "WETH9"};
    std::size_t a = rng_.below(4), b = rng_.below(3);
    if (b >= a)
        ++b;
    const ContractSpec &ta = set_.byName(pool[a]);
    const ContractSpec &tb = set_.byName(pool[b]);

    Draft d;
    d.contract = router.name;
    d.function = router.functions[0].name;
    d.tx.from = freshUser();
    d.tx.to = router.address;
    d.tx.data = ContractSet::encodeCall(
        router.functions[0].selector,
        {U256(1000 + rng_.below(9000)), U256(1), ta.address, tb.address,
         d.tx.from});
    return d;
}

Generator::Draft
Generator::draftMarket(const ContractSpec &mkt)
{
    Draft d;
    d.contract = mkt.name;
    d.tx.to = mkt.address;
    int n = int(users_.size());

    // Prefer createSaleAuction on a not-yet-auctioned token: ids
    // [2n, 4n) are owned (by id % n) but unauctioned.
    int id = 2 * n + (saleTokenCursor_++ % (2 * n));
    d.function = "createSaleAuction";
    d.tx.from = users_[std::size_t(id % n)];
    d.tx.data = ContractSet::encodeCall(
        sel::kCreateSaleAuction,
        {U256(std::uint64_t(id)), U256(100 + rng_.below(900))});
    return d;
}

Generator::Draft
Generator::draftGateway()
{
    const ContractSpec &gw = set_.byName("MainchainGatewayProxy");
    Draft d;
    d.contract = gw.name;
    d.tx.from = freshUser();
    d.tx.to = gw.address;
    if (rng_.below(10) < 7) {
        d.function = "deposit";
        d.tx.data = ContractSet::encodeCall(
            sel::kDepositEth, {U256(1 + rng_.below(5000))});
    } else {
        // Token withdrawal: pays out of the gateway's seeded balance
        // (validity checks include the isContract state query).
        d.function = "withdraw";
        d.tx.data = ContractSet::encodeCall(
            sel::kWithdrawToken,
            {set_.byName("TetherUSD").address,
             U256(1 + rng_.below(2000))});
    }
    return d;
}

Generator::Draft
Generator::draftVote()
{
    const ContractSpec &ballot = set_.byName("Ballot");
    Draft d;
    d.contract = ballot.name;
    d.function = "vote";
    d.tx.from = freshUser();
    d.tx.to = ballot.address;
    d.tx.data = ContractSet::encodeCall(
        sel::kVote, {U256(std::uint64_t(1000 + proposalCursor_++))});
    return d;
}

Generator::Draft
Generator::draftIndependent(double erc20_share, double zipf_s,
                            const std::string &only)
{
    if (!only.empty()) {
        const ContractSpec &spec = set_.byName(only);
        if (spec.isErc20)
            return draftTokenOp(spec);
        if (spec.name == "OpenSea" || spec.name == "CryptoCat")
            return draftMarket(spec);
        if (spec.name == "Ballot")
            return draftVote();
        if (spec.name == "MainchainGatewayProxy")
            return draftGateway();
        return draftSwap(spec);
    }

    if (erc20_share >= 0.0) {
        // Controlled ERC20 share (Table 8). The non-ERC20 pool is kept
        // diverse (marketplaces, routers, gateway, ballot) so the mix
        // axis is not confounded with contract redundancy.
        if (rng_.chance(erc20_share)) {
            static const char *tokens[] = {"TetherUSD", "LinkToken",
                                           "Dai", "FiatTokenProxy"};
            return draftTokenOp(set_.byName(tokens[rng_.below(4)]));
        }
        switch (rng_.below(6)) {
          case 0:
            return draftMarket(set_.byName("OpenSea"));
          case 1:
            return draftMarket(set_.byName("CryptoCat"));
          case 2:
            return draftSwap(set_.byName("UniswapV2Router02"));
          case 3:
            return draftSwap(set_.byName("SwapRouter"));
          case 4:
            return draftGateway();
          default:
            return draftVote();
        }
    }

    // Natural mix: Zipf over TOP8 popularity, conflict-free subset.
    const ContractSpec &spec = set_.top8()[rng_.zipf(8, zipf_s)];
    if (spec.isErc20)
        return draftTokenOp(spec);
    if (spec.name == "OpenSea")
        return draftMarket(spec);
    if (spec.name == "MainchainGatewayProxy") {
        // Gateway deposits all touch the daily-usage slot; replace with
        // a ballot vote to keep the independent pool conflict-free.
        return draftVote();
    }
    // Routers conflict via reserves; substitute an ERC20 transfer on a
    // random token instead (keeps popularity skew roughly intact).
    static const char *tokens[] = {"TetherUSD", "LinkToken", "Dai",
                                   "FiatTokenProxy"};
    return draftTokenOp(set_.byName(tokens[rng_.below(4)]));
}

Generator::Draft
Generator::draftDependent(const Draft &prior)
{
    // Conflict deliberately with `prior` on real state.
    if (prior.function == "transfer" || prior.function == "approve"
        || prior.function == "transferFrom"
        || prior.function == "balanceOf" || prior.function == "allowance"
        || prior.function == "mint" || prior.function == "burn") {
        // Same token, same sender: both write balances[sender] (or the
        // second reads what the first wrote).
        Draft d;
        d.contract = prior.contract;
        d.isErc20 = prior.isErc20;
        d.function = "transfer";
        d.tx.from = prior.tx.from;
        d.tx.to = prior.tx.to;
        d.tx.data = ContractSet::encodeCall(
            sel::kTransfer, {freshUser(), U256(1 + rng_.below(200))});
        return d;
    }
    if (prior.function == "vote") {
        // Same proposal, fresh voter: votes[p] write-write conflict.
        Draft d;
        d.contract = prior.contract;
        d.function = "vote";
        d.tx.from = freshUser();
        d.tx.to = prior.tx.to;
        // Re-encode the same proposal argument.
        U256 proposal = U256::fromBytes(prior.tx.data.data() + 4, 32);
        d.tx.data = ContractSet::encodeCall(sel::kVote, {proposal});
        return d;
    }
    if (prior.function == "createSaleAuction") {
        // Bid on the freshly created auction: reads/writes its slots.
        Draft d;
        d.contract = prior.contract;
        d.function = "bid";
        d.tx.from = freshUser();
        d.tx.to = prior.tx.to;
        U256 token_id = U256::fromBytes(prior.tx.data.data() + 4, 32);
        U256 price = U256::fromBytes(prior.tx.data.data() + 36, 32);
        d.tx.data = ContractSet::encodeCall(sel::kBid, {token_id});
        d.tx.callValue = price;
        return d;
    }
    if (prior.function == "deposit") {
        // Gateway deposits share the daily-usage counter.
        return draftGateway();
    }
    // Swaps (and anything else): swap sharing the pair via a second
    // swap in the same direction.
    Draft d;
    d.contract = prior.contract;
    d.function = prior.function;
    d.tx.from = freshUser();
    d.tx.to = prior.tx.to;
    d.tx.data = prior.tx.data;
    // Re-point the output address (last arg) at the new sender when the
    // ABI matches the swap layout.
    if (d.tx.data.size() >= 4 + 5 * 32) {
        Bytes patched = ContractSet::encodeCall(
            prior.tx.functionId(),
            {U256::fromBytes(prior.tx.data.data() + 4, 32),
             U256::fromBytes(prior.tx.data.data() + 36, 32),
             U256::fromBytes(prior.tx.data.data() + 68, 32),
             U256::fromBytes(prior.tx.data.data() + 100, 32),
             d.tx.from});
        d.tx.data = std::move(patched);
    }
    return d;
}

BlockRun
Generator::generateBlock(const BlockParams &params)
{
    userCursor_ = int(rng_.below(users_.size()));
    proposalCursor_ = int(blockCounter_ * 1000);
    saleTokenCursor_ = 0;
    ++blockCounter_;

    // Dependent transactions extend one of a bounded set of conflict
    // chains. The number of live chains shrinks with the dependency
    // ratio, so higher ratios yield both more dependent transactions
    // and longer critical paths — mirroring how real conflicts cluster
    // on a few hot accounts — while a 100 %-dependent block still has
    // a little width, as the paper's Table 9 blocks evidently do.
    std::size_t target_chains = std::size_t(
        std::max(2.0, 8.0 * (1.0 - params.depRatio) + 1.0));

    std::vector<Draft> drafts;
    std::vector<std::size_t> tails; // index of each chain's last tx
    drafts.reserve(std::size_t(params.txCount));
    for (int i = 0; i < params.txCount; ++i) {
        bool want_dep = rng_.chance(params.depRatio)
                     && tails.size() >= std::min<std::size_t>(
                            target_chains, 2);
        if (want_dep) {
            // Extend one of the oldest live chains so that chains keep
            // growing for the whole block (hot-object behaviour).
            std::size_t live = std::min(tails.size(), target_chains);
            std::size_t g = rng_.below(live);
            drafts.push_back(draftDependent(drafts[tails[g]]));
            tails[g] = drafts.size() - 1;
        } else {
            // Chain seeds (the first target_chains independents of a
            // natural-mix block) rotate over the TOP8 so dependency
            // chains cover diverse contracts — high dependency ratios
            // must not collapse the mix onto a couple of tokens.
            bool seeding = params.onlyContract.empty()
                        && params.erc20Share < 0.0
                        && tails.size() < target_chains;
            if (seeding) {
                const contracts::ContractSpec &spec =
                    set_.top8()[std::size_t(seedCursor_++) % 8];
                if (spec.isErc20)
                    drafts.push_back(draftTokenOp(spec));
                else if (spec.name == "OpenSea")
                    drafts.push_back(draftMarket(spec));
                else if (spec.name == "MainchainGatewayProxy")
                    drafts.push_back(draftGateway());
                else
                    drafts.push_back(draftSwap(spec));
            } else {
                drafts.push_back(draftIndependent(params.erc20Share,
                                                  params.zipfS,
                                                  params.onlyContract));
            }
            tails.push_back(drafts.size() - 1);
            if (tails.size() > 32)
                tails.erase(tails.begin());
        }
    }

    BlockRun block;
    block.header.height = 1000 + blockCounter_;
    block.header.timestamp = 1700000000 + blockCounter_ * 12;
    block.header.coinbase = U256(0xc01bba5e);
    block.header.recentHashes.assign(256, U256(blockCounter_));
    for (Draft &d : drafts) {
        TxRecord rec;
        rec.tx = std::move(d.tx);
        rec.contract = std::move(d.contract);
        rec.function = std::move(d.function);
        rec.isErc20 = d.isErc20;
        block.txs.push_back(std::move(rec));
    }
    runConsensusStage(block);
    return block;
}

BlockRun
Generator::contractBatch(const std::string &contract, int tx_count)
{
    BlockParams params;
    params.txCount = tx_count;
    params.depRatio = 0.0;
    params.onlyContract = contract;
    return generateBlock(params);
}

BlockRun
Generator::buildBlockFrom(std::vector<PackTx> drafts)
{
    // The one block builder behind every hand-rolled pack: stamp the
    // standard synthetic header, adopt the drafts in order, then run
    // the consensus stage for ground truth.
    ++blockCounter_;

    BlockRun block;
    block.header.height = 1000 + blockCounter_;
    block.header.timestamp = 1700000000 + blockCounter_ * 12;
    block.header.coinbase = U256(0xc01bba5e);
    block.header.recentHashes.assign(256, U256(blockCounter_));
    block.txs.reserve(drafts.size());
    for (PackTx &d : drafts) {
        TxRecord rec;
        rec.tx = std::move(d.tx);
        rec.contract = std::move(d.contract);
        rec.function = std::move(d.function);
        rec.isErc20 = d.isErc20;
        block.txs.push_back(std::move(rec));
    }
    runConsensusStage(block);
    return block;
}

TxRecord
Generator::singleCall(const std::string &contract,
                      const std::string &function,
                      const std::vector<U256> &args, const U256 &value,
                      int sender)
{
    const ContractSpec &spec = set_.byName(contract);
    const contracts::FunctionInfo *fn = spec.function(function);
    if (!fn)
        throw std::out_of_range(contract + " has no function " + function);

    TxRecord rec;
    rec.contract = contract;
    rec.function = function;
    rec.isErc20 = spec.isErc20;
    rec.tx.from = users_[std::size_t(sender) % users_.size()];
    rec.tx.to = spec.address;
    rec.tx.callValue = value;
    rec.tx.data = ContractSet::encodeCall(fn->selector, args);

    evm::WorldState state = genesis_;
    evm::Interpreter interp;
    evm::BlockHeader header;
    header.height = 1;
    header.timestamp = 1700000000;
    header.coinbase = U256(0xc01bba5e);
    state.track(&rec.access);
    rec.receipt = interp.applyTransaction(state, header, rec.tx,
                                          &rec.trace);
    state.track(nullptr);
    return rec;
}

namespace {

/**
 * Group-interval commutativity classifier (DESIGN.md §14). For every
 * hot slot, collect the commutative-delta writers; any exact writer
 * demotes the whole slot. Each surviving writer must keep every
 * recorded branch constraint uniform over the full interval of values
 * its reorderable peers' deltas can produce — computed against the
 * sequential pre-value, iterated to a fixpoint as members drop out.
 * Survivors get the slot in access.commutative: any linear extension
 * of the elided DAG then replays them bit-identically.
 */
void
classifyCommutative(BlockRun &block, const evm::WorldState &pre_state,
                    std::vector<std::map<evm::StateKey, evm::CommTag>> &cand)
{
    std::map<evm::StateKey, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < cand.size(); ++i) {
        for (const auto &kv : cand[i])
            groups[kv.first].push_back(i);
    }

    for (auto &group : groups) {
        const evm::StateKey &key = group.first;
        // An exact (non-commutative) writer pins the slot for everyone.
        bool demoted = false;
        for (std::size_t j = 0; j < block.txs.size() && !demoted; ++j) {
            if (block.txs[j].access.writes.count(key) != 0
                && cand[j].count(key) == 0) {
                demoted = true;
            }
        }
        if (demoted)
            continue;

        struct Member
        {
            std::size_t tx;
            U256 delta;
            const std::vector<evm::CommConstraint> *cs;
            U256 seqBefore; ///< slot value before this tx, sequentially
            bool elided = true;
        };
        std::vector<Member> ms;
        U256 v = pre_state.storageAt(key.address, key.slot);
        for (std::size_t i : group.second) {
            const evm::CommTag &c = cand[i][key];
            ms.push_back({i, c.delta, &c.constraints, v, true});
            v = v + c.delta;
        }

        // Fixpoint: demoting a member pins it back into program order,
        // shrinking the intervals of the rest.
        bool changed = true;
        while (changed) {
            changed = false;
            for (Member &m : ms) {
                if (!m.elided)
                    continue;
                // Achievable interval around the sequential value:
                // a preceding elided peer can move after m (its delta
                // leaves), a succeeding one can move before (its delta
                // arrives). Split each peer's signed delta into the
                // direction it can push m's observed value.
                U256 down, up;
                bool fail = false;
                for (const Member &o : ms) {
                    if (&o == &m || !o.elided)
                        continue;
                    bool neg = o.delta.isNegative();
                    U256 mag = neg ? U256(0) - o.delta : o.delta;
                    bool pushes_down = (o.tx < m.tx) != neg;
                    U256 &acc = pushes_down ? down : up;
                    U256 next = acc + mag;
                    if (next < acc) { // magnitude sum overflow
                        fail = true;
                        break;
                    }
                    acc = next;
                }
                U256 lo = m.seqBefore - down;
                U256 hi = m.seqBefore + up;
                if (!fail && (lo > m.seqBefore || hi < m.seqBefore))
                    fail = true; // interval wraps 2^256
                if (!fail && !evm::constraintsUniform(*m.cs, lo, hi))
                    fail = true;
                if (fail) {
                    m.elided = false;
                    changed = true;
                }
            }
        }

        for (const Member &m : ms) {
            if (m.elided)
                block.txs[m.tx].access.commutative.insert(key);
        }
    }
}

} // namespace

ConflictGraph
conflictGraph(const BlockRun &block, bool elide_commutative,
              const std::set<evm::StateKey> &veto)
{
    struct KeyUsers
    {
        std::vector<int> readers;
        std::vector<int> writers;
    };
    const std::size_t n = block.txs.size();
    std::map<evm::StateKey, KeyUsers> index;
    ConflictGraph g;
    g.preds.resize(n);
    std::vector<std::size_t> listedFor(n, n); // last j that listed i
    for (std::size_t j = 0; j < n; ++j) {
        const evm::AccessSet &a = block.txs[j].access;
        std::vector<int> &preds = g.preds[j];
        listedFor[j] = j; // never its own predecessor
        auto list = [&](const std::vector<int> &earlier) {
            for (int i : earlier) {
                if (listedFor[std::size_t(i)] != j) {
                    listedFor[std::size_t(i)] = j;
                    preds.push_back(i);
                }
            }
        };
        // WW and WR against every earlier user, RW against writers.
        for (const evm::StateKey &k : a.writes) {
            KeyUsers &u = index[k];
            list(u.readers);
            list(u.writers);
            u.writers.push_back(int(j));
        }
        for (const evm::StateKey &k : a.reads) {
            KeyUsers &u = index[k];
            list(u.writers);
            u.readers.push_back(int(j));
        }
        std::sort(preds.begin(), preds.end());
        if (elide_commutative) {
            auto kept = std::remove_if(preds.begin(), preds.end(),
                                       [&](int i) {
                return !evm::conflictsExactly(
                    a, block.txs[std::size_t(i)].access, veto);
            });
            g.elided += std::uint64_t(preds.end() - kept);
            preds.erase(kept, preds.end());
        }
    }
    return g;
}

void
runConsensusStage(BlockRun &block, const evm::WorldState &pre_state,
                  support::ThreadPool *pool, bool commutative_dag)
{
    // Warm point (DESIGN.md §16): fill pre_state's commitment caches
    // once, before the fan-out reads it, so the working copy below
    // and every later copy (the engine's, a replaying audit's) start
    // warm and their digests rehash only what the block touched.
    const U256 pre_digest = pre_state.digest();
    evm::WorldState state = pre_state;

    // Program-order commit through the block committer: with a pool
    // every transaction is first speculated against the pre-block
    // state, and a speculation whose observations still hold commits
    // by replaying its deltas; anything else re-executes. Either way
    // the committed state, traces and access sets are bit-identical to
    // the sequential path. Commutative detection is always armed here
    // (it is nearly free — trace capture already forces the reference
    // tier) so every block's access sets carry the commutative
    // classification.
    evm::SpecOptions opts;
    opts.wantTrace = true;
    opts.commutative = true;
    evm::BlockCommitter committer(state, block.header, block.transactions(),
                                  opts, pool);
    std::vector<std::map<evm::StateKey, evm::CommTag>> cand(
        block.txs.size());
    for (std::size_t i = 0; i < block.txs.size(); ++i) {
        TxRecord &rec = block.txs[i];
        evm::CommittedTx c = committer.commit(i);
        rec.receipt = std::move(c.receipt);
        rec.trace = std::move(c.trace);
        rec.access = std::move(c.access);
        cand[i] = std::move(c.commutative);

        // Filter commutative fee accounting (coinbase) out of the
        // dependency analysis, as concurrency-control schemes do.
        const auto coinbase = [&](const evm::StateKey &k) {
            return evm::isCoinbaseKey(k, block.header.coinbase);
        };
        std::erase_if(rec.access.reads, coinbase);
        std::erase_if(rec.access.writes, coinbase);
    }

    // The DAG reads the access sets and pre_state, the post-state
    // digest only the working state, so with a pool the two overlap.
    U256 post_digest;
    const auto digest_post = [&] { post_digest = state.digest(); };
    const auto build_dag = [&] {
        classifyCommutative(block, pre_state, cand);

        // Dependency DAG: conflicts against every earlier transaction,
        // replacing any deps the block arrived with. With
        // commutative_dag, pairs whose overlaps are all mutually
        // commutative lose their edge (the generalized coinbase
        // exemption).
        ConflictGraph dag = conflictGraph(block, commutative_dag, {});
        for (std::size_t j = 0; j < block.txs.size(); ++j)
            block.txs[j].deps = std::move(dag.preds[j]);
        if (dag.elided)
            MTPU_OBS_COUNT("sched.commutative_drop", dag.elided);
    };
    if (pool && block.txs.size() > 1) {
        pool->runAll({digest_post, build_dag});
    } else {
        digest_post();
        build_dag();
    }
    block.consensusDigest = BlockRun::ConsensusDigest{pre_digest,
                                                      post_digest};

    // Redundancy values: later transactions invoking the same contract.
    std::unordered_map<std::string, int> remaining;
    for (const TxRecord &rec : block.txs)
        remaining[rec.contract]++;
    for (TxRecord &rec : block.txs) {
        remaining[rec.contract]--;
        rec.redundancy = remaining[rec.contract];
    }
}

void
Generator::runConsensusStage(BlockRun &block)
{
    workload::runConsensusStage(block, genesis_, pool_.get(),
                                commutativeDag_);
}

TxRecord
Generator::draftStreamTx(double erc20_share, double zipf_s)
{
    Draft d = draftIndependent(erc20_share, zipf_s, "");
    TxRecord rec;
    rec.tx = std::move(d.tx);
    rec.contract = std::move(d.contract);
    rec.function = std::move(d.function);
    rec.isErc20 = d.isErc20;
    return rec;
}

} // namespace mtpu::workload
