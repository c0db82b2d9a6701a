#include "arch/db_cache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace mtpu::arch {

using evm::FuncUnit;
using evm::Op;

bool
terminatesLine(std::uint8_t opcode)
{
    FuncUnit unit = evm::opInfo(opcode).unit;
    switch (unit) {
      case FuncUnit::Branch:
        // JUMPDEST does not redirect; JUMP/JUMPI do.
        return opcode != std::uint8_t(Op::JUMPDEST);
      case FuncUnit::Control:
      case FuncUnit::ContextSwitch:
        return true;
      default:
        return false;
    }
}

bool
isReconfigurable(FuncUnit unit)
{
    // Simple half-cycle units whose results can be forwarded (§3.3.4):
    // stack moves, logic compares/bitwise, fixed context reads, and
    // short arithmetic.
    switch (unit) {
      case FuncUnit::Stack:
      case FuncUnit::Logic:
      case FuncUnit::FixedAccess:
      case FuncUnit::Arithmetic:
        return true;
      default:
        return false;
    }
}

bool
isFoldablePattern(std::uint8_t producer, std::uint8_t consumer)
{
    if (!evm::isPush(producer))
        return false;
    // Most common patterns (§3.3.4): compare-to-immediate in function
    // dispatch, immediate branch targets, immediate memory/hash
    // addresses, and immediate masks.
    switch (Op(consumer)) {
      case Op::EQ:
      case Op::LT:
      case Op::GT:
      case Op::JUMP:
      case Op::JUMPI:
      case Op::MSTORE:
      case Op::MLOAD:
      case Op::SHA3:
      case Op::AND:
      case Op::SHR:
      case Op::SHL:
      case Op::ADD:
      case Op::SUB:
        return true;
      default:
        return false;
    }
}

DbCache::DbCache(const MtpuConfig &cfg) : cfg_(cfg)
{
    vstack_.reserve(64);
}

const DbLine *
DbCache::lookup(const CodeAddr &addr)
{
    ++stats_.lookups;
    auto it = lines_.find(addr);
    if (it == lines_.end())
        return nullptr;
    // Refresh LRU position.
    auto pos = lruPos_.find(addr);
    lru_.erase(pos->second);
    lru_.push_front(addr);
    pos->second = lru_.begin();
    ++stats_.lineHits;
    stats_.instrHits += it->second.count();
    MTPU_OBS_COUNT("db.line_hits", 1);
    return &it->second;
}

bool
DbCache::wouldConflict(const PendingInstr &in, int &raw_producer) const
{
    raw_producer = -1;

    // The R/W sequence numbers rename stack accesses within a line
    // (§3.3.4): values placed by Stack-unit instructions (PUSH / DUP /
    // SWAP) are routed to their consumers by the stack engine, so they
    // impose no issue dependency. Likewise a Stack-unit *consumer*
    // only moves values and never blocks. Real RAW hazards arise when
    // a computational unit consumes a value computed by another
    // computational unit in the same line.
    std::uint8_t op = in.slot.opcode;
    if (in.unit == FuncUnit::Stack)
        return false;

    std::size_t depth = vstack_.size();
    auto producer_at = [&](std::size_t from_top) -> int {
        if (from_top >= depth)
            return -1; // produced before this line started
        return vstack_[depth - 1 - from_top];
    };

    int deepest = -1;
    for (int i = 0; i < in.pops; ++i) {
        int p = producer_at(std::size_t(i));
        if (p >= 0 && fill_[std::size_t(p)].unit != FuncUnit::Stack)
            deepest = std::max(deepest, p);
    }
    (void)op;
    raw_producer = deepest;
    return deepest >= 0;
}

void
DbCache::observe(const CodeAddr &addr, const evm::TraceEvent &ev,
                 std::uint32_t extra_latency)
{
    const evm::OpInfo &info = evm::opInfo(ev.opcode);

    // Starting a new line, or continuing in a different contract?
    if (fill_.empty()) {
        fillTag_ = addr;
    } else if (!(addr.code == fillTag_.code)) {
        flushFill();
        fillTag_ = addr;
    }

    PendingInstr in;
    in.slot.opcode = ev.opcode;
    in.slot.pc = addr.pc;
    in.unit = info.unit;
    in.gas = ev.gasCost;
    in.extraLat = extra_latency;
    in.pops = info.pops;
    in.pushes = info.pushes;

    if (!fill_.empty()) {
        int raw = -1;
        bool has_raw = wouldConflict(in, raw);
        bool resolved = !has_raw;

        if (has_raw && cfg_.enableForwarding
            && fillForwards_ < cfg_.maxForwardsPerLine
            && isReconfigurable(fill_[std::size_t(raw)].unit)) {
            ++fillForwards_;
            ++stats_.forwardsUsed;
            resolved = true;
        }

        // Pattern folding (§3.3.4) is orthogonal to the RAW check: a
        // preceding un-folded PUSH merges into this instruction, its
        // immediate routed from the line directly into the functional
        // unit. The PUSH frees its stack micro-slot.
        bool fold_here = false;
        if (resolved && cfg_.enableFolding && in.pops > 0
            && !fill_.back().slot.folded
            && isFoldablePattern(fill_.back().slot.opcode, ev.opcode)
            && !vstack_.empty()
            && vstack_.back() == int(fill_.size()) - 1) {
            fold_here = true;
        }

        // Functional-unit slot availability.
        bool slot_free = (in.unit == FuncUnit::Stack)
                             ? fillStackSlots_ < cfg_.stackSlotsPerLine
                             : !fillUnitUsed_[int(in.unit)];

        if (!resolved || !slot_free) {
            install();
            fillTag_ = addr;
        } else if (fold_here) {
            fill_.back().slot.folded = true;
            --fillStackSlots_;
            ++stats_.foldedPairs;
        }
    }

    // Append to the (possibly fresh) line.
    std::size_t my_index = fill_.size();
    fill_.push_back(in);
    if (in.unit == FuncUnit::Stack)
        ++fillStackSlots_;
    else
        fillUnitUsed_[int(in.unit)] = true;

    // Update the virtual stack with this instruction as producer.
    std::uint8_t op = ev.opcode;
    if (evm::isDup(op)) {
        vstack_.push_back(int(my_index));
    } else if (evm::isSwap(op)) {
        int n = op - std::uint8_t(Op::SWAP1) + 1;
        if (vstack_.size() > std::size_t(n)) {
            vstack_[vstack_.size() - 1] = int(my_index);
            vstack_[vstack_.size() - 1 - std::size_t(n)] = int(my_index);
        } else if (!vstack_.empty()) {
            vstack_[vstack_.size() - 1] = int(my_index);
        }
    } else {
        for (int i = 0; i < in.pops && !vstack_.empty(); ++i)
            vstack_.pop_back();
        for (int i = 0; i < in.pushes; ++i)
            vstack_.push_back(int(my_index));
    }

    if (terminatesLine(op))
        install();
}

void
DbCache::install()
{
    if (fill_.empty())
        return;
    if (fill_.size() <= 1) {
        ++stats_.singleDiscarded;
        if (singles_.size() < kSideSpaceEntries)
            singles_.push_back(fillTag_);
        if (tracer_)
            tracer_->emit(obs::TraceKind::DbSingle, traceNow_, lane_,
                          fillTag_.pc);
        MTPU_OBS_COUNT("db.singles_discarded", 1);
    } else if (cfg_.enableDbCache && !lines_.count(fillTag_)) {
        DbLine line;
        line.tag = fillTag_;
        line.gasSum = 0;
        for (const PendingInstr &in : fill_) {
            line.slots.push_back(in.slot);
            line.gasSum += in.gas;
            line.extraLatency = std::max(line.extraLatency, in.extraLat);
            if (in.slot.folded)
                ++line.foldedPairs;
        }
        line.usedForwarding = fillForwards_ > 0;
        line.endsWithBranch = terminatesLine(fill_.back().slot.opcode);
        std::size_t len = line.slots.size();
        evictIfFull();
        lines_.emplace(fillTag_, std::move(line));
        lru_.push_front(fillTag_);
        lruPos_[fillTag_] = lru_.begin();
        ++stats_.linesInstalled;
        if (tracer_)
            tracer_->emit(obs::TraceKind::DbInstall, traceNow_, lane_,
                          len, fillTag_.pc);
        MTPU_OBS_COUNT("db.lines_installed", 1);
        MTPU_OBS_HIST("db.line_len", obs::pow2Bounds(0, 5), len);
    }
    fill_.clear();
    fillForwards_ = 0;
    fillStackSlots_ = 0;
    std::fill(std::begin(fillUnitUsed_), std::end(fillUnitUsed_), false);
    vstack_.clear();
}

void
DbCache::flushFill()
{
    install();
}

void
DbCache::evictIfFull()
{
    while (lines_.size() >= cfg_.dbCacheEntries && !lru_.empty()) {
        CodeAddr victim = lru_.back();
        lru_.pop_back();
        lruPos_.erase(victim);
        auto it = lines_.find(victim);
        std::size_t len = it != lines_.end() ? it->second.count() : 0;
        lines_.erase(victim);
        ++stats_.linesEvicted;
        if (tracer_)
            tracer_->emit(obs::TraceKind::DbEvict, traceNow_, lane_,
                          len, victim.pc);
        MTPU_OBS_COUNT("db.lines_evicted", 1);
    }
}

void
DbCache::clear()
{
    lines_.clear();
    lru_.clear();
    lruPos_.clear();
    fill_.clear();
    fillForwards_ = 0;
    fillStackSlots_ = 0;
    std::fill(std::begin(fillUnitUsed_), std::end(fillUnitUsed_), false);
    vstack_.clear();
    singles_.clear();
}

} // namespace mtpu::arch
