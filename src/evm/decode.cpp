/**
 * @file
 * Bytecode pre-decode pass + decoded-program LRU cache (DESIGN.md §13).
 */

#include "evm/decode.hpp"

#include <algorithm>

#include "evm/gas.hpp"
#include "obs/metrics.hpp"

namespace mtpu::evm {

bool
isPureFastOp(std::uint8_t opcode)
{
    if (isPush(opcode) || isDup(opcode) || isSwap(opcode))
        return true;
    switch (Op(opcode)) {
      // No memory growth, no state access, no dynamic gas, no control
      // transfer, no GAS observation — safe to check/charge as a fused
      // run. EXP is excluded (dynamic per-byte gas), GAS is excluded
      // (it would observe the pre-charged counter), MSIZE is fine
      // (pure ops never grow memory).
      case Op::POP: case Op::JUMPDEST:
      case Op::ADD: case Op::MUL: case Op::SUB: case Op::DIV:
      case Op::SDIV: case Op::MOD: case Op::SMOD:
      case Op::ADDMOD: case Op::MULMOD: case Op::SIGNEXTEND:
      case Op::LT: case Op::GT: case Op::SLT: case Op::SGT:
      case Op::EQ: case Op::ISZERO:
      case Op::AND: case Op::OR: case Op::XOR: case Op::NOT:
      case Op::BYTE: case Op::SHL: case Op::SHR: case Op::SAR:
      case Op::ADDRESS: case Op::ORIGIN: case Op::CALLER:
      case Op::CALLVALUE: case Op::GASPRICE:
      case Op::CALLDATALOAD: case Op::CALLDATASIZE: case Op::CODESIZE:
      case Op::RETURNDATASIZE:
      case Op::BLOCKHASH: case Op::COINBASE: case Op::TIMESTAMP:
      case Op::NUMBER: case Op::DIFFICULTY: case Op::GASLIMIT:
      case Op::PC: case Op::MSIZE:
        return true;
      default:
        return false;
    }
}

namespace {

/** Map a raw defined opcode byte to its semantic FOp. */
FOp
mapOp(std::uint8_t opcode)
{
    if (isPush(opcode))
        return FOp::Push;
    if (isDup(opcode))
        return FOp::Dup;
    if (isSwap(opcode))
        return FOp::Swap;
    if (isLog(opcode))
        return FOp::Log;
    switch (Op(opcode)) {
      case Op::STOP: return FOp::Stop;
      case Op::ADD: return FOp::Add;
      case Op::MUL: return FOp::Mul;
      case Op::SUB: return FOp::Sub;
      case Op::DIV: return FOp::Div;
      case Op::SDIV: return FOp::Sdiv;
      case Op::MOD: return FOp::Mod;
      case Op::SMOD: return FOp::Smod;
      case Op::ADDMOD: return FOp::Addmod;
      case Op::MULMOD: return FOp::Mulmod;
      case Op::EXP: return FOp::Exp;
      case Op::SIGNEXTEND: return FOp::Signextend;
      case Op::LT: return FOp::Lt;
      case Op::GT: return FOp::Gt;
      case Op::SLT: return FOp::Slt;
      case Op::SGT: return FOp::Sgt;
      case Op::EQ: return FOp::Eq;
      case Op::ISZERO: return FOp::Iszero;
      case Op::AND: return FOp::And;
      case Op::OR: return FOp::Or;
      case Op::XOR: return FOp::Xor;
      case Op::NOT: return FOp::Not;
      case Op::BYTE: return FOp::Byte;
      case Op::SHL: return FOp::Shl;
      case Op::SHR: return FOp::Shr;
      case Op::SAR: return FOp::Sar;
      case Op::SHA3: return FOp::Sha3;
      case Op::ADDRESS: return FOp::Address;
      case Op::BALANCE: return FOp::Balance;
      case Op::ORIGIN: return FOp::Origin;
      case Op::CALLER: return FOp::Caller;
      case Op::CALLVALUE: return FOp::Callvalue;
      case Op::CALLDATALOAD: return FOp::Calldataload;
      case Op::CALLDATASIZE: return FOp::Calldatasize;
      case Op::CALLDATACOPY: return FOp::Calldatacopy;
      case Op::CODESIZE: return FOp::Codesize;
      case Op::CODECOPY: return FOp::Codecopy;
      case Op::GASPRICE: return FOp::Gasprice;
      case Op::EXTCODESIZE: return FOp::Extcodesize;
      case Op::EXTCODECOPY: return FOp::Extcodecopy;
      case Op::RETURNDATASIZE: return FOp::Returndatasize;
      case Op::RETURNDATACOPY: return FOp::Returndatacopy;
      case Op::EXTCODEHASH: return FOp::Extcodehash;
      case Op::BLOCKHASH: return FOp::Blockhash;
      case Op::COINBASE: return FOp::Coinbase;
      case Op::TIMESTAMP: return FOp::Timestamp;
      case Op::NUMBER: return FOp::Number;
      case Op::DIFFICULTY: return FOp::Difficulty;
      case Op::GASLIMIT: return FOp::Gaslimit;
      case Op::POP: return FOp::Pop;
      case Op::MLOAD: return FOp::Mload;
      case Op::MSTORE: return FOp::Mstore;
      case Op::MSTORE8: return FOp::Mstore8;
      case Op::SLOAD: return FOp::Sload;
      case Op::SSTORE: return FOp::Sstore;
      case Op::JUMP: return FOp::Jump;
      case Op::JUMPI: return FOp::Jumpi;
      case Op::PC: return FOp::Pc;
      case Op::MSIZE: return FOp::Msize;
      case Op::GAS: return FOp::Gas;
      case Op::JUMPDEST: return FOp::Jumpdest;
      case Op::CREATE: case Op::CREATE2: return FOp::Create;
      case Op::CALL: return FOp::Call;
      case Op::CALLCODE: return FOp::Callcode;
      case Op::DELEGATECALL: return FOp::Delegatecall;
      case Op::STATICCALL: return FOp::Staticcall;
      case Op::RETURN: return FOp::Return;
      case Op::REVERT: return FOp::Revert;
      default: return FOp::Invalid;
    }
}

} // namespace

std::shared_ptr<const DecodedProgram>
decodeProgram(const Bytes &code)
{
    auto prog = std::make_shared<DecodedProgram>();
    prog->code = code;
    prog->jumpTarget.assign(code.size(), -1);
    prog->instrs.reserve(code.size() + code.size() / 4 + 1);

    // Index of the BeginBlock marker of the currently open pure run,
    // or -1 when no run is open. Running relative stack height and
    // bounds are folded into the marker when the run closes.
    std::int32_t seg = -1;
    std::int32_t rel = 0, seg_min = 0, seg_max = 0;
    std::uint64_t seg_gas = 0;

    auto close_seg = [&]() {
        if (seg < 0)
            return;
        DecodedInstr &m = prog->instrs[std::size_t(seg)];
        m.segGas = std::uint32_t(seg_gas);
        m.segEnd = std::uint32_t(prog->instrs.size());
        m.segMin = seg_min;
        m.segMax = seg_max;
        seg = -1;
    };
    auto open_seg = [&](std::uint32_t pc) {
        DecodedInstr m;
        m.op = FOp::BeginBlock;
        m.pc = pc;
        seg = std::int32_t(prog->instrs.size());
        prog->instrs.push_back(m);
        rel = 0;
        seg_min = 0;
        seg_max = 0;
        seg_gas = 0;
    };

    for (std::size_t pc = 0; pc < code.size();) {
        std::uint8_t opcode = code[pc];
        const OpInfo &info = opInfo(opcode);

        DecodedInstr d;
        d.pc = std::uint32_t(pc);

        if (!info.defined) {
            // Undefined byte (incl. 0xfe INVALID): the reference halts
            // with InvalidOp before any stack/gas check, so the
            // decoded form must never be folded into a fused run.
            close_seg();
            d.op = FOp::Invalid;
            prog->instrs.push_back(d);
            ++pc;
            continue;
        }

        d.op = mapOp(opcode);
        d.pops = info.pops;
        d.pushes = info.pushes;
        d.gasCost = std::uint32_t(baseGas(opcode));

        if (isDup(opcode))
            d.arg = std::uint8_t(opcode - std::uint8_t(Op::DUP1) + 1);
        else if (isSwap(opcode))
            d.arg = std::uint8_t(opcode - std::uint8_t(Op::SWAP1) + 1);
        else if (isLog(opcode))
            d.arg = std::uint8_t(opcode - std::uint8_t(Op::LOG0));
        else if (opcode == std::uint8_t(Op::CREATE2))
            d.arg = 1;

        if (isPush(opcode)) {
            // Fuse the immediate, truncating at code end exactly like
            // the reference loop does.
            int n = info.immediateBytes;
            U256 v;
            for (int i = 0; i < n && pc + 1 + std::size_t(i) < code.size();
                 ++i) {
                v = v.shl(8) | U256(std::uint64_t(code[pc + 1 + i]));
            }
            d.imm = v;
        }

        bool pure = isPureFastOp(opcode);
        // Every JUMPDEST heads its own run so jumps always land on a
        // BeginBlock with run-local accounting.
        if (opcode == std::uint8_t(Op::JUMPDEST))
            close_seg();
        if (pure && seg < 0)
            open_seg(d.pc);
        if (!pure)
            close_seg();

        if (opcode == std::uint8_t(Op::JUMPDEST))
            prog->jumpTarget[pc] = seg;

        if (pure) {
            seg_min = std::max(seg_min, std::int32_t(info.pops) - rel);
            rel += std::int32_t(info.pushes) - std::int32_t(info.pops);
            seg_max = std::max(seg_max, rel);
            seg_gas += d.gasCost;
        }

        prog->instrs.push_back(d);
        pc += 1 + info.immediateBytes;
    }
    close_seg();
    return prog;
}

std::shared_ptr<const DecodedProgram>
DecodeCache::get(const U256 &codeHash, const Bytes &code)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(codeHash);
        if (it != map_.end()) {
            MTPU_OBS_COUNT("evm.decode_cache.hit", 1);
            lru_.splice(lru_.begin(), lru_, it->second.lru);
            return it->second.prog;
        }
    }
    auto prog = decodeProgram(code);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(codeHash);
    if (it != map_.end()) {
        // Raced with another decoder and lost: the resident copy is
        // served, so this lookup counts as a hit. Only the insert
        // below counts a miss, so N threads that miss one codehash
        // together count 1 miss and N-1 hits, as N serial lookups do.
        MTPU_OBS_COUNT("evm.decode_cache.hit", 1);
        lru_.splice(lru_.begin(), lru_, it->second.lru);
        return it->second.prog;
    }
    MTPU_OBS_COUNT("evm.decode_cache.miss", 1);
    lru_.push_front(codeHash);
    map_.emplace(codeHash, Slot{prog, lru_.begin()});
    while (map_.size() > capacity_) {
        MTPU_OBS_COUNT("evm.decode_cache.evict", 1);
        map_.erase(lru_.back());
        lru_.pop_back();
    }
    return prog;
}

std::size_t
DecodeCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

DecodeCache &
DecodeCache::global()
{
    static DecodeCache cache;
    return cache;
}

} // namespace mtpu::evm
