/**
 * @file
 * Functional fast tier: direct-threaded execution of pre-decoded
 * bytecode. Every handler is a line-for-line transcription of the
 * corresponding case in evm/interpreter.cpp minus tracing and taint —
 * operand order, check order (undefined → underflow → overflow → gas),
 * memory cap, gas math, returndata handling and error strings are
 * deliberately identical, and tests/functional pins the equivalence
 * differentially.
 *
 * Dispatch uses GNU computed goto when available (one indirect jump
 * per instruction, per-opcode branch prediction) and falls back to a
 * portable switch loop otherwise (-DMTPU_NO_COMPUTED_GOTO forces the
 * fallback). Pure instruction runs are fronted by BeginBlock markers
 * whose fused stack/gas check replaces the per-instruction prologue;
 * when a fused check fails, derivePureHalt() replays the run's
 * accounting instruction by instruction to recover the exact halt
 * reason the reference would have produced.
 */

#include "evm/fast_interp.hpp"

#include <cstring>

#include "evm/decode.hpp"
#include "evm/gas.hpp"
#include "support/keccak.hpp"

namespace mtpu::evm {

/**
 * One reusable call frame. Owned by the FastInterpreter arena, indexed
 * by call depth; reset() keeps the allocated capacity so steady-state
 * execution performs no heap allocation for stacks or memory.
 */
struct FastFrame
{
    std::vector<U256> stack;
    Bytes memory;
    Bytes returnData;
    std::uint64_t gas = 0;

    FastFrame() { stack.reserve(kMaxStackDepth + 32); }

    void
    reset()
    {
        stack.clear();
        // clear() + resize() in touchMemory re-zero-fills: every byte
        // past size 0 is a *new* element and is value-initialized.
        memory.clear();
        returnData.clear();
        gas = 0;
    }

    bool
    chargeGas(std::uint64_t amount)
    {
        if (gas < amount)
            return false;
        gas -= amount;
        return true;
    }

    /** Identical to Frame::touchMemory in the reference interpreter. */
    bool
    touchMemory(std::uint64_t offset, std::uint64_t size)
    {
        if (size == 0)
            return true;
        if (offset > (1ull << 24) || size > (1ull << 24))
            return false;
        std::uint64_t end = offset + size;
        std::uint64_t old_words = wordCount(memory.size());
        std::uint64_t new_words = wordCount(end);
        if (new_words > old_words) {
            if (!chargeGas(memoryExpansionGas(old_words, new_words)))
                return false;
            memory.resize(new_words * 32, 0);
        }
        return true;
    }
};

/** Per-transaction context threaded through the decoded-dispatch loop. */
struct FastCtx
{
    WorldState &state;
    const BlockHeader &header;
    Address origin;
    U256 gasPrice;
    std::vector<LogEntry> *logs;
    FastInterpreter *self;

    FastFrame &frameAt(std::size_t depth) { return self->frameAt(depth); }
    DecodeCache *cache() { return self->cache_; }
};

namespace {

/** Mirrors the reference interpreter's halt classification. */
enum class Halt
{
    None,
    OutOfGas,
    StackUnderflow,
    StackOverflow,
    BadJump,
    InvalidOp,
    StaticViolation,
};

const char *
haltName(Halt h)
{
    switch (h) {
      case Halt::None: return "";
      case Halt::OutOfGas: return "out of gas";
      case Halt::StackUnderflow: return "stack underflow";
      case Halt::StackOverflow: return "stack overflow";
      case Halt::BadJump: return "bad jump destination";
      case Halt::InvalidOp: return "invalid opcode";
      case Halt::StaticViolation: return "state write in static call";
    }
    return "unknown";
}

/**
 * A fused BeginBlock check failed somewhere inside a pure run: replay
 * the run's stack/gas accounting one instruction at a time, in the
 * reference's check order, to find the first failure. Never returns
 * None when the fused check genuinely failed.
 */
Halt
derivePureHalt(const DecodedProgram &prog, std::size_t marker,
               std::size_t height, std::uint64_t gas)
{
    const DecodedInstr &m = prog.instrs[marker];
    for (std::size_t j = marker + 1; j < m.segEnd; ++j) {
        const DecodedInstr &in = prog.instrs[j];
        if (height < in.pops)
            return Halt::StackUnderflow;
        if (height - in.pops + in.pushes > kMaxStackDepth)
            return Halt::StackOverflow;
        if (gas < in.gasCost)
            return Halt::OutOfGas;
        gas -= in.gasCost;
        height = height - in.pops + in.pushes;
    }
    return Halt::OutOfGas;
}

CallResult fastCall(FastCtx &ctx, const CallParams &params);
Halt runDecoded(FastCtx &ctx, FastFrame &frame, const DecodedProgram &prog,
                const CallParams &params, Bytes &output, bool &reverted);

#if defined(__GNUC__) && !defined(MTPU_NO_COMPUTED_GOTO)
#define MTPU_CGOTO 1
#else
#define MTPU_CGOTO 0
#endif

/**
 * CREATE/CREATE2 and the CALL family run out of line: their locals own
 * heap memory (init code, the decoded init program, calldata, return
 * data), and the computed-goto dispatch that leaves a handler runs no
 * destructors. Returning from a function does. Halt::None means
 * "continue at the next instruction" (neither opcode stops the frame
 * normally). Never inlined: runDecoded() keeps only their frames live
 * while the nested frame runs.
 */
[[gnu::noinline]] Halt
execCreate(FastCtx &ctx, FastFrame &frame, const DecodedInstr &d,
           const CallParams &params)
{
    WorldState &state = ctx.state;
    std::vector<U256> &stack = frame.stack;
    auto pop = [&stack]() {
        U256 v = stack.back();
        stack.pop_back();
        return v;
    };
    auto push = [&stack](const U256 &v) { stack.push_back(v); };

    if (params.isStatic)
        return Halt::StaticViolation;
    U256 value = pop(), off = pop(), size = pop();
    U256 salt;
    if (d.arg)
        salt = pop();
    std::uint64_t o = off.fitsU64() ? off.low64() : ~0ull;
    std::uint64_t s = size.fitsU64() ? size.low64() : ~0ull;
    if (!frame.touchMemory(o, s))
        return Halt::OutOfGas;
    Bytes init;
    if (s)
        init.assign(frame.memory.begin() + o,
                    frame.memory.begin() + o + s);

    Address created;
    if (!d.arg) {
        created = createAddress(params.to, state.nonce(params.to));
    } else {
        Bytes buf;
        buf.push_back(0xff);
        std::uint8_t tmp[32];
        params.to.toBytes(tmp);
        buf.insert(buf.end(), tmp + 12, tmp + 32);
        salt.toBytes(tmp);
        buf.insert(buf.end(), tmp, tmp + 32);
        U256 init_hash = keccak256Word(init);
        init_hash.toBytes(tmp);
        buf.insert(buf.end(), tmp, tmp + 32);
        created = toAddress(keccak256Word(buf));
    }
    state.incNonce(params.to);

    if (params.depth + 1 > kMaxCallDepth
        || state.balance(params.to) < value) {
        push(U256());
        return Halt::None;
    }

    auto snap = state.snapshot();
    state.createAccount(created);
    state.subBalance(params.to, value);
    state.addBalance(created, value);

    std::uint64_t fwd_gas = frame.gas - frame.gas / 64;
    CallParams sub;
    sub.caller = params.to;
    sub.to = created;
    sub.codeFrom = created;
    sub.value = value;
    sub.gas = fwd_gas;
    sub.depth = params.depth + 1;

    // Run the init code (decoded uncached: init blobs are one-shot)
    // on the next arena slot; its output becomes the account code.
    auto init_prog = decodeProgram(init);
    FastFrame &init_frame = ctx.frameAt(std::size_t(sub.depth));
    init_frame.reset();
    init_frame.gas = fwd_gas;
    Bytes deployed;
    bool sub_rev = false;
    Halt h = runDecoded(ctx, init_frame, *init_prog, sub, deployed,
                        sub_rev);
    std::uint64_t used = fwd_gas - init_frame.gas;
    frame.gas -= (h == Halt::None) ? used : fwd_gas;
    if (h == Halt::None && !sub_rev) {
        state.setCode(created, deployed);
        push(created);
    } else {
        state.revert(snap);
        push(U256());
    }
    frame.returnData.clear();
    return Halt::None;
}

[[gnu::noinline]] Halt
execCall(FastCtx &ctx, FastFrame &frame, const DecodedInstr &d,
         const CallParams &params)
{
    WorldState &state = ctx.state;
    std::vector<U256> &stack = frame.stack;
    auto pop = [&stack]() {
        U256 v = stack.back();
        stack.pop_back();
        return v;
    };
    auto push = [&stack](const U256 &v) { stack.push_back(v); };

    const FOp k = d.op;
    U256 gas_v = pop(), addr_v = pop();
    U256 value;
    if (k == FOp::Call || k == FOp::Callcode)
        value = pop();
    U256 in_off = pop(), in_size = pop(), out_off = pop(),
         out_size = pop();

    if (k == FOp::Call && params.isStatic && !value.isZero())
        return Halt::StaticViolation;

    std::uint64_t io = in_off.fitsU64() ? in_off.low64() : ~0ull;
    std::uint64_t is = in_size.fitsU64() ? in_size.low64() : ~0ull;
    std::uint64_t oo = out_off.fitsU64() ? out_off.low64() : ~0ull;
    std::uint64_t os = out_size.fitsU64() ? out_size.low64() : ~0ull;
    if (!frame.touchMemory(io, is) || !frame.touchMemory(oo, os))
        return Halt::OutOfGas;

    if (!value.isZero() && !frame.chargeGas(GasCosts::kCallValue))
        return Halt::OutOfGas;

    Address target = toAddress(addr_v);
    Bytes input;
    if (is)
        input.assign(frame.memory.begin() + io,
                     frame.memory.begin() + io + is);

    std::uint64_t max_fwd = frame.gas - frame.gas / 64;
    std::uint64_t req = gas_v.fitsU64() ? gas_v.low64() : max_fwd;
    std::uint64_t fwd = req < max_fwd ? req : max_fwd;
    if (!value.isZero())
        fwd += GasCosts::kCallStipend;

    CallParams sub;
    sub.caller = (k == FOp::Delegatecall) ? params.caller : params.to;
    sub.codeFrom = target;
    sub.to = (k == FOp::Call || k == FOp::Staticcall) ? target
                                                      : params.to;
    sub.value = (k == FOp::Delegatecall) ? params.value : value;
    sub.input = std::move(input);
    sub.gas = fwd;
    sub.isStatic = params.isStatic || k == FOp::Staticcall;
    sub.depth = params.depth + 1;

    bool ok;
    CallResult res;
    if (params.depth + 1 > kMaxCallDepth) {
        ok = false;
        res.gasUsed = 0;
    } else if (k == FOp::Call && !value.isZero()
               && state.balance(params.to) < value) {
        ok = false;
        res.gasUsed = 0;
    } else {
        auto snap = state.snapshot();
        if (k == FOp::Call && !value.isZero()) {
            state.subBalance(params.to, value);
            state.addBalance(target, value);
        }
        res = fastCall(ctx, sub);
        ok = res.success;
        if (!ok)
            state.revert(snap);
    }
    std::uint64_t charge = res.gasUsed < fwd ? res.gasUsed : fwd;
    // The stipend is free to the caller.
    std::uint64_t stipend = value.isZero() ? 0 : GasCosts::kCallStipend;
    charge = charge > stipend ? charge - stipend : 0;
    if (!frame.chargeGas(charge))
        return Halt::OutOfGas;

    std::uint64_t copy = res.returnData.size() < os
                             ? res.returnData.size()
                             : os;
    if (copy)
        std::memcpy(frame.memory.data() + oo, res.returnData.data(),
                    copy);
    frame.returnData = std::move(res.returnData);
    push(U256(ok ? 1 : 0));
    return Halt::None;
}

/**
 * Execute one frame from instruction @p ip until it halts or reaches a
 * CREATE/CALL-family instruction, which is left in @p pending with its
 * prologue done. Returns the halt reason as runDecoded() does.
 *
 * Kept out of line, and out of the nested call's way: under ASan every
 * handler's locals get their own stack slots (about 29 KB), and a frame
 * that stayed live across the nested frame would multiply that by the
 * call depth.
 */
[[gnu::noinline]] Halt
runUntilSwitch(FastCtx &ctx, FastFrame &frame, const DecodedProgram &prog,
               const CallParams &params, std::size_t ip, Bytes &output,
               bool &reverted, const DecodedInstr *&pending)
{
    WorldState &state = ctx.state;
    std::vector<U256> &stack = frame.stack;
    const std::size_t count = prog.instrs.size();
    const DecodedInstr *d = nullptr;

    auto pop = [&stack]() {
        U256 v = stack.back();
        stack.pop_back();
        return v;
    };
    auto push = [&stack](const U256 &v) { stack.push_back(v); };

// Per-instruction prologue of non-pure opcodes: the reference's
// underflow → overflow → base-gas check sequence. Pure opcodes carry
// no prologue — their BeginBlock already checked and charged the run.
#define PRE()                                                           \
    do {                                                                \
        if (stack.size() < d->pops)                                     \
            return Halt::StackUnderflow;                                \
        if (stack.size() - d->pops + d->pushes > kMaxStackDepth)        \
            return Halt::StackOverflow;                                 \
        if (frame.gas < d->gasCost)                                     \
            return Halt::OutOfGas;                                      \
        frame.gas -= d->gasCost;                                        \
    } while (0)

#if MTPU_CGOTO
// Entries must match the FOp declaration order exactly. The four CALL
// variants share one handler (L_Call) and branch on d->op inside.
#define OP(name) L_##name
#define DISPATCH()                                                      \
    do {                                                                \
        if (ip >= count)                                                \
            goto L_fell_off;                                            \
        d = &prog.instrs[ip];                                           \
        goto *tbl[std::size_t(d->op)];                                  \
    } while (0)
    static const void *const tbl[kNumFOps] = {
        &&L_BeginBlock, &&L_Push, &&L_Dup, &&L_Swap, &&L_Pop,
        &&L_Jumpdest,
        &&L_Add, &&L_Mul, &&L_Sub, &&L_Div, &&L_Sdiv, &&L_Mod,
        &&L_Smod, &&L_Addmod, &&L_Mulmod, &&L_Exp, &&L_Signextend,
        &&L_Lt, &&L_Gt, &&L_Slt, &&L_Sgt, &&L_Eq, &&L_Iszero,
        &&L_And, &&L_Or, &&L_Xor, &&L_Not, &&L_Byte, &&L_Shl,
        &&L_Shr, &&L_Sar,
        &&L_Sha3,
        &&L_Address, &&L_Origin, &&L_Caller, &&L_Callvalue,
        &&L_Gasprice,
        &&L_Calldataload, &&L_Calldatasize, &&L_Calldatacopy,
        &&L_Codesize, &&L_Codecopy, &&L_Returndatasize,
        &&L_Returndatacopy,
        &&L_Extcodesize, &&L_Extcodecopy, &&L_Extcodehash, &&L_Balance,
        &&L_Blockhash, &&L_Coinbase, &&L_Timestamp, &&L_Number,
        &&L_Difficulty, &&L_Gaslimit,
        &&L_Pc, &&L_Msize, &&L_Gas,
        &&L_Mload, &&L_Mstore, &&L_Mstore8,
        &&L_Sload, &&L_Sstore,
        &&L_Jump, &&L_Jumpi,
        &&L_Stop, &&L_Return, &&L_Revert,
        &&L_Create, &&L_Call, &&L_Call, &&L_Call, &&L_Call,
        &&L_Log,
        &&L_Invalid,
    };
#else
#define OP(name) case FOp::name
#define DISPATCH() goto L_dispatch
#endif
#define NEXT()                                                          \
    do {                                                                \
        ++ip;                                                           \
        DISPATCH();                                                     \
    } while (0)

#if MTPU_CGOTO
    DISPATCH();
#else
  L_dispatch:
    if (ip >= count)
        goto L_fell_off;
    d = &prog.instrs[ip];
    switch (d->op) {
#endif

    OP(BeginBlock) : {
        const std::size_t h = stack.size();
        if (h < std::size_t(d->segMin)
            || h + std::size_t(d->segMax) > kMaxStackDepth
            || frame.gas < d->segGas) {
            return derivePureHalt(prog, ip, h, frame.gas);
        }
        frame.gas -= d->segGas;
        NEXT();
    }

    // --- stack group (pure: checked/charged by BeginBlock) ------------
    OP(Push) : {
        push(d->imm);
        NEXT();
    }
    OP(Dup) : {
        push(stack[stack.size() - d->arg]);
        NEXT();
    }
    OP(Swap) : {
        std::swap(stack[stack.size() - 1], stack[stack.size() - 1 - d->arg]);
        NEXT();
    }
    OP(Pop) : {
        stack.pop_back();
        NEXT();
    }
    OP(Jumpdest) : { NEXT(); }

    // --- arithmetic (pure except EXP) ---------------------------------
    OP(Add) : {
        U256 a = pop();
        stack.back() = a + stack.back();
        NEXT();
    }
    OP(Mul) : {
        U256 a = pop();
        stack.back() = a * stack.back();
        NEXT();
    }
    OP(Sub) : {
        U256 a = pop();
        stack.back() = a - stack.back();
        NEXT();
    }
    OP(Div) : {
        U256 a = pop();
        stack.back() = a.udiv(stack.back());
        NEXT();
    }
    OP(Sdiv) : {
        U256 a = pop();
        stack.back() = a.sdiv(stack.back());
        NEXT();
    }
    OP(Mod) : {
        U256 a = pop();
        stack.back() = a.umod(stack.back());
        NEXT();
    }
    OP(Smod) : {
        U256 a = pop();
        stack.back() = a.smod(stack.back());
        NEXT();
    }
    OP(Addmod) : {
        U256 a = pop(), b = pop();
        stack.back() = U256::addmod(a, b, stack.back());
        NEXT();
    }
    OP(Mulmod) : {
        U256 a = pop(), b = pop();
        stack.back() = U256::mulmod(a, b, stack.back());
        NEXT();
    }
    OP(Exp) : {
        PRE();
        U256 a = pop();
        std::uint64_t ebytes = std::uint64_t(stack.back().byteLength());
        if (!frame.chargeGas(ebytes * GasCosts::kExpByte))
            return Halt::OutOfGas;
        stack.back() = U256::exp(a, stack.back());
        NEXT();
    }
    OP(Signextend) : {
        U256 b = pop();
        stack.back() = U256::signextend(b, stack.back());
        NEXT();
    }

    // --- logic (pure) -------------------------------------------------
    OP(Lt) : {
        U256 a = pop();
        stack.back() = U256(a < stack.back() ? 1 : 0);
        NEXT();
    }
    OP(Gt) : {
        U256 a = pop();
        stack.back() = U256(a > stack.back() ? 1 : 0);
        NEXT();
    }
    OP(Slt) : {
        U256 a = pop();
        stack.back() = U256(a.slt(stack.back()) ? 1 : 0);
        NEXT();
    }
    OP(Sgt) : {
        U256 a = pop();
        stack.back() = U256(stack.back().slt(a) ? 1 : 0);
        NEXT();
    }
    OP(Eq) : {
        U256 a = pop();
        stack.back() = U256(a == stack.back() ? 1 : 0);
        NEXT();
    }
    OP(Iszero) : {
        stack.back() = U256(stack.back().isZero() ? 1 : 0);
        NEXT();
    }
    OP(And) : {
        U256 a = pop();
        stack.back() = a & stack.back();
        NEXT();
    }
    OP(Or) : {
        U256 a = pop();
        stack.back() = a | stack.back();
        NEXT();
    }
    OP(Xor) : {
        U256 a = pop();
        stack.back() = a ^ stack.back();
        NEXT();
    }
    OP(Not) : {
        stack.back() = ~stack.back();
        NEXT();
    }
    OP(Byte) : {
        U256 i = pop();
        stack.back() = i.fitsU64()
                           ? stack.back().byteAt(unsigned(i.low64()))
                           : U256();
        NEXT();
    }
    OP(Shl) : {
        U256 n = pop();
        stack.back() = n.fitsU64() ? stack.back().shl(unsigned(n.low64()))
                                   : U256();
        NEXT();
    }
    OP(Shr) : {
        U256 n = pop();
        stack.back() = n.fitsU64() ? stack.back().shr(unsigned(n.low64()))
                                   : U256();
        NEXT();
    }
    OP(Sar) : {
        U256 n = pop();
        if (n.fitsU64())
            stack.back() = stack.back().sar(unsigned(n.low64()));
        else
            stack.back() = stack.back().isNegative() ? U256::max() : U256();
        NEXT();
    }

    // --- SHA ----------------------------------------------------------
    OP(Sha3) : {
        PRE();
        U256 off = pop(), size = pop();
        std::uint64_t o = off.fitsU64() ? off.low64() : ~0ull;
        std::uint64_t s = size.fitsU64() ? size.low64() : ~0ull;
        if (!frame.touchMemory(o, s))
            return Halt::OutOfGas;
        if (!frame.chargeGas(wordCount(s) * GasCosts::kSha3Word))
            return Halt::OutOfGas;
        std::uint8_t digest[32];
        keccak256(s ? frame.memory.data() + o : nullptr, s, digest);
        push(U256::fromBytes(digest, 32));
        NEXT();
    }

    // --- fixed access (pure) ------------------------------------------
    OP(Address) : {
        push(params.to);
        NEXT();
    }
    OP(Origin) : {
        push(ctx.origin);
        NEXT();
    }
    OP(Caller) : {
        push(params.caller);
        NEXT();
    }
    OP(Callvalue) : {
        push(params.value);
        NEXT();
    }
    OP(Gasprice) : {
        push(ctx.gasPrice);
        NEXT();
    }
    OP(Calldataload) : {
        U256 idx = pop();
        U256 v;
        if (idx.fitsU64()) {
            std::uint8_t buf[32] = {0};
            std::uint64_t base = idx.low64();
            for (int i = 0; i < 32; ++i) {
                if (base + i < params.input.size())
                    buf[i] = params.input[base + i];
            }
            v = U256::fromBytes(buf, 32);
        }
        push(v);
        NEXT();
    }
    OP(Calldatasize) : {
        push(U256(std::uint64_t(params.input.size())));
        NEXT();
    }
    OP(Calldatacopy) : {
        PRE();
        U256 dst = pop(), src = pop(), size = pop();
        std::uint64_t dd = dst.fitsU64() ? dst.low64() : ~0ull;
        std::uint64_t s = size.fitsU64() ? size.low64() : ~0ull;
        if (!frame.touchMemory(dd, s))
            return Halt::OutOfGas;
        if (!frame.chargeGas(wordCount(s) * GasCosts::kCopyWord))
            return Halt::OutOfGas;
        std::uint64_t so = src.fitsU64() ? src.low64() : ~0ull;
        for (std::uint64_t i = 0; i < s; ++i) {
            frame.memory[dd + i] = (so + i < params.input.size())
                                       ? params.input[so + i]
                                       : 0;
        }
        NEXT();
    }
    OP(Codesize) : {
        push(U256(std::uint64_t(prog.code.size())));
        NEXT();
    }
    OP(Codecopy) : {
        PRE();
        U256 dst = pop(), src = pop(), size = pop();
        std::uint64_t dd = dst.fitsU64() ? dst.low64() : ~0ull;
        std::uint64_t s = size.fitsU64() ? size.low64() : ~0ull;
        if (!frame.touchMemory(dd, s))
            return Halt::OutOfGas;
        if (!frame.chargeGas(wordCount(s) * GasCosts::kCopyWord))
            return Halt::OutOfGas;
        std::uint64_t so = src.fitsU64() ? src.low64() : ~0ull;
        for (std::uint64_t i = 0; i < s; ++i) {
            frame.memory[dd + i] = (so + i < prog.code.size())
                                       ? prog.code[so + i]
                                       : 0;
        }
        NEXT();
    }
    OP(Returndatasize) : {
        push(U256(std::uint64_t(frame.returnData.size())));
        NEXT();
    }
    OP(Returndatacopy) : {
        PRE();
        U256 dst = pop(), src = pop(), size = pop();
        std::uint64_t dd = dst.fitsU64() ? dst.low64() : ~0ull;
        std::uint64_t s = size.fitsU64() ? size.low64() : ~0ull;
        if (!frame.touchMemory(dd, s))
            return Halt::OutOfGas;
        if (!frame.chargeGas(wordCount(s) * GasCosts::kCopyWord))
            return Halt::OutOfGas;
        std::uint64_t so = src.fitsU64() ? src.low64() : ~0ull;
        if (so + s > frame.returnData.size())
            return Halt::BadJump; // out-of-bounds returndata
        if (s) // both buffers may be empty (null data())
            std::memcpy(frame.memory.data() + dd,
                        frame.returnData.data() + so, s);
        NEXT();
    }

    // --- state query ---------------------------------------------------
    OP(Extcodesize) : {
        PRE();
        U256 a = pop();
        push(U256(std::uint64_t(state.code(toAddress(a)).size())));
        NEXT();
    }
    OP(Extcodecopy) : {
        PRE();
        U256 a = pop(), dst = pop(), src = pop(), size = pop();
        const Bytes &ext = state.code(toAddress(a));
        std::uint64_t dd = dst.fitsU64() ? dst.low64() : ~0ull;
        std::uint64_t s = size.fitsU64() ? size.low64() : ~0ull;
        if (!frame.touchMemory(dd, s))
            return Halt::OutOfGas;
        if (!frame.chargeGas(wordCount(s) * GasCosts::kCopyWord))
            return Halt::OutOfGas;
        std::uint64_t so = src.fitsU64() ? src.low64() : ~0ull;
        for (std::uint64_t i = 0; i < s; ++i)
            frame.memory[dd + i] = (so + i < ext.size()) ? ext[so + i] : 0;
        NEXT();
    }
    OP(Extcodehash) : {
        PRE();
        U256 a = pop();
        push(state.codeHash(toAddress(a)));
        NEXT();
    }
    OP(Balance) : {
        PRE();
        U256 a = pop();
        push(state.balance(toAddress(a)));
        NEXT();
    }

    // --- block context (pure) -----------------------------------------
    OP(Blockhash) : {
        U256 n = pop();
        push(n.fitsU64() ? ctx.header.blockHash(n.low64()) : U256());
        NEXT();
    }
    OP(Coinbase) : {
        push(ctx.header.coinbase);
        NEXT();
    }
    OP(Timestamp) : {
        push(U256(ctx.header.timestamp));
        NEXT();
    }
    OP(Number) : {
        push(U256(ctx.header.height));
        NEXT();
    }
    OP(Difficulty) : {
        push(ctx.header.difficulty);
        NEXT();
    }
    OP(Gaslimit) : {
        push(U256(ctx.header.gasLimit));
        NEXT();
    }
    OP(Pc) : {
        push(U256(std::uint64_t(d->pc)));
        NEXT();
    }
    OP(Msize) : {
        push(U256(std::uint64_t(frame.memory.size())));
        NEXT();
    }
    OP(Gas) : {
        PRE();
        push(U256(frame.gas));
        NEXT();
    }

    // --- memory --------------------------------------------------------
    OP(Mload) : {
        PRE();
        U256 off = pop();
        std::uint64_t o = off.fitsU64() ? off.low64() : ~0ull;
        if (!frame.touchMemory(o, 32))
            return Halt::OutOfGas;
        push(U256::fromBytes(frame.memory.data() + o, 32));
        NEXT();
    }
    OP(Mstore) : {
        PRE();
        U256 off = pop(), val = pop();
        std::uint64_t o = off.fitsU64() ? off.low64() : ~0ull;
        if (!frame.touchMemory(o, 32))
            return Halt::OutOfGas;
        val.toBytes(frame.memory.data() + o);
        NEXT();
    }
    OP(Mstore8) : {
        PRE();
        U256 off = pop(), val = pop();
        std::uint64_t o = off.fitsU64() ? off.low64() : ~0ull;
        if (!frame.touchMemory(o, 1))
            return Halt::OutOfGas;
        frame.memory[o] = std::uint8_t(val.low64() & 0xff);
        NEXT();
    }

    // --- storage -------------------------------------------------------
    OP(Sload) : {
        PRE();
        U256 key = pop();
        push(state.storageAt(params.to, key));
        NEXT();
    }
    OP(Sstore) : {
        PRE();
        if (params.isStatic)
            return Halt::StaticViolation;
        U256 key = pop(), val = pop();
        U256 cur = state.storageAt(params.to, key);
        std::uint64_t cost;
        if (cur == val)
            cost = GasCosts::kSload;
        else if (cur.isZero())
            cost = GasCosts::kSstoreSet;
        else
            cost = GasCosts::kSstoreReset;
        if (!frame.chargeGas(cost))
            return Halt::OutOfGas;
        state.setStorage(params.to, key, val);
        NEXT();
    }

    // --- branch --------------------------------------------------------
    OP(Jump) : {
        PRE();
        U256 dest = pop();
        if (!dest.fitsU64() || dest.low64() >= prog.code.size()
            || prog.jumpTarget[dest.low64()] < 0) {
            return Halt::BadJump;
        }
        ip = std::size_t(prog.jumpTarget[dest.low64()]);
        DISPATCH();
    }
    OP(Jumpi) : {
        PRE();
        U256 dest = pop(), cond = pop();
        if (!cond.isZero()) {
            if (!dest.fitsU64() || dest.low64() >= prog.code.size()
                || prog.jumpTarget[dest.low64()] < 0) {
                return Halt::BadJump;
            }
            ip = std::size_t(prog.jumpTarget[dest.low64()]);
            DISPATCH();
        }
        NEXT();
    }

    // --- control -------------------------------------------------------
    OP(Stop) : {
        output.clear();
        return Halt::None;
    }
    OP(Return) : {
        PRE();
        U256 off = pop(), size = pop();
        std::uint64_t o = off.fitsU64() ? off.low64() : ~0ull;
        std::uint64_t s = size.fitsU64() ? size.low64() : ~0ull;
        if (!frame.touchMemory(o, s))
            return Halt::OutOfGas;
        output.clear();
        if (s)
            output.assign(frame.memory.begin() + o,
                          frame.memory.begin() + o + s);
        return Halt::None;
    }
    OP(Revert) : {
        PRE();
        U256 off = pop(), size = pop();
        std::uint64_t o = off.fitsU64() ? off.low64() : ~0ull;
        std::uint64_t s = size.fitsU64() ? size.low64() : ~0ull;
        if (!frame.touchMemory(o, s))
            return Halt::OutOfGas;
        output.clear();
        if (s)
            output.assign(frame.memory.begin() + o,
                          frame.memory.begin() + o + s);
        reverted = true;
        return Halt::None;
    }

    // --- context switching ---------------------------------------------
    OP(Create) : // CREATE and CREATE2 (d->arg == 1)
    OP(Call) : // CALL/CALLCODE/DELEGATECALL/STATICCALL share this body
#if !MTPU_CGOTO
    OP(Callcode) : OP(Delegatecall) : OP(Staticcall) :
#endif
    {
        PRE();
        pending = d;
        return Halt::None;
    }

    // --- logging -------------------------------------------------------
    OP(Log) : {
        PRE();
        if (params.isStatic)
            return Halt::StaticViolation;
        U256 off = pop(), size = pop();
        LogEntry entry;
        entry.address = params.to;
        for (int i = 0; i < int(d->arg); ++i)
            entry.topics.push_back(pop());
        std::uint64_t o = off.fitsU64() ? off.low64() : ~0ull;
        std::uint64_t s = size.fitsU64() ? size.low64() : ~0ull;
        if (!frame.touchMemory(o, s))
            return Halt::OutOfGas;
        if (!frame.chargeGas(s * GasCosts::kLogDataByte))
            return Halt::OutOfGas;
        if (s)
            entry.data.assign(frame.memory.begin() + o,
                              frame.memory.begin() + o + s);
        ctx.logs->push_back(std::move(entry));
        NEXT();
    }

    OP(Invalid) : {
        // Undefined opcode byte: the reference halts before any stack
        // or gas check.
        return Halt::InvalidOp;
    }

#if !MTPU_CGOTO
      default:
        return Halt::InvalidOp; // unreachable: decode emits known FOps
    }
#endif

  L_fell_off:
    // Fell off the end of the code: implicit STOP.
    output.clear();
    return Halt::None;

#undef PRE
#undef OP
#undef DISPATCH
#undef NEXT
}

/**
 * Execute one frame over a decoded program. Same contract as the
 * reference runFrame(): returns the halt reason (None on STOP /
 * RETURN / REVERT / fall-off), @p reverted distinguishes REVERT.
 */
Halt
runDecoded(FastCtx &ctx, FastFrame &frame, const DecodedProgram &prog,
           const CallParams &params, Bytes &output, bool &reverted)
{
    reverted = false;
    std::size_t ip = 0;
    for (;;) {
        const DecodedInstr *pending = nullptr;
        Halt h = runUntilSwitch(ctx, frame, prog, params, ip, output,
                                reverted, pending);
        if (!pending)
            return h;
        h = pending->op == FOp::Create
                ? execCreate(ctx, frame, *pending, params)
                : execCall(ctx, frame, *pending, params);
        if (h != Halt::None)
            return h;
        ip = std::size_t(pending - prog.instrs.data()) + 1;
    }
}

/** Mirrors Interpreter::call exactly, on decoded programs. */
CallResult
fastCall(FastCtx &ctx, const CallParams &params)
{
    CallResult result;
    const Bytes &code = ctx.state.code(params.codeFrom);
    if (code.empty()) {
        // Plain transfer or empty account: succeeds, no execution.
        result.success = true;
        result.gasUsed = 0;
        return result;
    }

    std::shared_ptr<const DecodedProgram> prog;
    if (DecodeCache *cache = ctx.cache()) {
        const U256 ch = ctx.state.codeHash(params.codeFrom);
        prog = ch.isZero() ? decodeProgram(code) : cache->get(ch, code);
    } else {
        prog = decodeProgram(code);
    }

    FastFrame &frame = ctx.frameAt(std::size_t(params.depth));
    frame.reset();
    frame.gas = params.gas;

    auto snap = ctx.state.snapshot();
    Bytes output;
    bool reverted = false;
    Halt halt = runDecoded(ctx, frame, *prog, params, output, reverted);

    if (halt != Halt::None) {
        ctx.state.revert(snap);
        result.success = false;
        result.gasUsed = params.gas; // exceptional halt consumes all gas
        result.error = haltName(halt);
    } else if (reverted) {
        ctx.state.revert(snap);
        result.success = false;
        result.gasUsed = params.gas - frame.gas;
        result.returnData = std::move(output);
        result.error = "reverted";
    } else {
        result.success = true;
        result.gasUsed = params.gas - frame.gas;
        result.returnData = std::move(output);
    }
    return result;
}

} // namespace

FastInterpreter::FastInterpreter() : cache_(&DecodeCache::global()) {}

FastInterpreter::~FastInterpreter() = default;

FastFrame &
FastInterpreter::frameAt(std::size_t depth)
{
    while (arena_.size() <= depth)
        arena_.push_back(std::make_unique<FastFrame>());
    return *arena_[depth];
}

CallResult
FastInterpreter::call(WorldState &state, const BlockHeader &header,
                      const Address &origin, const U256 &gas_price,
                      const CallParams &params)
{
    FastCtx ctx{state, header, origin, gas_price, &logs_, this};
    return fastCall(ctx, params);
}

Receipt
FastInterpreter::applyTransaction(WorldState &state,
                                  const BlockHeader &header,
                                  const Transaction &tx, bool commitState)
{
    logs_.clear();
    Receipt receipt;

    std::uint64_t intrinsic = intrinsicGas(tx);
    if (tx.gasLimit < intrinsic) {
        receipt.error = "intrinsic gas exceeds limit";
        receipt.gasUsed = tx.gasLimit;
        return receipt;
    }

    U256 max_fee = U256(tx.gasLimit) * tx.gasPrice;
    if (state.balance(tx.from) < max_fee + tx.callValue) {
        receipt.error = "insufficient balance";
        receipt.gasUsed = 0;
        return receipt;
    }

    state.incNonce(tx.from);

    auto snap = state.snapshot();
    state.subBalance(tx.from, tx.callValue);
    state.addBalance(tx.to, tx.callValue);

    CallParams params;
    params.caller = tx.from;
    params.to = tx.to;
    params.codeFrom = tx.to;
    params.value = tx.callValue;
    params.input = tx.data;
    params.gas = tx.gasLimit - intrinsic;

    FastCtx ctx{state, header, tx.from, tx.gasPrice, &logs_, this};
    CallResult res = fastCall(ctx, params);

    if (!res.success)
        state.revert(snap);

    receipt.success = res.success;
    receipt.gasUsed = intrinsic + res.gasUsed;
    receipt.returnData = std::move(res.returnData);
    receipt.logs = logs_;
    receipt.error = res.error;

    // Fee: deducted from the sender, credited to the coinbase.
    U256 fee = U256(receipt.gasUsed) * tx.gasPrice;
    state.subBalance(tx.from, fee);
    state.addBalance(header.coinbase, fee);
    if (commitState)
        state.commit();

    return receipt;
}

} // namespace mtpu::evm
