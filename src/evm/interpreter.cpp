/**
 * @file
 * Reference EVM interpreter. Functional semantics follow the yellow
 * paper (with the simplified gas schedule in evm/gas.hpp); every
 * instruction is checked for gas before execution, as the blockchain
 * consistency model requires (§3.3.3 of the paper).
 */

#include "evm/interpreter.hpp"

#include <cstring>
#include <stdexcept>

#include "evm/commutative.hpp"
#include "evm/gas.hpp"
#include "support/keccak.hpp"

namespace mtpu::evm {

namespace {

/**
 * A stack slot: value plus provenance label, plus the commutative
 * chain tag (DESIGN.md §14): when comm >= 0 the value equals
 * (first SLOAD of the tracked slot) + commOff, where commOff is a
 * compile-time-unknown but run-constant offset.
 */
struct Slot
{
    U256 value;
    Taint taint = Taint::Constant;
    int comm = -1; ///< CommTracker record index, -1 untagged
    U256 commOff;
};

/**
 * Opcodes that manage commutative tags themselves (or trivially
 * preserve them). Any other opcode consuming a tagged operand poisons
 * the operand's chain record — conservative by construction.
 */
bool
commHandledOp(std::uint8_t opcode)
{
    if (isDup(opcode) || isSwap(opcode))
        return true;
    switch (Op(opcode)) {
      case Op::ADD:
      case Op::SUB:
      case Op::LT:
      case Op::GT:
      case Op::SLT:
      case Op::SGT:
      case Op::EQ:
      case Op::ISZERO:
      case Op::SLOAD:
      case Op::SSTORE:
      case Op::JUMPI:
      case Op::POP:
        return true;
      default:
        return false;
    }
}

/** Exceptional-halt reasons. */
enum class Halt
{
    None,
    OutOfGas,
    StackUnderflow,
    StackOverflow,
    BadJump,
    InvalidOp,
    StaticViolation,
    CallDepth,
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
      case Halt::CallDepth: return "call depth exceeded";
    }
    return "unknown";
}

/** Scan code for valid JUMPDEST targets, skipping PUSH immediates. */
std::vector<bool>
findJumpdests(const Bytes &code)
{
    std::vector<bool> valid(code.size(), false);
    for (std::size_t i = 0; i < code.size(); ++i) {
        std::uint8_t op = code[i];
        if (op == std::uint8_t(Op::JUMPDEST))
            valid[i] = true;
        else if (isPush(op))
            i += opInfo(op).immediateBytes;
    }
    return valid;
}

/** One execution frame. */
struct Frame
{
    const Bytes &code;
    std::vector<bool> jumpdests;
    std::size_t pc = 0;
    std::vector<Slot> stack;
    Bytes memory;
    std::vector<Taint> memTaint; ///< one label per 32-byte word
    std::uint64_t gas = 0;
    Bytes returnData;            ///< from the last nested call
    Taint returnDataTaint = Taint::Dynamic;

    explicit Frame(const Bytes &c) : code(c), jumpdests(findJumpdests(c)) {}

    Slot
    pop()
    {
        Slot s = stack.back();
        stack.pop_back();
        return s;
    }

    void
    push(const U256 &v, Taint t)
    {
        stack.push_back({v, t, -1, U256()});
    }

    bool
    chargeGas(std::uint64_t amount)
    {
        if (gas < amount)
            return false;
        gas -= amount;
        return true;
    }

    /** Expand memory to cover [offset, offset+size), charging gas. */
    bool
    touchMemory(std::uint64_t offset, std::uint64_t size)
    {
        if (size == 0)
            return true;
        // Cap addressable memory at 16 MiB; real EVM relies on the
        // quadratic cost making larger sizes unaffordable.
        if (offset > (1ull << 24) || size > (1ull << 24))
            return false;
        std::uint64_t end = offset + size;
        std::uint64_t old_words = wordCount(memory.size());
        std::uint64_t new_words = wordCount(end);
        if (new_words > old_words) {
            if (!chargeGas(memoryExpansionGas(old_words, new_words)))
                return false;
            memory.resize(new_words * 32, 0);
            memTaint.resize(new_words, Taint::Constant);
        }
        return true;
    }

    Taint
    memTaintRange(std::uint64_t offset, std::uint64_t size) const
    {
        Taint t = Taint::Constant;
        if (size == 0)
            return t;
        for (std::uint64_t w = offset / 32; w <= (offset + size - 1) / 32
             && w < memTaint.size(); ++w) {
            t = combine(t, memTaint[w]);
        }
        return t;
    }

    void
    setMemTaint(std::uint64_t offset, std::uint64_t size, Taint t)
    {
        if (size == 0)
            return;
        for (std::uint64_t w = offset / 32; w <= (offset + size - 1) / 32
             && w < memTaint.size(); ++w) {
            memTaint[w] = t;
        }
    }
};

/** Execution context shared across the frames of one transaction. */
struct ExecContext
{
    WorldState &state;
    const BlockHeader &header;
    Address origin;
    U256 gasPrice;
    std::vector<LogEntry> *logs;
    Trace *trace;
    Interpreter *interp;
};

} // namespace

Address
createAddress(const Address &sender, std::uint64_t nonce)
{
    std::vector<rlp::Item> fields;
    fields.push_back(rlp::Item::word(sender));
    fields.push_back(rlp::Item::word(U256(nonce)));
    Bytes enc = rlp::encode(rlp::Item::makeList(std::move(fields)));
    return toAddress(keccak256Word(enc));
}

std::uint64_t
intrinsicGas(const Transaction &tx)
{
    std::uint64_t gas = GasCosts::kTransaction;
    for (std::uint8_t b : tx.data)
        gas += b ? GasCosts::kTxDataNonZero : GasCosts::kTxDataZero;
    return gas;
}

namespace {

/**
 * A CREATE/CALL-family instruction runUntilSwitch() stopped at: the
 * opcode has passed the common checks, paid its base gas and opened
 * its trace event; execCreate()/execCall() carry it out.
 */
struct ContextSwitch
{
    bool pending = false;
    Op op = Op::STOP;
    std::uint64_t gasBefore = 0; ///< frame gas before the base charge
    std::size_t eventIdx = 0;    ///< the instruction's trace event
};

Halt runFrame(ExecContext &ctx, Frame &frame, const CallParams &params,
              Bytes &output, bool &reverted);

/**
 * Execute one frame until it halts or reaches a CREATE/CALL-family
 * instruction (@p sw.pending). Returns the halt reason (None on
 * normal STOP/RETURN/REVERT). @p reverted distinguishes REVERT.
 *
 * Kept out of line, and out of the nested call's way: under ASan every
 * local of every opcode case gets its own stack slot (about 46 KB), and
 * a frame that stayed live across the nested frame would multiply that
 * by the call depth.
 */
[[gnu::noinline]] Halt
runUntilSwitch(ExecContext &ctx, Frame &frame, const CallParams &params,
               std::uint16_t code_id, Bytes &output, bool &reverted,
               ContextSwitch &sw)
{
    WorldState &state = ctx.state;

    auto stack_taint = [&frame](int n) {
        Taint t = Taint::Constant;
        std::size_t depth = frame.stack.size();
        for (int i = 0; i < n && std::size_t(i) < depth; ++i)
            t = combine(t, frame.stack[depth - 1 - i].taint);
        return t;
    };

    while (frame.pc < frame.code.size()) {
        // Injected fault: abort the transaction here. Keeps firing so
        // every frame of the call stack unwinds.
        if (ctx.interp && ctx.interp->abortTick()) {
            if (ctx.interp->abortAsOutOfGas())
                return Halt::OutOfGas;
            reverted = true;
            output.clear();
            return Halt::None;
        }

        std::size_t pc = frame.pc;
        std::uint8_t opcode = frame.code[pc];
        const OpInfo &info = opInfo(opcode);

        if (!info.defined)
            return Halt::InvalidOp;
        if (frame.stack.size() < info.pops)
            return Halt::StackUnderflow;
        if (frame.stack.size() - info.pops + info.pushes > kMaxStackDepth)
            return Halt::StackOverflow;

        std::uint64_t gas_before = frame.gas;
        if (!frame.chargeGas(baseGas(opcode)))
            return Halt::OutOfGas;

        std::size_t event_idx = 0;
        if (ctx.trace) {
            TraceEvent ev;
            ev.pc = std::uint32_t(pc);
            ev.codeId = code_id;
            ev.opcode = opcode;
            ev.pops = info.pops;
            ev.pushes = info.pushes;
            ev.depth = std::uint8_t(params.depth);
            ev.operandTaint = stack_taint(info.pops);
            ctx.trace->events.push_back(ev);
            event_idx = ctx.trace->events.size() - 1;
        }

        auto pop = [&frame]() { return frame.pop(); };
        auto push = [&frame](const U256 &v, Taint t) { frame.push(v, t); };

        // Commutative-chain detection (observational; DESIGN.md §14):
        // any opcode outside the small affine/compare whitelist that
        // consumes a tagged operand poisons that operand's record.
        CommTracker *comm =
            ctx.interp ? ctx.interp->commTracker() : nullptr;
        if (comm && info.pops > 0 && !commHandledOp(opcode)) {
            std::size_t depth = frame.stack.size();
            for (int i = 0; i < int(info.pops); ++i) {
                Slot &s = frame.stack[depth - 1 - std::size_t(i)];
                if (s.comm >= 0) {
                    comm->poison(s.comm);
                    s.comm = -1;
                }
            }
        }
        // Comparisons on a tagged chain become commit-time constraints
        // (two-chain compares are only meaningful within one record).
        auto comm_compare = [&](CommConstraint::Kind kind, const Slot &a,
                                const Slot &b, bool outcome) {
            if (!comm || (a.comm < 0 && b.comm < 0))
                return;
            if (a.comm >= 0 && b.comm >= 0 && a.comm != b.comm) {
                comm->poison(a.comm);
                comm->poison(b.comm);
                return;
            }
            CommConstraint c;
            c.kind = kind;
            c.aChain = a.comm >= 0;
            c.bChain = b.comm >= 0;
            c.aOff = a.comm >= 0 ? a.commOff : a.value;
            c.bOff = b.comm >= 0 ? b.commOff : b.value;
            c.expected = outcome;
            comm->addConstraint(a.comm >= 0 ? a.comm : b.comm, c);
        };
        auto finish_event = [&](std::uint32_t data_bytes = 0,
                                const U256 &slot = U256()) {
            if (ctx.trace) {
                TraceEvent &ev = ctx.trace->events[event_idx];
                ev.gasCost = std::uint32_t(gas_before - frame.gas);
                ev.dataBytes = data_bytes;
                ev.storageKey = slot;
                ev.nextPc = std::uint32_t(frame.pc);
            }
        };

        Op op = Op(opcode);
        std::size_t next_pc = pc + 1 + info.immediateBytes;
        frame.pc = next_pc;

        // --- stack group -------------------------------------------------
        if (isPush(opcode)) {
            int n = info.immediateBytes;
            U256 v;
            for (int i = 0; i < n && pc + 1 + i < frame.code.size(); ++i)
                v = v.shl(8) | U256(std::uint64_t(frame.code[pc + 1 + i]));
            push(v, Taint::Constant);
            finish_event();
            continue;
        }
        if (isDup(opcode)) {
            int n = opcode - std::uint8_t(Op::DUP1) + 1;
            Slot s = frame.stack[frame.stack.size() - n];
            frame.stack.push_back(s);
            finish_event();
            continue;
        }
        if (isSwap(opcode)) {
            int n = opcode - std::uint8_t(Op::SWAP1) + 1;
            std::swap(frame.stack[frame.stack.size() - 1],
                      frame.stack[frame.stack.size() - 1 - n]);
            finish_event();
            continue;
        }
        if (isLog(opcode)) {
            if (params.isStatic)
                return Halt::StaticViolation;
            int topics = opcode - std::uint8_t(Op::LOG0);
            Slot off = pop(), size = pop();
            LogEntry entry;
            entry.address = params.to;
            for (int i = 0; i < topics; ++i)
                entry.topics.push_back(pop().value);
            std::uint64_t o = off.value.fitsU64() ? off.value.low64() : ~0ull;
            std::uint64_t s = size.value.fitsU64() ? size.value.low64()
                                                   : ~0ull;
            if (!frame.touchMemory(o, s))
                return Halt::OutOfGas;
            if (!frame.chargeGas(s * GasCosts::kLogDataByte))
                return Halt::OutOfGas;
            if (s)
                entry.data.assign(frame.memory.begin() + o,
                                  frame.memory.begin() + o + s);
            ctx.logs->push_back(std::move(entry));
            finish_event(std::uint32_t(s));
            continue;
        }

        switch (op) {
          // --- arithmetic ------------------------------------------------
          case Op::ADD: {
              Slot a = pop(), b = pop();
              push(a.value + b.value, combine(a.taint, b.taint));
              if (comm && (a.comm >= 0 || b.comm >= 0)) {
                  Slot &r = frame.stack.back();
                  if (a.comm >= 0 && b.comm >= 0) {
                      // chain + chain is no longer affine(+1) in the
                      // slot value.
                      comm->poison(a.comm);
                      comm->poison(b.comm);
                  } else if (a.comm >= 0) {
                      r.comm = a.comm;
                      r.commOff = a.commOff + b.value;
                  } else {
                      r.comm = b.comm;
                      r.commOff = b.commOff + a.value;
                  }
              }
              break;
          }
          case Op::MUL: {
              Slot a = pop(), b = pop();
              push(a.value * b.value, combine(a.taint, b.taint));
              break;
          }
          case Op::SUB: {
              Slot a = pop(), b = pop();
              push(a.value - b.value, combine(a.taint, b.taint));
              if (comm && (a.comm >= 0 || b.comm >= 0)) {
                  Slot &r = frame.stack.back();
                  if (a.comm >= 0 && b.comm >= 0) {
                      // Same record: chain - chain is a constant; the
                      // result is simply untagged. Different records
                      // would entangle two slots — poison both.
                      if (a.comm != b.comm) {
                          comm->poison(a.comm);
                          comm->poison(b.comm);
                      }
                  } else if (a.comm >= 0) {
                      r.comm = a.comm;
                      r.commOff = a.commOff - b.value;
                  } else {
                      // constant - chain negates the slot value: not
                      // affine(+1).
                      comm->poison(b.comm);
                  }
              }
              break;
          }
          case Op::DIV: {
              Slot a = pop(), b = pop();
              push(a.value.udiv(b.value), combine(a.taint, b.taint));
              break;
          }
          case Op::SDIV: {
              Slot a = pop(), b = pop();
              push(a.value.sdiv(b.value), combine(a.taint, b.taint));
              break;
          }
          case Op::MOD: {
              Slot a = pop(), b = pop();
              push(a.value.umod(b.value), combine(a.taint, b.taint));
              break;
          }
          case Op::SMOD: {
              Slot a = pop(), b = pop();
              push(a.value.smod(b.value), combine(a.taint, b.taint));
              break;
          }
          case Op::ADDMOD: {
              Slot a = pop(), b = pop(), m = pop();
              push(U256::addmod(a.value, b.value, m.value),
                   combine(combine(a.taint, b.taint), m.taint));
              break;
          }
          case Op::MULMOD: {
              Slot a = pop(), b = pop(), m = pop();
              push(U256::mulmod(a.value, b.value, m.value),
                   combine(combine(a.taint, b.taint), m.taint));
              break;
          }
          case Op::EXP: {
              Slot a = pop(), e = pop();
              std::uint64_t ebytes = std::uint64_t(e.value.byteLength());
              if (!frame.chargeGas(ebytes * GasCosts::kExpByte))
                  return Halt::OutOfGas;
              push(U256::exp(a.value, e.value), combine(a.taint, e.taint));
              break;
          }
          case Op::SIGNEXTEND: {
              Slot b = pop(), x = pop();
              push(U256::signextend(b.value, x.value),
                   combine(b.taint, x.taint));
              break;
          }

          // --- logic -----------------------------------------------------
          case Op::LT: {
              Slot a = pop(), b = pop();
              bool r = a.value < b.value;
              push(U256(r ? 1 : 0), combine(a.taint, b.taint));
              comm_compare(CommConstraint::Kind::Lt, a, b, r);
              break;
          }
          case Op::GT: {
              Slot a = pop(), b = pop();
              bool r = a.value > b.value;
              push(U256(r ? 1 : 0), combine(a.taint, b.taint));
              comm_compare(CommConstraint::Kind::Gt, a, b, r);
              break;
          }
          case Op::SLT: {
              Slot a = pop(), b = pop();
              bool r = a.value.slt(b.value);
              push(U256(r ? 1 : 0), combine(a.taint, b.taint));
              comm_compare(CommConstraint::Kind::Slt, a, b, r);
              break;
          }
          case Op::SGT: {
              Slot a = pop(), b = pop();
              bool r = b.value.slt(a.value);
              push(U256(r ? 1 : 0), combine(a.taint, b.taint));
              comm_compare(CommConstraint::Kind::Sgt, a, b, r);
              break;
          }
          case Op::EQ: {
              Slot a = pop(), b = pop();
              bool r = a.value == b.value;
              push(U256(r ? 1 : 0), combine(a.taint, b.taint));
              comm_compare(CommConstraint::Kind::Eq, a, b, r);
              break;
          }
          case Op::ISZERO: {
              Slot a = pop();
              push(U256(a.value.isZero() ? 1 : 0), a.taint);
              if (comm && a.comm >= 0) {
                  CommConstraint c;
                  c.kind = CommConstraint::Kind::IsZero;
                  c.aChain = true;
                  c.aOff = a.commOff;
                  c.expected = a.value.isZero();
                  comm->addConstraint(a.comm, c);
              }
              break;
          }
          case Op::AND: {
              Slot a = pop(), b = pop();
              push(a.value & b.value, combine(a.taint, b.taint));
              break;
          }
          case Op::OR: {
              Slot a = pop(), b = pop();
              push(a.value | b.value, combine(a.taint, b.taint));
              break;
          }
          case Op::XOR: {
              Slot a = pop(), b = pop();
              push(a.value ^ b.value, combine(a.taint, b.taint));
              break;
          }
          case Op::NOT: {
              Slot a = pop();
              push(~a.value, a.taint);
              break;
          }
          case Op::BYTE: {
              Slot i = pop(), x = pop();
              push(i.value.fitsU64()
                       ? x.value.byteAt(unsigned(i.value.low64()))
                       : U256(),
                   combine(i.taint, x.taint));
              break;
          }
          case Op::SHL: {
              Slot n = pop(), x = pop();
              push(n.value.fitsU64() ? x.value.shl(unsigned(n.value.low64()))
                                     : U256(),
                   combine(n.taint, x.taint));
              break;
          }
          case Op::SHR: {
              Slot n = pop(), x = pop();
              push(n.value.fitsU64() ? x.value.shr(unsigned(n.value.low64()))
                                     : U256(),
                   combine(n.taint, x.taint));
              break;
          }
          case Op::SAR: {
              Slot n = pop(), x = pop();
              if (n.value.fitsU64()) {
                  push(x.value.sar(unsigned(n.value.low64())),
                       combine(n.taint, x.taint));
              } else {
                  push(x.value.isNegative() ? U256::max() : U256(),
                       combine(n.taint, x.taint));
              }
              break;
          }

          // --- SHA -------------------------------------------------------
          case Op::SHA3: {
              Slot off = pop(), size = pop();
              std::uint64_t o = off.value.fitsU64() ? off.value.low64()
                                                    : ~0ull;
              std::uint64_t s = size.value.fitsU64() ? size.value.low64()
                                                     : ~0ull;
              if (!frame.touchMemory(o, s))
                  return Halt::OutOfGas;
              if (!frame.chargeGas(wordCount(s) * GasCosts::kSha3Word))
                  return Halt::OutOfGas;
              std::uint8_t digest[32];
              keccak256(s ? frame.memory.data() + o : nullptr, s, digest);
              Taint t = combine(combine(off.taint, size.taint),
                                frame.memTaintRange(o, s));
              push(U256::fromBytes(digest, 32), t);
              finish_event(std::uint32_t(s));
              continue;
          }

          // --- fixed access ------------------------------------------------
          case Op::ADDRESS:
            push(params.to, Taint::TxAttr);
            break;
          case Op::ORIGIN:
            push(ctx.origin, Taint::TxAttr);
            break;
          case Op::CALLER:
            push(params.caller, Taint::TxAttr);
            break;
          case Op::CALLVALUE:
            push(params.value, Taint::TxAttr);
            break;
          case Op::GASPRICE:
            push(ctx.gasPrice, Taint::TxAttr);
            break;
          case Op::CALLDATALOAD: {
              Slot idx = pop();
              U256 v;
              if (idx.value.fitsU64()) {
                  std::uint8_t buf[32] = {0};
                  std::uint64_t base = idx.value.low64();
                  for (int i = 0; i < 32; ++i) {
                      if (base + i < params.input.size())
                          buf[i] = params.input[base + i];
                  }
                  v = U256::fromBytes(buf, 32);
              }
              push(v, combine(idx.taint, Taint::TxAttr));
              finish_event(32);
              continue;
          }
          case Op::CALLDATASIZE:
            push(U256(std::uint64_t(params.input.size())), Taint::TxAttr);
            break;
          case Op::CALLDATACOPY: {
              Slot dst = pop(), src = pop(), size = pop();
              std::uint64_t d = dst.value.fitsU64() ? dst.value.low64()
                                                    : ~0ull;
              std::uint64_t s = size.value.fitsU64() ? size.value.low64()
                                                     : ~0ull;
              if (!frame.touchMemory(d, s))
                  return Halt::OutOfGas;
              if (!frame.chargeGas(wordCount(s) * GasCosts::kCopyWord))
                  return Halt::OutOfGas;
              std::uint64_t so = src.value.fitsU64() ? src.value.low64()
                                                     : ~0ull;
              for (std::uint64_t i = 0; i < s; ++i) {
                  frame.memory[d + i] = (so + i < params.input.size())
                                            ? params.input[so + i]
                                            : 0;
              }
              frame.setMemTaint(d, s, Taint::TxAttr);
              finish_event(std::uint32_t(s));
              continue;
          }
          case Op::CODESIZE:
            push(U256(std::uint64_t(frame.code.size())), Taint::Constant);
            break;
          case Op::CODECOPY: {
              Slot dst = pop(), src = pop(), size = pop();
              std::uint64_t d = dst.value.fitsU64() ? dst.value.low64()
                                                    : ~0ull;
              std::uint64_t s = size.value.fitsU64() ? size.value.low64()
                                                     : ~0ull;
              if (!frame.touchMemory(d, s))
                  return Halt::OutOfGas;
              if (!frame.chargeGas(wordCount(s) * GasCosts::kCopyWord))
                  return Halt::OutOfGas;
              std::uint64_t so = src.value.fitsU64() ? src.value.low64()
                                                     : ~0ull;
              for (std::uint64_t i = 0; i < s; ++i) {
                  frame.memory[d + i] = (so + i < frame.code.size())
                                            ? frame.code[so + i]
                                            : 0;
              }
              frame.setMemTaint(d, s, Taint::Constant);
              finish_event(std::uint32_t(s));
              continue;
          }
          case Op::RETURNDATASIZE:
            push(U256(std::uint64_t(frame.returnData.size())),
                 frame.returnDataTaint);
            break;
          case Op::RETURNDATACOPY: {
              Slot dst = pop(), src = pop(), size = pop();
              std::uint64_t d = dst.value.fitsU64() ? dst.value.low64()
                                                    : ~0ull;
              std::uint64_t s = size.value.fitsU64() ? size.value.low64()
                                                     : ~0ull;
              if (!frame.touchMemory(d, s))
                  return Halt::OutOfGas;
              if (!frame.chargeGas(wordCount(s) * GasCosts::kCopyWord))
                  return Halt::OutOfGas;
              std::uint64_t so = src.value.fitsU64() ? src.value.low64()
                                                     : ~0ull;
              if (so + s > frame.returnData.size())
                  return Halt::BadJump; // out-of-bounds returndata
              if (s) // both buffers may be empty (null data())
                  std::memcpy(frame.memory.data() + d,
                              frame.returnData.data() + so, s);
              frame.setMemTaint(d, s, frame.returnDataTaint);
              finish_event(std::uint32_t(s));
              continue;
          }
          case Op::BLOCKHASH: {
              Slot n = pop();
              U256 h = n.value.fitsU64()
                           ? ctx.header.blockHash(n.value.low64())
                           : U256();
              push(h, Taint::TxAttr);
              break;
          }
          case Op::COINBASE:
            push(ctx.header.coinbase, Taint::TxAttr);
            break;
          case Op::TIMESTAMP:
            push(U256(ctx.header.timestamp), Taint::TxAttr);
            break;
          case Op::NUMBER:
            push(U256(ctx.header.height), Taint::TxAttr);
            break;
          case Op::DIFFICULTY:
            push(ctx.header.difficulty, Taint::TxAttr);
            break;
          case Op::GASLIMIT:
            push(U256(ctx.header.gasLimit), Taint::TxAttr);
            break;
          case Op::PC:
            push(U256(std::uint64_t(pc)), Taint::Constant);
            break;
          case Op::GAS:
            push(U256(frame.gas), Taint::Dynamic);
            break;

          // --- state query -------------------------------------------------
          case Op::BALANCE: {
              Slot a = pop();
              Address addr = toAddress(a.value);
              push(state.balance(addr), Taint::Dynamic);
              finish_event(32, addr);
              continue;
          }
          case Op::EXTCODESIZE: {
              Slot a = pop();
              Address addr = toAddress(a.value);
              push(U256(std::uint64_t(state.code(addr).size())),
                   Taint::Dynamic);
              finish_event(32, addr);
              continue;
          }
          case Op::EXTCODECOPY: {
              Slot a = pop(), dst = pop(), src = pop(), size = pop();
              Address addr = toAddress(a.value);
              const Bytes &ext = state.code(addr);
              std::uint64_t d = dst.value.fitsU64() ? dst.value.low64()
                                                    : ~0ull;
              std::uint64_t s = size.value.fitsU64() ? size.value.low64()
                                                     : ~0ull;
              if (!frame.touchMemory(d, s))
                  return Halt::OutOfGas;
              if (!frame.chargeGas(wordCount(s) * GasCosts::kCopyWord))
                  return Halt::OutOfGas;
              std::uint64_t so = src.value.fitsU64() ? src.value.low64()
                                                     : ~0ull;
              for (std::uint64_t i = 0; i < s; ++i)
                  frame.memory[d + i] = (so + i < ext.size()) ? ext[so + i]
                                                              : 0;
              frame.setMemTaint(d, s, Taint::Dynamic);
              finish_event(std::uint32_t(s), addr);
              continue;
          }
          case Op::EXTCODEHASH: {
              Slot a = pop();
              Address addr = toAddress(a.value);
              push(state.codeHash(addr), Taint::Dynamic);
              finish_event(32, addr);
              continue;
          }

          // --- memory ------------------------------------------------------
          case Op::MLOAD: {
              Slot off = pop();
              std::uint64_t o = off.value.fitsU64() ? off.value.low64()
                                                    : ~0ull;
              if (!frame.touchMemory(o, 32))
                  return Halt::OutOfGas;
              Taint t = combine(off.taint, frame.memTaintRange(o, 32));
              push(U256::fromBytes(frame.memory.data() + o, 32), t);
              finish_event(32);
              continue;
          }
          case Op::MSTORE: {
              Slot off = pop(), val = pop();
              std::uint64_t o = off.value.fitsU64() ? off.value.low64()
                                                    : ~0ull;
              if (!frame.touchMemory(o, 32))
                  return Halt::OutOfGas;
              val.value.toBytes(frame.memory.data() + o);
              frame.setMemTaint(o, 32, val.taint);
              finish_event(32);
              continue;
          }
          case Op::MSTORE8: {
              Slot off = pop(), val = pop();
              std::uint64_t o = off.value.fitsU64() ? off.value.low64()
                                                    : ~0ull;
              if (!frame.touchMemory(o, 1))
                  return Halt::OutOfGas;
              frame.memory[o] = std::uint8_t(val.value.low64() & 0xff);
              frame.setMemTaint(o, 1, val.taint);
              finish_event(1);
              continue;
          }
          case Op::MSIZE:
            push(U256(std::uint64_t(frame.memory.size())), Taint::Dynamic);
            break;

          // --- storage -----------------------------------------------------
          case Op::SLOAD: {
              Slot key = pop();
              U256 loaded = state.storageAt(params.to, key.value);
              push(loaded, Taint::Dynamic);
              if (comm) {
                  if (key.comm >= 0) {
                      // A chain value used as a storage key escapes the
                      // affine model on both ends.
                      comm->poison(key.comm);
                      comm->poisonSlot(params.to, key.value);
                  } else {
                      int idx = comm->load(params.to, key.value, loaded);
                      if (idx >= 0) {
                          frame.stack.back().comm = idx;
                          frame.stack.back().commOff =
                              comm->at(idx)->curOff;
                      }
                  }
              }
              finish_event(32, key.value);
              continue;
          }
          case Op::SSTORE: {
              if (params.isStatic)
                  return Halt::StaticViolation;
              Slot key = pop(), val = pop();
              U256 cur = state.storageAt(params.to, key.value);
              std::uint64_t cost;
              if (cur == val.value)
                  cost = GasCosts::kSload;
              else if (cur.isZero())
                  cost = GasCosts::kSstoreSet;
              else
                  cost = GasCosts::kSstoreReset;
              if (!frame.chargeGas(cost))
                  return Halt::OutOfGas;
              state.setStorage(params.to, key.value, val.value);
              if (comm) {
                  if (key.comm >= 0) {
                      comm->poison(key.comm);
                      comm->poison(val.comm);
                      comm->poisonSlot(params.to, key.value);
                  } else {
                      comm->store(params.to, key.value, cur, val.comm,
                                  val.commOff);
                  }
              }
              finish_event(32, key.value);
              continue;
          }

          // --- branch ------------------------------------------------------
          case Op::JUMP: {
              Slot dest = pop();
              if (!dest.value.fitsU64()
                  || dest.value.low64() >= frame.code.size()
                  || !frame.jumpdests[dest.value.low64()]) {
                  return Halt::BadJump;
              }
              frame.pc = dest.value.low64();
              break;
          }
          case Op::JUMPI: {
              Slot dest = pop(), cond = pop();
              bool taken = !cond.value.isZero();
              if (comm) {
                  if (dest.comm >= 0)
                      comm->poison(dest.comm);
                  if (cond.comm >= 0) {
                      // Branching directly on a chain value: pin the
                      // outcome so a re-played run takes the same path.
                      CommConstraint c;
                      c.kind = CommConstraint::Kind::IsZero;
                      c.aChain = true;
                      c.aOff = cond.commOff;
                      c.expected = cond.value.isZero();
                      comm->addConstraint(cond.comm, c);
                  }
              }
              if (taken) {
                  if (!dest.value.fitsU64()
                      || dest.value.low64() >= frame.code.size()
                      || !frame.jumpdests[dest.value.low64()]) {
                      return Halt::BadJump;
                  }
                  frame.pc = dest.value.low64();
              }
              if (ctx.trace)
                  ctx.trace->events[event_idx].branchTaken = taken;
              break;
          }
          case Op::JUMPDEST:
          case Op::POP:
            if (op == Op::POP)
                pop();
            break;

          // --- control -----------------------------------------------------
          case Op::STOP:
            finish_event();
            output.clear();
            return Halt::None;
          case Op::RETURN:
          case Op::REVERT: {
              Slot off = pop(), size = pop();
              std::uint64_t o = off.value.fitsU64() ? off.value.low64()
                                                    : ~0ull;
              std::uint64_t s = size.value.fitsU64() ? size.value.low64()
                                                     : ~0ull;
              if (!frame.touchMemory(o, s))
                  return Halt::OutOfGas;
              output.clear();
              if (s)
                  output.assign(frame.memory.begin() + o,
                                frame.memory.begin() + o + s);
              reverted = (op == Op::REVERT);
              finish_event(std::uint32_t(s));
              return Halt::None;
          }

          // --- context switching --------------------------------------------
          case Op::CREATE:
          case Op::CREATE2:
          case Op::CALL:
          case Op::CALLCODE:
          case Op::DELEGATECALL:
          case Op::STATICCALL:
              sw.pending = true;
              sw.op = op;
              sw.gasBefore = gas_before;
              sw.eventIdx = event_idx;
              return Halt::None;

          default:
            return Halt::InvalidOp;
        }
        finish_event();
    }
    // Fell off the end of the code: implicit STOP.
    output.clear();
    return Halt::None;
}

/** Close the trace event of the instruction @p sw describes. */
void
finishEvent(ExecContext &ctx, const Frame &frame, const ContextSwitch &sw,
            std::uint32_t data_bytes, const U256 &slot = U256())
{
    if (ctx.trace) {
        TraceEvent &ev = ctx.trace->events[sw.eventIdx];
        ev.gasCost = std::uint32_t(sw.gasBefore - frame.gas);
        ev.dataBytes = data_bytes;
        ev.storageKey = slot;
        ev.nextPc = std::uint32_t(frame.pc);
    }
}

/**
 * CREATE/CREATE2 and the CALL family run out of line, so only their
 * own locals stay live while the nested frame runs. Halt::None means
 * "continue at the next instruction".
 */
[[gnu::noinline]] Halt
execCreate(ExecContext &ctx, Frame &frame, const CallParams &params,
           const ContextSwitch &sw)
{
    WorldState &state = ctx.state;
    if (params.isStatic)
        return Halt::StaticViolation;
    Slot value = frame.pop(), off = frame.pop(), size = frame.pop();
    U256 salt;
    if (sw.op == Op::CREATE2)
        salt = frame.pop().value;
    std::uint64_t o = off.value.fitsU64() ? off.value.low64() : ~0ull;
    std::uint64_t s = size.value.fitsU64() ? size.value.low64() : ~0ull;
    if (!frame.touchMemory(o, s))
        return Halt::OutOfGas;
    Bytes init;
    if (s)
        init.assign(frame.memory.begin() + o,
                    frame.memory.begin() + o + s);

    Address created;
    if (sw.op == Op::CREATE) {
        created = createAddress(params.to,
                                state.nonce(params.to));
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
        || state.balance(params.to) < value.value) {
        frame.push(U256(), Taint::Dynamic);
        finishEvent(ctx, frame, sw, std::uint32_t(s));
        return Halt::None;
    }

    auto snap = state.snapshot();
    state.createAccount(created);
    state.subBalance(params.to, value.value);
    state.addBalance(created, value.value);

    std::uint64_t fwd_gas = frame.gas - frame.gas / 64;
    CallParams sub;
    sub.caller = params.to;
    sub.to = created;
    sub.codeFrom = created;
    sub.value = value.value;
    sub.gas = fwd_gas;
    sub.depth = params.depth + 1;

    // Run the init code; output becomes the account code.
    Frame init_frame(init);
    init_frame.gas = fwd_gas;
    Bytes deployed;
    bool sub_rev = false;
    Halt h = runFrame(ctx, init_frame, sub, deployed, sub_rev);
    std::uint64_t used = fwd_gas - init_frame.gas;
    frame.gas -= (h == Halt::None && !sub_rev)
                     ? used
                     : (h == Halt::None ? used : fwd_gas);
    if (h == Halt::None && !sub_rev) {
        state.setCode(created, deployed);
        frame.push(created, Taint::Dynamic);
    } else {
        state.revert(snap);
        frame.push(U256(), Taint::Dynamic);
    }
    frame.returnData.clear();
    finishEvent(ctx, frame, sw, std::uint32_t(s));
    return Halt::None;
}

[[gnu::noinline]] Halt
execCall(ExecContext &ctx, Frame &frame, const CallParams &params,
         const ContextSwitch &sw)
{
    WorldState &state = ctx.state;
    Slot gas_slot = frame.pop(), addr_slot = frame.pop();
    U256 value;
    if (sw.op == Op::CALL || sw.op == Op::CALLCODE)
        value = frame.pop().value;
    Slot in_off = frame.pop(), in_size = frame.pop(), out_off = frame.pop(),
         out_size = frame.pop();

    if (sw.op == Op::CALL && params.isStatic && !value.isZero())
        return Halt::StaticViolation;

    std::uint64_t io = in_off.value.fitsU64()
                           ? in_off.value.low64() : ~0ull;
    std::uint64_t is = in_size.value.fitsU64()
                           ? in_size.value.low64() : ~0ull;
    std::uint64_t oo = out_off.value.fitsU64()
                           ? out_off.value.low64() : ~0ull;
    std::uint64_t os = out_size.value.fitsU64()
                           ? out_size.value.low64() : ~0ull;
    if (!frame.touchMemory(io, is) || !frame.touchMemory(oo, os))
        return Halt::OutOfGas;

    if (!value.isZero()
        && !frame.chargeGas(GasCosts::kCallValue)) {
        return Halt::OutOfGas;
    }

    Address target = toAddress(addr_slot.value);
    Bytes input;
    if (is)
        input.assign(frame.memory.begin() + io,
                     frame.memory.begin() + io + is);

    std::uint64_t max_fwd = frame.gas - frame.gas / 64;
    std::uint64_t req = gas_slot.value.fitsU64()
                            ? gas_slot.value.low64()
                            : max_fwd;
    std::uint64_t fwd = req < max_fwd ? req : max_fwd;
    if (!value.isZero())
        fwd += GasCosts::kCallStipend;

    CallParams sub;
    sub.caller = (sw.op == Op::DELEGATECALL) ? params.caller
                                             : params.to;
    sub.codeFrom = target;
    sub.to = (sw.op == Op::CALL || sw.op == Op::STATICCALL)
                 ? target
                 : params.to;
    sub.value = (sw.op == Op::DELEGATECALL) ? params.value : value;
    sub.input = std::move(input);
    sub.gas = fwd;
    sub.isStatic = params.isStatic || sw.op == Op::STATICCALL;
    sub.depth = params.depth + 1;

    bool ok;
    CallResult res;
    if (params.depth + 1 > kMaxCallDepth) {
        ok = false;
        res.gasUsed = 0;
    } else if (sw.op == Op::CALL && !value.isZero()
               && state.balance(params.to) < value) {
        ok = false;
        res.gasUsed = 0;
    } else {
        auto snap = state.snapshot();
        if (sw.op == Op::CALL && !value.isZero()) {
            state.subBalance(params.to, value);
            state.addBalance(target, value);
        }
        res = ctx.interp->call(state, ctx.header, ctx.origin,
                               ctx.gasPrice, sub, ctx.trace);
        ok = res.success;
        if (!ok)
            state.revert(snap);
    }
    std::uint64_t charge = res.gasUsed < fwd ? res.gasUsed : fwd;
    // The stipend is free to the caller.
    std::uint64_t stipend = value.isZero()
                                ? 0 : GasCosts::kCallStipend;
    charge = charge > stipend ? charge - stipend : 0;
    if (!frame.chargeGas(charge))
        return Halt::OutOfGas;

    frame.returnData = res.returnData;
    frame.returnDataTaint = Taint::Dynamic;
    std::uint64_t copy = res.returnData.size() < os
                             ? res.returnData.size()
                             : os;
    if (copy)
        std::memcpy(frame.memory.data() + oo,
                    res.returnData.data(), copy);
    frame.setMemTaint(oo, copy, Taint::Dynamic);
    frame.push(U256(ok ? 1 : 0), Taint::Dynamic);
    finishEvent(ctx, frame, sw, std::uint32_t(is + os), target);
    return Halt::None;
}

/**
 * Execute the body of one frame. Returns the halt reason (None on
 * normal STOP/RETURN/REVERT). @p reverted distinguishes REVERT.
 */
Halt
runFrame(ExecContext &ctx, Frame &frame, const CallParams &params,
         Bytes &output, bool &reverted)
{
    reverted = false;
    std::uint16_t code_id = 0;
    if (ctx.trace) {
        code_id = ctx.trace->internCode(params.codeFrom,
                                        std::uint32_t(frame.code.size()));
    }
    for (;;) {
        ContextSwitch sw;
        Halt h = runUntilSwitch(ctx, frame, params, code_id, output,
                                reverted, sw);
        if (!sw.pending)
            return h;
        h = (sw.op == Op::CREATE || sw.op == Op::CREATE2)
                ? execCreate(ctx, frame, params, sw)
                : execCall(ctx, frame, params, sw);
        if (h != Halt::None)
            return h;
    }
}

} // namespace

CallResult
Interpreter::call(WorldState &state, const BlockHeader &header,
                  const Address &origin, const U256 &gas_price,
                  const CallParams &params, Trace *trace)
{
    CallResult result;
    const Bytes &code = state.code(params.codeFrom);
    if (code.empty()) {
        // Plain transfer or empty account: succeeds, no execution.
        result.success = true;
        result.gasUsed = 0;
        return result;
    }

    ExecContext ctx{state, header, origin, gas_price, &logs_, trace, this};

    Frame frame(code);
    frame.gas = params.gas;

    auto snap = state.snapshot();
    Bytes output;
    bool reverted = false;
    Halt halt = runFrame(ctx, frame, params, output, reverted);

    if (halt != Halt::None) {
        state.revert(snap);
        result.success = false;
        result.gasUsed = params.gas; // exceptional halt consumes all gas
        result.error = haltName(halt);
    } else if (reverted) {
        state.revert(snap);
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

Receipt
Interpreter::applyTransaction(WorldState &state, const BlockHeader &header,
                              const Transaction &tx, Trace *trace,
                              bool commitState)
{
    logs_.clear();
    Receipt receipt;

    std::uint64_t intrinsic = intrinsicGas(tx);
    if (tx.gasLimit < intrinsic) {
        receipt.error = "intrinsic gas exceeds limit";
        receipt.gasUsed = tx.gasLimit;
        disarmAbort();
        return receipt;
    }

    U256 max_fee = U256(tx.gasLimit) * tx.gasPrice;
    if (state.balance(tx.from) < max_fee + tx.callValue) {
        receipt.error = "insufficient balance";
        receipt.gasUsed = 0;
        disarmAbort();
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

    if (trace) {
        trace->entryFunction = tx.functionId();
        trace->calldataBytes = std::uint32_t(tx.data.size());
        // Fixed tx fields (Fig. 3a / Table 4) + sender/receiver account
        // metadata make up the non-bytecode context.
        trace->contextBytes = 128 + std::uint32_t(tx.data.size()) + 64;
    }

    CallResult res = call(state, header, tx.from, tx.gasPrice, params,
                          trace);

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
    disarmAbort();

    if (trace) {
        trace->gasUsed = receipt.gasUsed;
        trace->success = receipt.success;
    }
    return receipt;
}

} // namespace mtpu::evm
