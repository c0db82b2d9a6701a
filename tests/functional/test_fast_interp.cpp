/**
 * @file
 * Differential tests of the functional fast tier (evm/fast_interp.hpp)
 * against the reference Interpreter: identical receipts (RLP-compared),
 * error classification, logs, gas, and post-state digests across
 * handcrafted edge-case bytecode and full generated workloads.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "contracts/contracts.hpp"
#include "evm/fast_interp.hpp"
#include "evm/interpreter.hpp"
#include "workload/workload.hpp"

namespace mtpu::evm {
namespace {

using easm::Assembler;

const Address kSender = U256(0xaaaa);
const Address kContract = U256(0xcccc);
const Address kCoinbase = U256(0xfee);

BlockHeader
testHeader()
{
    BlockHeader header;
    header.height = 1000;
    header.timestamp = 1700000000;
    header.coinbase = kCoinbase;
    header.difficulty = U256(2);
    header.recentHashes.assign(256, U256(0x1234));
    return header;
}

WorldState
baseState(const Bytes &code)
{
    WorldState state;
    state.setBalance(kSender, U256::fromDec("1000000000000000000"));
    if (!code.empty()) {
        state.createAccount(kContract);
        state.setCode(kContract, code);
    }
    state.commit();
    return state;
}

/**
 * Run the same transaction through both tiers on identical states and
 * require bit-identical receipts, logs and post-state digests. Returns
 * the (shared) receipt for additional assertions.
 */
Receipt
diffRun(const Bytes &code, const Bytes &data, const U256 &value = U256(),
        std::uint64_t gasLimit = 0)
{
    BlockHeader header = testHeader();
    Transaction tx;
    tx.from = kSender;
    tx.to = kContract;
    tx.data = data;
    tx.callValue = value;
    if (gasLimit)
        tx.gasLimit = gasLimit;

    WorldState refState = baseState(code);
    Interpreter ref;
    Receipt want = ref.applyTransaction(refState, header, tx);

    WorldState fastState = baseState(code);
    FastInterpreter fast;
    Receipt got = fast.applyTransaction(fastState, header, tx);

    EXPECT_EQ(got.toRlp(), want.toRlp());
    EXPECT_EQ(got.success, want.success);
    EXPECT_EQ(got.gasUsed, want.gasUsed);
    EXPECT_EQ(got.returnData, want.returnData);
    EXPECT_EQ(got.error, want.error);
    EXPECT_EQ(got.logs.size(), want.logs.size());
    EXPECT_EQ(fastState.digest(), refState.digest());
    return want;
}

TEST(FastInterpDiff, PlainValueTransfer)
{
    BlockHeader header = testHeader();
    Transaction tx;
    tx.from = kSender;
    tx.to = U256(0xb0b);
    tx.callValue = U256(12345);

    WorldState refState = baseState({});
    Interpreter ref;
    Receipt want = ref.applyTransaction(refState, header, tx);

    WorldState fastState = baseState({});
    FastInterpreter fast;
    Receipt got = fast.applyTransaction(fastState, header, tx);

    EXPECT_EQ(got.toRlp(), want.toRlp());
    EXPECT_EQ(fastState.digest(), refState.digest());
    EXPECT_TRUE(got.success);
    EXPECT_EQ(got.gasUsed, 21000u);
}

TEST(FastInterpDiff, ArithmeticAndComparisons)
{
    // Exercise the fused-run prologue over a long pure sequence.
    Assembler a;
    a.push(U256(4)).push(U256(3)).op(Assembler::Op::ADD);
    a.push(U256(5)).op(Assembler::Op::MUL);
    a.push(U256(7)).op(Assembler::Op::SWAP1).op(Assembler::Op::MOD);
    a.push(U256(100)).op(Assembler::Op::GT);
    a.op(Assembler::Op::ISZERO);
    a.returnTopWord();
    Receipt r = diffRun(a.assemble(), {});
    EXPECT_TRUE(r.success);
}

TEST(FastInterpDiff, SignedOpsAndShifts)
{
    Assembler a;
    a.push(U256(0)).op(Assembler::Op::NOT); // -1
    a.push(U256(2)).op(Assembler::Op::SDIV);
    a.push(U256(3)).op(Assembler::Op::SGT);
    a.push(U256(0)).op(Assembler::Op::NOT);
    a.push(U256(255)).op(Assembler::Op::SAR);
    a.op(Assembler::Op::XOR);
    a.push(U256(31)).op(Assembler::Op::BYTE);
    a.push(U256(0x1234)).push(U256(8)).op(Assembler::Op::SHL);
    a.op(Assembler::Op::OR);
    a.returnTopWord();
    EXPECT_TRUE(diffRun(a.assemble(), {}).success);
}

TEST(FastInterpDiff, ExpDynamicGas)
{
    Assembler a;
    a.push(U256::fromHex("1000000000000000000000000000000000"))
        .push(U256(3))
        .op(Assembler::Op::EXP);
    a.returnTopWord();
    EXPECT_TRUE(diffRun(a.assemble(), {}).success);
}

TEST(FastInterpDiff, JumpLoopAndJumpi)
{
    // for (i = 10; i != 0; --i); return 42
    Assembler a;
    a.push(U256(10));
    a.dest("loop");
    a.push(U256(1)).op(Assembler::Op::SWAP1).op(Assembler::Op::SUB);
    a.op(Assembler::Op::DUP1);
    a.pushLabel("loop").op(Assembler::Op::JUMPI);
    a.op(Assembler::Op::POP);
    a.push(U256(42));
    a.returnTopWord();
    Receipt r = diffRun(a.assemble(), {});
    EXPECT_TRUE(r.success);
}

TEST(FastInterpDiff, BadJumpDestination)
{
    Assembler a;
    a.push(U256(3)).op(Assembler::Op::JUMP); // offset 3 is not JUMPDEST
    a.stop();
    Receipt r = diffRun(a.assemble(), {});
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.error, "bad jump destination");
}

TEST(FastInterpDiff, JumpIntoPushImmediateRejected)
{
    // A 0x5b byte inside a PUSH immediate is data, not a JUMPDEST.
    Assembler a;
    a.push(U256(4)).op(Assembler::Op::JUMP);
    a.pushN(2, U256(0x5b5b));
    a.stop();
    Receipt r = diffRun(a.assemble(), {});
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.error, "bad jump destination");
}

TEST(FastInterpDiff, StackUnderflowInsideFusedRun)
{
    Assembler a;
    a.push(U256(1)).op(Assembler::Op::ADD); // ADD needs two operands
    a.stop();
    Receipt r = diffRun(a.assemble(), {});
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.error, "stack underflow");
}

TEST(FastInterpDiff, StackOverflow)
{
    // Unbounded DUP loop overflows at exactly kMaxStackDepth.
    Assembler a;
    a.push(U256(1));
    a.dest("loop");
    a.op(Assembler::Op::DUP1);
    a.pushLabel("loop").op(Assembler::Op::JUMP);
    Receipt r = diffRun(a.assemble(), {});
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.error, "stack overflow");
}

TEST(FastInterpDiff, OutOfGasMidRun)
{
    // Burn gas in a tight pure loop under a small gas limit: the halt
    // must surface as out-of-gas with all gas consumed, and the halt
    // point inside a fused run must not corrupt state.
    Assembler a;
    a.push(U256(1));
    a.dest("loop");
    a.op(Assembler::Op::DUP1).op(Assembler::Op::POP);
    a.pushLabel("loop").op(Assembler::Op::JUMP);
    Receipt r = diffRun(a.assemble(), {}, U256(), 30000);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.error, "out of gas");
    EXPECT_EQ(r.gasUsed, 30000u);
}

TEST(FastInterpDiff, InvalidOpcodeHaltsBeforeChecks)
{
    Assembler a;
    a.raw({0xfe});
    Receipt r = diffRun(a.assemble(), {});
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.error, "invalid opcode");
}

TEST(FastInterpDiff, TruncatedPushImmediate)
{
    // PUSH32 with only 2 immediate bytes present: the immediate is the
    // available bytes, execution then falls off the end (implicit STOP).
    Bytes code = {std::uint8_t(Op::PUSH32), 0xab, 0xcd};
    Receipt r = diffRun(code, {});
    EXPECT_TRUE(r.success);
}

TEST(FastInterpDiff, RevertWithData)
{
    Assembler a;
    a.push(U256(0xdead)).push(U256(0)).op(Assembler::Op::MSTORE);
    a.push(U256(32)).push(U256(0)).op(Assembler::Op::REVERT);
    Receipt r = diffRun(a.assemble(), {});
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.error, "reverted");
    EXPECT_EQ(r.returnData.size(), 32u);
}

TEST(FastInterpDiff, MemoryCopyOpsAndSha3)
{
    Assembler a;
    // CALLDATACOPY the input, hash it, CODECOPY some code over it,
    // MSTORE8 a byte, then return the hash of the first 64 bytes.
    a.push(U256(64)).push(U256(0)).push(U256(0))
        .op(Assembler::Op::CALLDATACOPY);
    a.push(U256(8)).push(U256(0)).push(U256(64))
        .op(Assembler::Op::CODECOPY);
    a.push(U256(0x7f)).push(U256(70)).op(Assembler::Op::MSTORE8);
    a.push(U256(96)).push(U256(0)).op(Assembler::Op::SHA3);
    a.returnTopWord();
    Bytes data(64, 0x5a);
    EXPECT_TRUE(diffRun(a.assemble(), data).success);
}

TEST(FastInterpDiff, EnvironmentOpcodes)
{
    Assembler a;
    a.op(Assembler::Op::ADDRESS).op(Assembler::Op::ORIGIN)
        .op(Assembler::Op::CALLER).op(Assembler::Op::CALLVALUE)
        .op(Assembler::Op::GASPRICE).op(Assembler::Op::CALLDATASIZE)
        .op(Assembler::Op::CODESIZE).op(Assembler::Op::COINBASE)
        .op(Assembler::Op::TIMESTAMP).op(Assembler::Op::NUMBER)
        .op(Assembler::Op::DIFFICULTY).op(Assembler::Op::GASLIMIT)
        .op(Assembler::Op::PC).op(Assembler::Op::MSIZE)
        .op(Assembler::Op::GAS);
    for (int i = 0; i < 14; ++i)
        a.op(Assembler::Op::XOR);
    a.returnTopWord();
    EXPECT_TRUE(diffRun(a.assemble(), Bytes(4, 0x11), U256(7)).success);
}

TEST(FastInterpDiff, BlockhashWindow)
{
    Assembler a;
    a.push(U256(999)).op(Assembler::Op::BLOCKHASH);  // in window
    a.push(U256(1)).op(Assembler::Op::BLOCKHASH);    // out of window
    a.push(U256(2000)).op(Assembler::Op::BLOCKHASH); // future
    a.op(Assembler::Op::XOR).op(Assembler::Op::XOR);
    a.returnTopWord();
    EXPECT_TRUE(diffRun(a.assemble(), {}).success);
}

TEST(FastInterpDiff, StorageWritesAndLogs)
{
    Assembler a;
    a.push(U256(0x11)).push(U256(1)).op(Assembler::Op::SSTORE);
    a.push(U256(1)).op(Assembler::Op::SLOAD);
    a.push(U256(0)).op(Assembler::Op::MSTORE);
    a.push(U256(0xbeef)); // topic
    a.push(U256(32)).push(U256(0)); // size, offset — LOG1 order
    a.op(Assembler::Op::SWAP2).op(Assembler::Op::SWAP1);
    a.op(Assembler::Op::LOG1);
    a.stop();
    Receipt r = diffRun(a.assemble(), {});
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.logs.size(), 1u);
}

TEST(FastInterpDiff, LogsFromRevertedFrameAreKept)
{
    // Repo quirk: logs survive a revert. Both tiers must agree.
    Assembler a;
    a.push(U256(0)).push(U256(0)).op(Assembler::Op::LOG0);
    a.push(U256(0)).push(U256(0)).op(Assembler::Op::REVERT);
    Receipt r = diffRun(a.assemble(), {});
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.logs.size(), 1u);
}

TEST(FastInterpDiff, StaticCallWriteViolation)
{
    // Callee SSTOREs; caller reaches it via STATICCALL and returns the
    // (zero) status word.
    Assembler callee;
    callee.push(U256(1)).push(U256(0)).op(Assembler::Op::SSTORE);
    callee.stop();

    Address calleeAddr = U256(0xdddd);

    Assembler a;
    a.push(U256(0)).push(U256(0)).push(U256(0)).push(U256(0));
    a.push(calleeAddr).push(U256(100000));
    a.op(Assembler::Op::STATICCALL);
    a.returnTopWord();

    BlockHeader header = testHeader();
    Transaction tx;
    tx.from = kSender;
    tx.to = kContract;

    auto setup = [&](WorldState &state) {
        state.setBalance(kSender, U256::fromDec("1000000000000000000"));
        state.createAccount(kContract);
        state.setCode(kContract, a.assemble());
        state.createAccount(calleeAddr);
        state.setCode(calleeAddr, callee.assemble());
        state.commit();
    };

    WorldState refState, fastState;
    setup(refState);
    setup(fastState);
    Interpreter ref;
    FastInterpreter fast;
    Receipt want = ref.applyTransaction(refState, header, tx);
    Receipt got = fast.applyTransaction(fastState, header, tx);
    EXPECT_EQ(got.toRlp(), want.toRlp());
    EXPECT_EQ(fastState.digest(), refState.digest());
    EXPECT_TRUE(want.success); // outer tx succeeds, inner call fails
    EXPECT_EQ(U256::fromBytes(want.returnData.data(),
                              want.returnData.size()),
              U256(0));
}

TEST(FastInterpDiff, CallDepthExhaustion)
{
    // Self-call forwarding everything: recursion bottoms out at the
    // call-depth limit (or on 63/64 gas attrition) identically.
    Assembler a;
    a.push(U256(0)).push(U256(0)).push(U256(0)).push(U256(0));
    a.push(U256(0)); // value
    a.op(Assembler::Op::ADDRESS);
    a.op(Assembler::Op::GAS);
    a.op(Assembler::Op::CALL);
    a.returnTopWord();
    Receipt r = diffRun(a.assemble(), {});
    EXPECT_TRUE(r.success);
}

TEST(FastInterpDiff, CreateAndCallChild)
{
    // Init code returns a 2-byte runtime program (STOP STOP); then the
    // parent CALLs the created child.
    Assembler init;
    init.push(U256(0x0000)).push(U256(0)).op(Assembler::Op::MSTORE);
    init.push(U256(2)).push(U256(30)).op(Assembler::Op::RETURN);
    Bytes initCode = init.assemble();

    Assembler a;
    // Stage init code into memory via CODECOPY from a data section.
    a.push(U256(initCode.size()));
    a.pushLabel("data");
    a.push(U256(0));
    a.op(Assembler::Op::CODECOPY);
    a.push(U256(initCode.size())).push(U256(0)).push(U256(0));
    a.op(Assembler::Op::CREATE);
    a.op(Assembler::Op::DUP1);
    // CALL the child: gas addr 0 0 0 0 0
    a.push(U256(0)).push(U256(0)).push(U256(0)).push(U256(0));
    a.push(U256(0));
    a.op(Assembler::Op::DUP7);
    a.push(U256(50000));
    a.op(Assembler::Op::CALL);
    a.op(Assembler::Op::POP).op(Assembler::Op::POP);
    a.returnTopWord();
    a.label("data");
    a.raw(initCode);
    Receipt r = diffRun(a.assemble(), {});
    EXPECT_TRUE(r.success);
    // The created address is non-zero.
    EXPECT_NE(U256::fromBytes(r.returnData.data(), r.returnData.size()),
              U256(0));
}

TEST(FastInterpDiff, ReturndatacopyOutOfBoundsHalts)
{
    Assembler a;
    // No prior call: RETURNDATASIZE is 0, so any copy is OOB.
    a.push(U256(1)).push(U256(0)).push(U256(0))
        .op(Assembler::Op::RETURNDATACOPY);
    a.stop();
    Receipt r = diffRun(a.assemble(), {});
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.error, "bad jump destination"); // repo quirk: OOB halt
}

TEST(FastInterpDiff, ExtcodeOps)
{
    Assembler a;
    a.op(Assembler::Op::ADDRESS).op(Assembler::Op::EXTCODESIZE);
    a.op(Assembler::Op::ADDRESS).op(Assembler::Op::EXTCODEHASH);
    a.op(Assembler::Op::XOR);
    a.push(U256(8)).push(U256(0)).push(U256(0));
    a.op(Assembler::Op::ADDRESS).op(Assembler::Op::EXTCODECOPY);
    a.op(Assembler::Op::ADDRESS).op(Assembler::Op::BALANCE);
    a.op(Assembler::Op::ADD);
    a.returnTopWord();
    EXPECT_TRUE(diffRun(a.assemble(), {}).success);
}

TEST(FastInterpDiff, InsufficientBalanceAndIntrinsicGas)
{
    BlockHeader header = testHeader();

    // Sender with zero balance cannot pay for gas.
    {
        Transaction tx;
        tx.from = U256(0x9999); // unfunded
        tx.to = U256(0xb0b);
        WorldState refState = baseState({});
        WorldState fastState = baseState({});
        Interpreter ref;
        FastInterpreter fast;
        Receipt want = ref.applyTransaction(refState, header, tx);
        Receipt got = fast.applyTransaction(fastState, header, tx);
        EXPECT_EQ(got.toRlp(), want.toRlp());
        EXPECT_EQ(want.error, "insufficient balance");
        EXPECT_EQ(fastState.digest(), refState.digest());
    }
    // Gas limit below the intrinsic cost.
    {
        Transaction tx;
        tx.from = kSender;
        tx.to = U256(0xb0b);
        tx.gasLimit = 100;
        WorldState refState = baseState({});
        WorldState fastState = baseState({});
        Interpreter ref;
        FastInterpreter fast;
        Receipt want = ref.applyTransaction(refState, header, tx);
        Receipt got = fast.applyTransaction(fastState, header, tx);
        EXPECT_EQ(got.toRlp(), want.toRlp());
        EXPECT_EQ(want.error, "intrinsic gas exceeds limit");
        EXPECT_EQ(fastState.digest(), refState.digest());
    }
}

TEST(FastInterpDiff, TraceRequestDelegatesToReference)
{
    Assembler a;
    a.push(U256(1)).push(U256(2)).op(Assembler::Op::ADD);
    a.returnTopWord();
    Bytes code = a.assemble();

    BlockHeader header = testHeader();
    Transaction tx;
    tx.from = kSender;
    tx.to = kContract;

    WorldState refState = baseState(code);
    WorldState fastState = baseState(code);
    Interpreter ref;
    FastInterpreter fast;
    Trace wantTrace, gotTrace;
    Receipt want = ref.applyTransaction(refState, header, tx, &wantTrace);
    Receipt got = fast.applyTransaction(fastState, header, tx, &gotTrace);
    EXPECT_EQ(got.toRlp(), want.toRlp());
    EXPECT_EQ(gotTrace.events.size(), wantTrace.events.size());
    EXPECT_EQ(fastState.digest(), refState.digest());
}

TEST(FastInterpDiff, ArmedAbortDelegatesToReference)
{
    Assembler a;
    a.push(U256(0));
    a.dest("loop");
    a.push(U256(1)).op(Assembler::Op::ADD);
    a.op(Assembler::Op::DUP1);
    a.push(U256(1000)).op(Assembler::Op::GT);
    a.pushLabel("loop").op(Assembler::Op::JUMPI);
    a.stop();
    Bytes code = a.assemble();

    BlockHeader header = testHeader();
    Transaction tx;
    tx.from = kSender;
    tx.to = kContract;

    AbortInjection inj;
    inj.afterInstructions = 50;
    inj.outOfGas = true;

    WorldState refState = baseState(code);
    WorldState fastState = baseState(code);
    Interpreter ref;
    FastInterpreter fast;
    ref.armAbort(inj);
    fast.armAbort(inj);
    Receipt want = ref.applyTransaction(refState, header, tx);
    Receipt got = fast.applyTransaction(fastState, header, tx);
    EXPECT_EQ(got.toRlp(), want.toRlp());
    EXPECT_FALSE(got.success);
    EXPECT_EQ(fastState.digest(), refState.digest());

    // One-shot: the next transaction runs clean on both tiers.
    Receipt want2 = ref.applyTransaction(refState, header, tx);
    Receipt got2 = fast.applyTransaction(fastState, header, tx);
    EXPECT_EQ(got2.toRlp(), want2.toRlp());
    EXPECT_TRUE(got2.success);
    EXPECT_EQ(fastState.digest(), refState.digest());
}

TEST(FastInterpDiff, GeneratedContractBatchesMatch)
{
    // Whole TOP8 batches through both tiers: receipts and final digest
    // must match contract by contract.
    workload::Generator gen(7, 64);
    for (const contracts::ContractSpec &spec : gen.contracts().top8()) {
        const std::string &name = spec.name;
        workload::BlockRun block = gen.contractBatch(name, 24);

        WorldState refState = gen.genesis();
        WorldState fastState = gen.genesis();
        Interpreter ref;
        FastInterpreter fast;
        for (const workload::TxRecord &rec : block.txs) {
            Receipt want =
                ref.applyTransaction(refState, block.header, rec.tx);
            Receipt got =
                fast.applyTransaction(fastState, block.header, rec.tx);
            ASSERT_EQ(got.toRlp(), want.toRlp()) << name;
            ASSERT_EQ(fast.logs().size(), ref.logs().size()) << name;
        }
        ASSERT_EQ(fastState.digest(), refState.digest()) << name;
    }
}

TEST(FastInterpDiff, GeneratedMixedBlocksMatch)
{
    workload::Generator gen(11, 128);
    for (double depRatio : {0.0, 0.35, 0.8}) {
        workload::BlockParams params;
        params.txCount = 96;
        params.depRatio = depRatio;
        workload::BlockRun block = gen.generateBlock(params);

        WorldState refState = gen.genesis();
        WorldState fastState = gen.genesis();
        Interpreter ref;
        FastInterpreter fast;
        for (const workload::TxRecord &rec : block.txs) {
            Receipt want =
                ref.applyTransaction(refState, block.header, rec.tx);
            Receipt got =
                fast.applyTransaction(fastState, block.header, rec.tx);
            ASSERT_EQ(got.toRlp(), want.toRlp());
        }
        ASSERT_EQ(fastState.digest(), refState.digest());
    }
}

} // namespace
} // namespace mtpu::evm
