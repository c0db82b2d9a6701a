/**
 * @file
 * Heap stability of the fast tier's computed-goto dispatch: a block of
 * CREATE + CALL + LOG transactions replayed 200 times on one
 * FastInterpreter must not grow the in-use heap. Each handler whose
 * locals own memory (init code, the decoded init program, calldata,
 * return data) leaked it when dispatch jumped out of the handler's
 * scope, about two allocations per transaction.
 */

#include <gtest/gtest.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "asm/assembler.hpp"
#include "evm/fast_interp.hpp"
#include "evm/interpreter.hpp"

namespace mtpu::evm {
namespace {

using easm::Assembler;

const Address kSender = U256(0xaaaa);
const Address kFactory = U256(0xcccc);
constexpr int kBlockTxs = 32;

/**
 * Factory: CREATE a child whose runtime returns one word, CALL it with
 * 64 bytes of calldata, copy its 32-byte answer, emit LOG1.
 */
Bytes
factoryCode()
{
    // Child runtime: RETURN one word (0x2a).
    Assembler runtime;
    runtime.push(U256(0x2a)).push(U256(0)).op(Assembler::Op::MSTORE);
    runtime.push(U256(32)).push(U256(0)).op(Assembler::Op::RETURN);
    const Bytes rt = runtime.assemble();

    // Init code: stage the runtime right-aligned in a word, return it.
    Assembler init;
    init.push(U256::fromBytes(rt.data(), rt.size()));
    init.push(U256(0)).op(Assembler::Op::MSTORE);
    init.push(U256(rt.size())).push(U256(32 - rt.size()));
    init.op(Assembler::Op::RETURN);
    const Bytes initCode = init.assemble();

    Assembler a;
    a.push(U256(initCode.size())).pushLabel("init").push(U256(0));
    a.op(Assembler::Op::CODECOPY);
    a.push(U256(initCode.size())).push(U256(0)).push(U256(0));
    a.op(Assembler::Op::CREATE); // [child]
    // CALL(gas, child, 0, in 0..64, out 0..32)
    a.push(U256(32)).push(U256(0)).push(U256(64)).push(U256(0));
    a.push(U256(0));
    a.op(Assembler::Op::DUP6);
    a.push(U256(60000));
    a.op(Assembler::Op::CALL); // [child, ok]
    // LOG1(offset 0, size 32, topic 0xbeef)
    a.push(U256(0xbeef)).push(U256(32)).push(U256(0));
    a.op(Assembler::Op::LOG1);
    a.op(Assembler::Op::POP).op(Assembler::Op::POP);
    a.stop();
    a.label("init");
    a.raw(initCode);
    return a.assemble();
}

WorldState
baseState()
{
    WorldState state;
    state.setBalance(kSender, U256::fromDec("1000000000000000000"));
    state.createAccount(kFactory);
    state.setCode(kFactory, factoryCode());
    state.commit();
    return state;
}

Transaction
factoryTx()
{
    Transaction tx;
    tx.from = kSender;
    tx.to = kFactory;
    tx.data = Bytes(8, 0x01);
    return tx;
}

TEST(FastInterpHeap, FactoryBlockMatchesReference)
{
    BlockHeader header;
    WorldState ref_state = baseState(), fast_state = baseState();
    Interpreter ref;
    FastInterpreter fast;
    for (int i = 0; i < 4; ++i) {
        Receipt want = ref.applyTransaction(ref_state, header, factoryTx());
        Receipt got = fast.applyTransaction(fast_state, header,
                                            factoryTx());
        EXPECT_EQ(got.toRlp(), want.toRlp());
        ASSERT_TRUE(want.success) << want.error;
        ASSERT_EQ(want.logs.size(), 1u);
        // The LOG carries the child's returned word.
        EXPECT_EQ(U256::fromBytes(want.logs[0].data.data(), 32),
                  U256(0x2a));
    }
    EXPECT_EQ(fast_state.digest(), ref_state.digest());
}

TEST(FastInterpHeap, ReplaysDoNotGrowTheHeap)
{
#ifndef __GLIBC__
    GTEST_SKIP() << "mallinfo2 needs glibc";
#else
    const WorldState base = baseState();
    const Transaction tx = factoryTx();
    BlockHeader header;
    FastInterpreter fast;
    std::size_t at_50 = 0;
    for (int pass = 1; pass <= 200; ++pass) {
        WorldState st = base;
        for (int i = 0; i < kBlockTxs; ++i)
            ASSERT_TRUE(fast.applyTransaction(st, header, tx).success);
        if (pass == 50)
            at_50 = mallinfo2().uordblks;
    }
    const std::size_t at_200 = mallinfo2().uordblks;
    const std::size_t growth = at_200 > at_50 ? at_200 - at_50 : 0;
    EXPECT_LT(growth, std::size_t(64) * 1024)
        << "in-use heap grew " << growth << " B over 150 replays";
#endif
}

} // namespace
} // namespace mtpu::evm
