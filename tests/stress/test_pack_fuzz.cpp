/**
 * @file
 * Seeded multi-contract call-chain fuzzer (extends the PR 9 bytecode
 * fuzzer beyond single transactions): every iteration composes a block
 * by interleaving drafts from randomly chosen workload packs, draws a
 * random fault plan, and cross-checks
 *
 *   cycle-exact vs cycle-commutative vs functional (threads 2)
 *
 * against the sequential reference — bit-identical digests, clean
 * audits, receipt equality. Any mismatch prints the iteration seed so
 * the composition reproduces exactly.
 *
 * MTPU_FUZZ_PACK_ITERS overrides the iteration count.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/functional.hpp"
#include "core/mtpu.hpp"
#include "fault/injector.hpp"
#include "support/rng.hpp"
#include "workload/packs.hpp"

namespace mtpu {
namespace {

constexpr int kNumPus = 4;
constexpr int kThreads = 2;

int
iterations()
{
    const char *v = std::getenv("MTPU_FUZZ_PACK_ITERS");
    int n = v ? std::atoi(v) : 0;
    return n > 0 ? n : 6;
}

TEST(PackFuzz, RandomCompositionsConvergeAcrossBackends)
{
    workload::Generator gen(0xF00D, 128, kThreads);
    const evm::WorldState &genesis = gen.genesis();
    const std::vector<workload::Pack> &packs = workload::allPacks();

    Rng rng(0xF00D);
    for (int iter = 0; iter < iterations(); ++iter) {
        // Compose: 2-3 random packs, each drafting 4-9 txs, riffled
        // into one block by random draw.
        std::vector<std::vector<workload::Generator::PackTx>> decks;
        int npacks = 2 + int(rng.below(2));
        for (int p = 0; p < npacks; ++p) {
            workload::Pack pack = packs[rng.below(packs.size())];
            workload::PackParams params;
            params.txCount = 4 + int(rng.below(6));
            params.recursionDepth = 1 + int(rng.below(8));
            decks.push_back(workload::draftPack(gen, pack, params));
        }
        std::vector<workload::Generator::PackTx> drafts;
        while (!decks.empty()) {
            std::size_t d = rng.below(decks.size());
            drafts.push_back(std::move(decks[d].front()));
            decks[d].erase(decks[d].begin());
            if (decks[d].empty())
                decks.erase(decks.begin() + std::ptrdiff_t(d));
        }
        workload::BlockRun block = gen.buildBlockFrom(std::move(drafts));
        std::string label = "iteration " + std::to_string(iter);

        // Random fault plan for the cycle backends.
        fault::InjectionParams fparams;
        fparams.dropEdgeRate = 0.1 * double(rng.below(6));
        fparams.abortRate = 0.1 * double(rng.below(4));
        fparams.puFaultCount = int(rng.below(2));
        fparams.killPu = true;
        fparams.numPus = kNumPus;
        fault::FaultInjector inj(0xBEEF + std::uint64_t(iter));
        fault::FaultPlan plan = inj.plan(block, fparams);
        workload::BlockRun degraded =
            fault::FaultInjector::degrade(block, plan);

        // Sequential reference + consensus receipt cross-check.
        core::FunctionalPipeline ref(genesis, 1);
        core::FunctionalBlockResult ref_res = ref.executeBlock(block);
        const U256 want = ref.state().digest();
        ASSERT_EQ(ref_res.receipts.size(), block.txs.size()) << label;
        for (std::size_t i = 0; i < block.txs.size(); ++i) {
            ASSERT_EQ(ref_res.receipts[i].toRlp(),
                      block.txs[i].receipt.toRlp())
                << label << " receipt " << i;
        }

        // Functional, threads 2, commutative on.
        core::FunctionalPipeline pipe(genesis, kThreads);
        pipe.setCommutative(true);
        core::FunctionalBlockResult res = pipe.executeBlock(block);
        ASSERT_EQ(pipe.state().digest(), want) << label;
        for (std::size_t i = 0; i < block.txs.size(); ++i) {
            ASSERT_EQ(res.receipts[i].toRlp(),
                      block.txs[i].receipt.toRlp())
                << label << " functional receipt " << i;
        }

        // Cycle engine, exact and commutative, on the degraded block
        // under one shared plan. Injected aborts legitimately move the
        // final state off the clean reference, so with aborts in the
        // plan the gate is cross-backend bit-identity + clean audits;
        // without them every backend must hit the reference digest.
        std::vector<U256> cycle_digests;
        for (bool commutative : {false, true}) {
            arch::MtpuConfig cfg;
            cfg.numPus = kNumPus;
            cfg.threads = kThreads;
            cfg.commutative = commutative;
            core::MtpuProcessor proc(cfg);
            core::RunOptions opt;
            opt.recovery.validateConflicts = true;
            opt.recovery.plan = &plan;
            core::AuditedRun run =
                proc.executeAudited(degraded, genesis, opt);
            ASSERT_TRUE(run.audit.ok())
                << label << " commutative=" << commutative << ": "
                << run.audit.message;
            ASSERT_FALSE(run.stats.watchdogFired) << label;
            ASSERT_NE(run.stats.finalState, nullptr) << label;
            cycle_digests.push_back(run.stats.finalState->digest());
        }
        ASSERT_EQ(cycle_digests[0], cycle_digests[1])
            << label << ": exact vs commutative diverged";
        if (fparams.abortRate == 0.0) {
            ASSERT_EQ(cycle_digests[0], want) << label;
        }
    }
}

} // namespace
} // namespace mtpu
