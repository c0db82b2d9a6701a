#include "sched/engine.hpp"

#include <algorithm>
#include <queue>
#include <tuple>

#include "evm/interpreter.hpp"
#include "evm/memo.hpp"
#include "evm/speculative.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"

namespace mtpu::sched {

using workload::BlockRun;
using workload::TxRecord;

namespace {

/** Fixed selection overhead: O(m) bit operations on the tables. */
constexpr std::uint64_t kSelectionOverhead = 2;

/** Pending-list cap in the watchdog dump. */
constexpr std::size_t kMaxPendingDump = 32;

enum class TxState
{
    Pending,   ///< has unfinished deps that are not all running
    Candidate, ///< in the window
    Running,
    Done,
};

/**
 * Loose upper bound on any legitimate schedule's makespan: every
 * transaction re-run maxRetries+1 times, every byte streamed at one
 * byte/cycle, every event at its worst-case latency. Orders of
 * magnitude above a real schedule, so only livelock or deadlock can
 * exceed it.
 */
std::uint64_t
autoWatchdogBudget(const BlockRun &block, const RecoveryOptions &rec)
{
    std::uint64_t per_pass = 1000;
    for (const TxRecord &tx : block.txs) {
        std::uint64_t cost = 256 + tx.trace.contextBytes;
        for (std::uint32_t sz : tx.trace.codeSizes)
            cost += sz;
        for (const evm::TraceEvent &ev : tx.trace.events)
            cost += 41 + ev.dataBytes;
        per_pass += cost;
    }
    std::uint64_t budget =
        per_pass * std::uint64_t(std::max(rec.maxRetries, 0) + 1);
    if (rec.plan) {
        for (const fault::PuFault &f : rec.plan->puFaults)
            budget += f.atCycle + f.stallCycles;
    }
    return budget;
}

} // namespace

SpatioTemporalEngine::SpatioTemporalEngine(const arch::MtpuConfig &cfg)
    : cfg_(cfg), stateBuffer_(cfg.stateBufferEntries)
{
    for (int i = 0; i < cfg.numPus; ++i)
        pus_.push_back(std::make_unique<arch::PuModel>(cfg, &stateBuffer_));

    unsigned threads = cfg.threads == 0
                           ? support::ThreadPool::defaultThreads()
                           : unsigned(std::max(cfg.threads, 1));
    if (threads > 1)
        pool_ = std::make_unique<support::ThreadPool>(threads);
}

void
SpatioTemporalEngine::reset()
{
    for (auto &pu : pus_)
        pu->reset();
    stateBuffer_.clear();
}

void
SpatioTemporalEngine::setTracer(obs::Tracer *tracer)
{
    tracer_ = tracer;
    for (std::size_t i = 0; i < pus_.size(); ++i)
        pus_[i]->setTracer(tracer, int(i));
}

EngineStats
SpatioTemporalEngine::run(const BlockRun &block, const HintProvider &hints)
{
    return run(block, hints, RecoveryOptions{});
}

EngineStats
SpatioTemporalEngine::run(const BlockRun &block, const HintProvider &hints,
                          const RecoveryOptions &rec)
{
    const std::size_t n = block.txs.size();
    EngineStats stats;
    stats.txCount = n;
    stats.puBusy.assign(std::size_t(cfg_.numPus), 0);
    if (n == 0)
        return stats;

    if (tracer_) {
        tracer_->newEpoch();
        tracer_->emit(obs::TraceKind::BlockBegin, 0, -1, n);
    }

    const fault::FaultPlan *plan = rec.plan;
    const bool validate = rec.validateConflicts;
    const bool functional = rec.genesis != nullptr;
    // Commutative edge elision (DESIGN.md §14) only with the recovery
    // validation layer armed: the range checks at commit are what keep
    // an elided-order commit bit-identical.
    const bool comm = cfg_.commutative && validate;

    // Ground-truth conflict predecessors, rebuilt from the
    // consensus-stage access sets: the shipped DAG may be
    // under-approximated, the access sets are not. With comm, pairs
    // whose every overlapping key is mutually commutative lose the
    // edge — the generalized coinbase exemption — except on keys an
    // abort victim writes.
    std::vector<std::vector<int>> trueDeps;
    if (validate) {
        workload::ConflictGraph truth = workload::conflictGraph(
            block, comm, fault::abortVeto(plan, block));
        trueDeps = std::move(truth.preds);
        stats.commutativeDropped = truth.elided;
    }

    // Shipped-DAG edges get the same exemption, so the scheduler is
    // actually free to overlap the elided pairs: a shipped edge stays
    // only where the elided ground truth has it too.
    std::vector<std::vector<int>> commDeps;
    if (comm) {
        commDeps.assign(n, {});
        for (std::size_t j = 0; j < n; ++j) {
            for (int d : block.txs[j].deps) {
                if (std::binary_search(trueDeps[j].begin(),
                                       trueDeps[j].end(), d))
                    commDeps[j].push_back(d);
            }
        }
    }
    auto ship_deps = [&](std::size_t j) -> const std::vector<int> & {
        return comm ? commDeps[j] : block.txs[j].deps;
    };

    evm::WorldState live;
    evm::Interpreter interp;
    if (functional)
        live = *rec.genesis;

    // --- phase 1: parallel functional pre-execution -------------------
    // Every transaction is speculatively executed against a private
    // copy-on-write overlay of the pre-block state on the work-stealing
    // pool. Phase 2 (the event loop below) stays single-owner: at each
    // commit it either replays a still-valid speculation's deltas or
    // falls back to real re-execution, so the committed state is
    // bit-identical for any thread count — including 1, where this
    // fan-out is skipped entirely.
    std::vector<evm::SpecResult> spec;
    if (functional && pool_ && n > 1) {
        spec.resize(n);
        const U256 headerKey =
            evm::MemoCache::headerKey(block.header);
        pool_->parallelFor(n, [&](std::size_t i) {
            const fault::AbortDirective *dir =
                plan ? plan->abortFor(int(i)) : nullptr;
            evm::AbortInjection inj;
            if (dir)
                inj = {dir->afterInstructions, dir->outOfGas};
            evm::SpecOptions opts;
            opts.abort = dir ? &inj : nullptr;
            opts.fastTier = true;
            opts.commutative = comm;
            opts.memo = &evm::MemoCache::global();
            opts.memoHeaderKey = headerKey;
            spec[i] = evm::speculate(*rec.genesis, block.header,
                                     block.txs[i].tx, opts);
        });
    }

    // --- dependency bookkeeping -------------------------------------
    std::vector<TxState> state(n, TxState::Pending);
    std::vector<int> attempts(n, 0); ///< aborts suffered so far

    // --- PU run state --------------------------------------------------
    struct PuRun
    {
        bool busy = false;
        bool dead = false;     ///< killed by an injected PU fault
        int txIndex = -1;
        std::uint64_t finishAt = 0;
        std::uint64_t token = 0; ///< dispatch sequence (stale events)
        bool killVictim = false; ///< current dispatch ends in a kill
        /** Contract of the last transaction (for the Re row). */
        const std::string *lastContract = nullptr;
        std::uint64_t dispatchAt = 0;    ///< cycle the dispatch began
        std::uint64_t instructions = 0;  ///< replayed instruction count
    };
    std::vector<PuRun> purun(std::size_t(cfg_.numPus));
    std::uint64_t token_counter = 0;
    std::uint64_t now = 0;

    struct PuFaultState
    {
        fault::PuFault fault;
        bool consumed = false;
    };
    std::vector<PuFaultState> pu_faults(std::size_t(cfg_.numPus));
    if (plan) {
        for (const fault::PuFault &f : plan->puFaults) {
            if (f.pu >= 0 && f.pu < cfg_.numPus)
                pu_faults[std::size_t(f.pu)] = {f, false};
        }
    }

    SchedulingTables tables(cfg_.numPus, cfg_.windowSize);

    // A transaction is window-eligible when every unfinished dependency
    // is currently running (§3.2.1 writes only indegree-0 transactions,
    // where completed and running-elsewhere predecessors are tracked by
    // the De bits). A transaction whose retry budget is exhausted runs
    // conservatively: only once every ground-truth predecessor has
    // committed, which cannot be invalidated — so nothing starves.
    auto eligible = [&](std::size_t j) {
        if (state[j] != TxState::Pending)
            return false;
        for (int d : ship_deps(j)) {
            if (state[std::size_t(d)] != TxState::Done
                && state[std::size_t(d)] != TxState::Running) {
                return false;
            }
        }
        if (validate && attempts[j] >= rec.maxRetries) {
            for (int d : trueDeps[j]) {
                if (state[std::size_t(d)] != TxState::Done)
                    return false;
            }
        }
        return true;
    };

    // Priority value: composite-DAG node value plus the escalation
    // earned by each abort, so rolled-back transactions win selection.
    auto priority = [&](std::size_t j) {
        return block.txs[j].redundancy
             + attempts[j] * rec.priorityEscalation;
    };

    // CPU refill (§3.2.1): fill free slots, prioritizing transactions
    // that invoke the same contract as a running transaction, then by
    // larger node value.
    std::size_t scan_cursor = 0; // program order scan start
    auto refill = [&]() {
        int slot = tables.freeSlot();
        while (slot >= 0) {
            int best = -1;
            int best_score = -1;
            for (std::size_t j = scan_cursor; j < n; ++j) {
                if (!eligible(j))
                    continue;
                int score = priority(j);
                for (const PuRun &pr : purun) {
                    if (pr.busy && pr.lastContract
                        && *pr.lastContract == block.txs[j].contract) {
                        score += 1000; // same-contract priority
                        break;
                    }
                }
                if (score > best_score) {
                    best_score = score;
                    best = int(j);
                }
            }
            if (best < 0)
                break;
            TxRow &row = tables.slot(slot);
            row.occupied = true;
            row.locked = false;
            row.txIndex = best;
            row.value = priority(std::size_t(best));
            state[std::size_t(best)] = TxState::Candidate;
            if (tracer_)
                tracer_->emit(obs::TraceKind::SchedAssign, now, -1,
                              std::uint64_t(best), std::uint64_t(slot));
            slot = tables.freeSlot();
        }
    };

    // Recompute De/Re rows from current running set and window content.
    auto update_tables = [&]() {
        for (int p = 0; p < cfg_.numPus; ++p) {
            ScheduleRow &row = tables.row(p);
            row.de = 0;
            row.re = 0;
            row.valid = true;
            const PuRun &pr = purun[std::size_t(p)];
            for (int i = 0; i < tables.windowSize(); ++i) {
                const TxRow &slot = tables.slot(i);
                if (!slot.occupied)
                    continue;
                const TxRecord &cand = block.txs[std::size_t(slot.txIndex)];
                if (pr.busy) {
                    for (int d : ship_deps(std::size_t(slot.txIndex))) {
                        if (d == pr.txIndex) {
                            row.de |= (WindowMask(1) << i);
                            break;
                        }
                    }
                }
                if (pr.lastContract
                    && *pr.lastContract == cand.contract) {
                    row.re |= (WindowMask(1) << i);
                }
            }
        }
    };

    // --- event loop --------------------------------------------------
    // (finish time, pu, dispatch token); the token filters events from
    // dispatches that were superseded by a PU kill.
    using Event = std::tuple<std::uint64_t, int, std::uint64_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    std::size_t done_count = 0;

    auto dispatch_idle = [&]() {
        for (int p = 0; p < cfg_.numPus; ++p) {
            PuRun &pr = purun[std::size_t(p)];
            if (pr.busy || pr.dead)
                continue;
            refill();
            update_tables();
            SelectInfo sinfo;
            int slot_idx = tables.select(p, &sinfo);
            if (slot_idx < 0) {
                ++stats.stalls;
                if (tracer_)
                    tracer_->emit(obs::TraceKind::SchedStall, now, p);
                continue;
            }
            TxRow &slot = tables.slot(slot_idx);
            bool redundant = sinfo.usedRedundant;
            if (redundant)
                ++stats.redundantSteers;
            int tx_idx = slot.txIndex;
            slot.locked = true;
            if (tracer_)
                tracer_->emit(redundant ? obs::TraceKind::SchedSteer
                                        : obs::TraceKind::SchedSelect,
                              now, p, std::uint64_t(tx_idx),
                              std::uint64_t(slot_idx));

            const TxRecord &rec_tx = block.txs[std::size_t(tx_idx)];
            arch::ExecHints h;
            if (hints)
                h = hints(rec_tx);

            // An injected abort truncates the replayed trace: the PU
            // only executes up to the abort point.
            std::size_t event_limit = SIZE_MAX;
            if (plan) {
                if (const fault::AbortDirective *dir =
                        plan->abortFor(tx_idx)) {
                    event_limit = std::size_t(dir->afterInstructions);
                }
            }
            pus_[std::size_t(p)]->traceDispatch(now + kSelectionOverhead);
            arch::TxTiming timing =
                pus_[std::size_t(p)]->execute(rec_tx.trace, h,
                                              event_limit);

            std::uint64_t latency = kSelectionOverhead + timing.cycles;
            std::uint64_t finish = now + latency;

            // Injected PU fault: a stall lengthens this dispatch, a
            // kill truncates it and takes the PU out of service.
            PuFaultState &pf = pu_faults[std::size_t(p)];
            pr.killVictim = false;
            if (pf.fault.pu == p && !pf.consumed
                && pf.fault.atCycle <= finish) {
                pf.consumed = true;
                if (pf.fault.kill) {
                    std::uint64_t kill_at =
                        std::max(now, pf.fault.atCycle);
                    latency = kill_at - now;
                    finish = kill_at;
                    pr.killVictim = true;
                } else {
                    latency += pf.fault.stallCycles;
                    finish = now + latency;
                    if (tracer_)
                        tracer_->emit(obs::TraceKind::PuStallFault, now, p,
                                      pf.fault.stallCycles);
                }
            }

            if (attempts[std::size_t(tx_idx)] > 0)
                ++stats.retries;

            pr.busy = true;
            pr.txIndex = tx_idx;
            pr.finishAt = finish;
            pr.token = ++token_counter;
            pr.lastContract = &rec_tx.contract;
            pr.dispatchAt = now;
            pr.instructions = timing.instructions;
            state[std::size_t(tx_idx)] = TxState::Running;

            stats.busyCycles += latency;
            stats.seqCycles += timing.cycles;
            stats.instructions += timing.instructions;
            stats.puBusy[std::size_t(p)] += latency;
            events.push({finish, p, pr.token});

            // Read completed: slot is released and refilled by the CPU.
            slot.occupied = false;
            slot.locked = false;
            slot.txIndex = -1;
        }
    };

    std::uint64_t budget = rec.watchdogBudget;
    if (budget == 0 && rec.active())
        budget = autoWatchdogBudget(block, rec);

    auto fire_watchdog = [&](WatchdogReport::Reason why) {
        stats.watchdogFired = true;
        if (tracer_)
            tracer_->emit(obs::TraceKind::WatchdogFire, now, -1,
                          std::uint64_t(why));
        auto report = std::make_shared<WatchdogReport>();
        report->reason = why;
        report->now = now;
        report->budget = budget;
        report->committed = done_count;
        report->txCount = n;
        for (const PuRun &pr : purun) {
            report->pus.push_back({pr.busy, pr.dead, pr.txIndex,
                                   pr.finishAt, 0});
        }
        for (std::size_t p = 0; p < report->pus.size(); ++p)
            report->pus[p].busyCycles = stats.puBusy[p];
        for (int i = 0; i < tables.windowSize(); ++i) {
            const TxRow &slot = tables.slot(i);
            report->window.push_back(
                {slot.occupied, slot.locked, slot.txIndex, slot.value});
        }
        for (std::size_t j = 0; j < n; ++j) {
            if (state[j] == TxState::Done)
                continue;
            ++report->pendingTotal;
            if (report->pending.size() < kMaxPendingDump)
                report->pending.push_back(int(j));
        }
        stats.watchdog = std::move(report);
    };

    dispatch_idle();
    while (done_count < n) {
        if (events.empty()) {
            // Work remains but nothing is running and nothing was
            // selectable: a dependency cycle, or every PU is dead.
            fire_watchdog(WatchdogReport::Reason::NoProgress);
            break;
        }
        auto [t, p, tok] = events.top();
        events.pop();
        PuRun &pr = purun[std::size_t(p)];
        if (!pr.busy || tok != pr.token)
            continue; // superseded dispatch
        now = t;
        if (budget != 0 && now > budget) {
            fire_watchdog(WatchdogReport::Reason::CycleBudget);
            break;
        }

        int tx_idx = pr.txIndex;
        pr.busy = false;
        pr.txIndex = -1;

        // PU-occupancy span: dispatch-to-completion, including the
        // selection overhead and any injected stall/kill truncation.
        if (tracer_)
            tracer_->emit(obs::TraceKind::TxExec, pr.dispatchAt, p,
                          std::uint64_t(tx_idx), pr.instructions,
                          now - pr.dispatchAt);

        if (pr.killVictim) {
            // The PU died mid-transaction: take it out of service and
            // hand its transaction back to the window.
            pr.dead = true;
            pr.killVictim = false;
            pr.lastContract = nullptr;
            if (tracer_) {
                tracer_->emit(obs::TraceKind::PuDead, now, p);
                tracer_->emit(obs::TraceKind::TxPuFaultAbort, now, p,
                              std::uint64_t(tx_idx));
            }
            state[std::size_t(tx_idx)] = TxState::Pending;
            ++attempts[std::size_t(tx_idx)];
            ++stats.puFaultAborts;
            dispatch_idle();
            continue;
        }

        // Commit-time validation: every ground-truth predecessor must
        // already have committed, otherwise this transaction ran on a
        // mispredicted DAG and its effects are rolled back.
        bool violation = false;
        if (validate) {
            for (int d : trueDeps[std::size_t(tx_idx)]) {
                if (state[std::size_t(d)] != TxState::Done) {
                    violation = true;
                    break;
                }
            }
        }

        bool receipt_failed = false;
        if (functional && !violation) {
            // Functional commit, single-owner. Fast path: a phase-1
            // speculation whose observations still hold against the
            // live state is committed by replaying its deltas. Slow
            // path (always taken with threads = 1): execute the
            // transaction for real. Both paths yield bit-identical
            // state; a violation commits nothing at all, which equals
            // the old apply-then-revert dance without the wasted work.
            const fault::AbortDirective *dir =
                plan ? plan->abortFor(tx_idx) : nullptr;
            evm::Receipt receipt;
            const evm::SpecResult *sr =
                std::size_t(tx_idx) < spec.size()
                    ? &spec[std::size_t(tx_idx)]
                    : nullptr;
            evm::SpecVerdict verdict = evm::SpecVerdict::ValidationMiss;
            if (sr) {
                verdict = evm::specCheck(*sr, live, *rec.genesis,
                                         block.header.coinbase);
            }
            bool replayed = verdict == evm::SpecVerdict::Valid;
            if (replayed) {
                evm::specApply(*sr, live, block.header.coinbase);
                receipt = sr->receipt;
                ++stats.specReplayed;
            } else {
                // Abort-cause attribution only when a speculation was
                // actually attempted (threads = 1 has none to miss).
                if (sr) {
                    if (verdict == evm::SpecVerdict::BoundsMiss)
                        ++stats.reexecBoundsMiss;
                    else
                        ++stats.reexecValidationMiss;
                }
                if (dir)
                    interp.armAbort(
                        {dir->afterInstructions, dir->outOfGas});
                receipt = interp.applyTransaction(
                    live, block.header, block.txs[std::size_t(tx_idx)].tx,
                    nullptr, /*commitState=*/false);
            }
            // Host-domain event: which commit path was taken depends on
            // the host thread count (with threads = 1 there is nothing
            // to replay), so it never enters the deterministic trace.
            if (tracer_)
                tracer_->emit(obs::TraceKind::SpecCommitPath, now, p,
                              std::uint64_t(tx_idx), replayed ? 1 : 0);
            if (replayed)
                MTPU_OBS_COUNT("spec.commit.replayed", 1);
            else
                MTPU_OBS_COUNT("spec.commit.reexecuted", 1);
            live.commit();
            if (!receipt.success) {
                receipt_failed = true;
                ++stats.failedTxs;
                if (receipt.error == "reverted")
                    ++stats.revertedTxs;
                if (dir)
                    ++stats.injectedAborts;
                if (tracer_ && dir)
                    tracer_->emit(obs::TraceKind::TxInjectedAbort, now, p,
                                  std::uint64_t(tx_idx));
            }
        } else if (!functional && !violation && plan
                   && plan->abortFor(tx_idx)) {
            ++stats.injectedAborts;
            if (tracer_)
                tracer_->emit(obs::TraceKind::TxInjectedAbort, now, p,
                              std::uint64_t(tx_idx));
        }

        if (violation) {
            ++stats.conflictAborts;
            if (tracer_)
                tracer_->emit(obs::TraceKind::TxConflictAbort, now, p,
                              std::uint64_t(tx_idx),
                              std::uint64_t(attempts[std::size_t(tx_idx)]));
            ++attempts[std::size_t(tx_idx)];
            state[std::size_t(tx_idx)] = TxState::Pending;
            dispatch_idle();
            continue;
        }

        state[std::size_t(tx_idx)] = TxState::Done;
        stats.completionOrder.push_back(tx_idx);
        if (tracer_)
            tracer_->emit(obs::TraceKind::TxCommit, now, p,
                          std::uint64_t(tx_idx), receipt_failed ? 1 : 0);
        ++done_count;
        dispatch_idle();
    }

    if (functional)
        stats.finalState = std::make_shared<evm::WorldState>(std::move(live));
    stats.makespan = now;

    MTPU_OBS_COUNT("sched.blocks", 1);
    MTPU_OBS_COUNT("sched.txs_committed", done_count);
    MTPU_OBS_COUNT("sched.stalls", stats.stalls);
    MTPU_OBS_COUNT("sched.redundant_steers", stats.redundantSteers);
    MTPU_OBS_COUNT("sched.conflict_aborts", stats.conflictAborts);
    MTPU_OBS_COUNT("sched.pu_fault_aborts", stats.puFaultAborts);
    MTPU_OBS_COUNT("sched.injected_aborts", stats.injectedAborts);
    MTPU_OBS_COUNT("sched.retries", stats.retries);
    if (stats.commutativeDropped)
        MTPU_OBS_COUNT("sched.commutative_drop", stats.commutativeDropped);
    MTPU_OBS_COUNT("sched.makespan_cycles", stats.makespan);
    MTPU_OBS_COUNT("sched.busy_cycles", stats.busyCycles);
    MTPU_OBS_HIST("sched.block.makespan", obs::pow2Bounds(8, 24),
                  stats.makespan);
    return stats;
}

} // namespace mtpu::sched
