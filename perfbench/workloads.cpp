#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include <sched.h>

#include "core/functional.hpp"
#include "core/mtpu.hpp"
#include "evm/memo.hpp"
#include "fault/auditor.hpp"
#include "obs/metrics.hpp"
#include "persist/persistence.hpp"
#include "stream/server.hpp"
#include "support/keccak.hpp"
#include "trace.hpp"
#include "workload/packs.hpp"
#include "workload/stream_gen.hpp"

namespace perfbench {

namespace {

using namespace mtpu;
using Scope = SpanRecorder::Scope;

// verify-top8: the paper's verifier pipeline at one host thread.
constexpr int kVerifyTxs = 128;
constexpr int kVerifyUsers = 512;
constexpr double kDepRatio = 0.3;

// functional-mix: the fast tier on 1024-tx blocks.
constexpr int kFunctionalTxs = 1024;
/** One small warm-up block per pass: it fills the memo cache with
 *  unrelated entries and the decode cache with the contracts. */
constexpr int kWarmTxs = 256;
/** Warm-up blocks come from a generator seeded away from the run's. */
constexpr std::uint64_t kWarmSeedSalt = 0x9e3779b97f4a7c15ULL;

// stream-durable: Zipf stream over a durable server.
constexpr std::size_t kStreamCap = 64;
constexpr std::size_t kStreamOffer = kStreamCap * 3 / 2;
constexpr int kStreamUsers = 128;
constexpr int kStreamSenders = 64;
constexpr std::uint64_t kSnapshotEvery = 16;

/**
 * Set-ups per run (set-up time is their median): the sub-second
 * set-ups repeat more, so one slow first touch does not move it.
 */
constexpr int kCheapSetups = 7;
constexpr int kFunctionalSetups = 3;

/**
 * Simulated cycles per tx are taken over this fixed prefix of timed
 * blocks, so the count does not depend on how many blocks a host
 * manages in the run; every run times at least this many.
 */
constexpr std::uint64_t kSimBlocks = 8;

/**
 * Host threads of functional-mix: the calling thread plus one pool
 * worker. The fan-out's threads share the memo and decode caches, and
 * on a small shared host each thread added widened the run-to-run
 * spread (perfbench/README.md). Not one: a one-thread pipeline
 * executes sequentially, without the speculation and memo cache this
 * workload is there to measure.
 */
constexpr int kFunctionalThreads = 2;

/**
 * Clear the memo cache and warm it, and the decode cache, on @p block
 * of @p gen's chain: the caches then hold only unrelated entries.
 */
void
warmCaches(const workload::Generator &gen, const workload::BlockRun &block)
{
    evm::MemoCache::global().clear();
    core::FunctionalPipeline warm(gen.genesis(), kFunctionalThreads);
    warm.setCommutative(true);
    warm.executeBlock(block);
}

/**
 * Moves a one-thread closed loop to the next CPU it may run on before
 * each block. Left alone, the scheduler keeps a lone busy thread on
 * one CPU for the whole run, and on a shared host that CPU's
 * neighbours then set the run's speed (perfbench/README.md); rotating
 * samples every CPU. Best effort: with one allowed CPU, or when the
 * system refuses, the thread stays where the scheduler puts it.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        if (sched_getaffinity(0, sizeof(mask_), &mask_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &mask_))
                cpus_.push_back(c);
    }

    ~CpuRotation() { restore(); }

    void
    next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        if (sched_setaffinity(0, sizeof(one), &one) == 0)
            moved_ = true;
    }

    /** Blocks in one round over every CPU (1 when not rotating). */
    std::size_t
    round() const
    {
        return cpus_.size() < 2 ? 1 : cpus_.size();
    }

    /** Give the thread back its original CPUs. */
    void
    restore()
    {
        if (moved_)
            sched_setaffinity(0, sizeof(mask_), &mask_);
        moved_ = false;
    }

  private:
    cpu_set_t mask_{};
    std::vector<int> cpus_;
    std::size_t next_ = 0;
    bool moved_ = false;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Mean of each run of @p k consecutive samples (the last may be
 *  shorter). */
std::vector<double>
chunkMeans(const std::vector<double> &v, std::size_t k)
{
    std::vector<double> out;
    for (std::size_t i = 0; i < v.size(); i += k) {
        const std::size_t end = std::min(v.size(), i + k);
        double sum = 0.0;
        for (std::size_t j = i; j < end; ++j)
            sum += v[j];
        out.push_back(sum / double(end - i));
    }
    return out;
}

/** Time @p setups calls of @p make and keep the last object. */
template <class Make>
auto
repeatSetup(int setups, SpanRecorder &rec, std::vector<double> &times,
            Make make)
{
    std::optional<decltype(make())> obj;
    for (int i = 0; i < setups; ++i) {
        obj.reset(); // the previous set-up is torn down untimed
        const double t0 = rec.now();
        obj.emplace(make());
        times.push_back(rec.now() - t0);
    }
    return std::move(*obj);
}

/** Closed-loop bookkeeping shared by the workloads. */
struct Timeline
{
    std::vector<double> blockSeconds;
    std::vector<Window> windows;
    std::vector<double> windowRates; ///< committed tx/s of each window
    std::uint64_t windowStartTxs = 0;
    std::uint64_t txs = 0;
    std::uint64_t okTxs = 0;
    std::uint64_t failedBlocks = 0;

    double
    timed() const
    {
        double sum = 0.0;
        for (const Window &w : windows)
            sum += w.to - w.from;
        return sum;
    }

    void
    window(double from, double to)
    {
        windows.push_back({from, to});
        windowRates.push_back(ratio(double(txs - windowStartTxs), to - from));
        windowStartTxs = txs;
    }

    void
    block(double t0, double t1, std::uint64_t tx_count, bool ok)
    {
        blockSeconds.push_back(t1 - t0);
        txs += tx_count;
        if (ok)
            okTxs += tx_count;
        else
            ++failedBlocks;
    }
};

/** Keep timing: until the seconds are spent (and the sim-cycle
 *  prefix is done), or exactly spec.blocks blocks when set. */
bool
more(const RunSpec &spec, const Timeline &tl, double open_seconds)
{
    std::uint64_t done = tl.blockSeconds.size();
    if (spec.blocks)
        return done < spec.blocks;
    return tl.timed() + open_seconds < spec.seconds || done < kSimBlocks;
}

/** Registry counter deltas over the timed phase (traced runs). */
class Counters
{
  public:
    void
    begin()
    {
        start_ = obs::Registry::global().snapshot();
    }

    void
    end()
    {
        obs::Snapshot now = obs::Registry::global().snapshot();
        for (const auto &c : now.counters)
            sum_[c.name] += double(c.value - start_.counter(c.name));
    }

    double
    operator[](const std::string &name) const
    {
        auto it = sum_.find(name);
        return it == sum_.end() ? 0.0 : it->second;
    }

  private:
    obs::Snapshot start_;
    std::map<std::string, double> sum_;
};

/** Every per-layer metric, zero until the workload's layers set it. */
class LayerMetrics
{
  public:
    LayerMetrics()
    {
        for (const auto &[name, unit] : perLayerNames())
            values_[name] = 0.0;
    }

    void
    set(const std::string &name, double v)
    {
        if (!values_.count(name))
            throw std::logic_error("undeclared per-layer metric " + name);
        values_[name] = v;
    }

    std::vector<Metric>
    list() const
    {
        std::vector<Metric> out;
        for (const auto &[name, unit] : perLayerNames())
            out.push_back({name, values_.at(name), unit});
        return out;
    }

  private:
    std::map<std::string, double> values_;
};

/**
 * Fill the end-to-end metrics, and for traced runs the span-derived
 * per-layer times (self seconds per timed block). block_p50_ms is the
 * median of @p p50_samples, block_tail_ms the tail of @p tail_samples
 * (seconds).
 */
void
finish(const RunSpec &spec, const SpanRecorder &rec, const Timeline &tl,
       const std::vector<double> &setup_times,
       const std::vector<double> &p50_samples,
       const std::vector<double> &tail_samples, double ok_ratio,
       LayerMetrics &layers, RunResult &out)
{
    out.timedSeconds = tl.timed();
    out.blocks = tl.blockSeconds.size();
    out.txs = tl.txs;
    out.blockTail = tail(tail_samples);
    out.blockSeconds = tl.blockSeconds;
    out.windowRates = tl.windowRates;
    out.attempted += out.blocks;
    out.failed += tl.failedBlocks;

    out.endToEnd = {
        {"setup_s", median(setup_times), "s"},
        {"tx_per_s", ratio(double(tl.txs), tl.timed()), "tx/s"},
        {"block_p50_ms", median(p50_samples) * 1e3, "ms"},
        {"block_tail_ms", out.blockTail.value * 1e3, "ms"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
        {"ok_ratio", ok_ratio, "ratio"},
    };

    if (!spec.trace)
        return;
    out.spans = rec.spans();
    const double blocks = double(std::max<std::uint64_t>(out.blocks, 1));
    out.selfSeconds = selfTimes(rec.spans(), tl.windows);
    out.selfSeconds["other"] = unattributed(rec.spans(), tl.windows);
    auto per_block = [&](const char *span) {
        auto it = out.selfSeconds.find(span);
        return it == out.selfSeconds.end() ? 0.0 : it->second / blocks;
    };
    layers.set("workload.generate_s", per_block("workload.generate"));
    layers.set("workload.produce_s", per_block("workload.produce"));
    layers.set("sched.execute_s", per_block("sched.execute"));
    layers.set("fault.audit_s", per_block("fault.audit"));
    layers.set("evm.digest_s", per_block("evm.digest"));
    layers.set("core.functional_s", per_block("core.functional"));
    layers.set("stream.slot_self_s", per_block("stream.slot"));
    layers.set("persist.append_s", per_block("persist.append"));
    layers.set("persist.sync_s", per_block("persist.sync"));
    layers.set("persist.snapshot_s", per_block("persist.snapshot"));
    layers.set("bench.other_s", per_block("other"));

    std::uint64_t digests = 0;
    for (const Span &s : rec.spans())
        for (const Window &w : tl.windows)
            if (std::string(s.name) == "evm.digest" && s.start >= w.from
                && s.end <= w.to)
                ++digests;
    layers.set("evm.digest_calls", double(digests) / blocks);
}

/** keccak over the block's receipts in order (the receipt check). */
U256
receiptsDigest(const std::vector<evm::Receipt> &receipts)
{
    Bytes all;
    for (const evm::Receipt &r : receipts) {
        Bytes rlp = r.toRlp();
        all.insert(all.end(), rlp.begin(), rlp.end());
    }
    return keccak256Word(all);
}

void
fail(RunResult &out, const std::string &why)
{
    out.correct = false;
    out.failures.push_back(why);
}

// ---------------------------------------------------------------------
// verify-top8: generate (consensus stage) -> execute with recovery
// validation -> audit -> the caller's digest, on the TOP8 natural mix.
// ---------------------------------------------------------------------
RunResult
runVerify(const RunSpec &spec, SpanRecorder &rec)
{
    RunResult out;
    std::vector<double> setup_times;
    arch::MtpuConfig cfg;
    cfg.threads = 1;

    struct Setup
    {
        std::unique_ptr<workload::Generator> gen;
        std::unique_ptr<core::MtpuProcessor> proc;
    };
    Setup s = repeatSetup(kCheapSetups, rec, setup_times, [&] {
        Setup n;
        n.gen = std::make_unique<workload::Generator>(spec.seed,
                                                      kVerifyUsers, 1);
        n.proc = std::make_unique<core::MtpuProcessor>(cfg);
        return n;
    });

    core::RunOptions run;
    run.scheme = core::Scheme::SpatioTemporal;
    run.redundancyOpt = true;
    run.recovery.validateConflicts = true;
    run.recovery.genesis = &s.gen->genesis();
    run.threads = 1;

    workload::BlockParams params;
    params.txCount = kVerifyTxs;
    params.depRatio = kDepRatio;
    params.erc20Share = -1.0;

    Timeline tl;
    Counters counters;
    LayerMetrics layers;
    double edges = 0, critical = 0, utilization = 0;
    double instructions = 0, busy = 0, aborts = 0, retries = 0;
    double sim_cycles = 0, sim_txs = 0;
    U256 last_digest;

    if (spec.trace)
        counters.begin();
    CpuRotation cpus;
    const double start = rec.now();
    while (more(spec, tl, rec.now() - start)) {
        cpus.next();
        const double t0 = rec.now();
        workload::BlockRun block;
        {
            Scope span(rec, "workload.generate");
            block = s.gen->generateBlock(params);
        }
        sched::EngineStats stats;
        {
            Scope span(rec, "sched.execute");
            stats = s.proc->execute(block, run);
        }
        fault::AuditReport audit;
        {
            Scope span(rec, "fault.audit");
            fault::Auditor auditor(s.gen->genesis(), block, nullptr,
                                   cfg.commutative);
            audit = auditor.audit(stats);
        }
        U256 digest;
        if (stats.finalState) {
            Scope span(rec, "evm.digest");
            digest = stats.finalState->digest();
        }
        const double t1 = rec.now();

        std::uint64_t failed_receipts = 0;
        for (const workload::TxRecord &tx : block.txs)
            failed_receipts += tx.receipt.success ? 0 : 1;
        const bool ok = audit.ok() && !stats.watchdogFired
                     && stats.finalState && digest == audit.expected
                     && failed_receipts == stats.failedTxs;
        if (!ok)
            fail(out, "verify-top8: block " + std::to_string(
                          tl.blockSeconds.size()) + " failed: "
                          + (audit.ok() ? "digest/receipt check"
                                        : audit.message));
        tl.block(t0, t1, block.txs.size(), ok);
        last_digest = digest;

        if (tl.blockSeconds.size() <= kSimBlocks) {
            sim_cycles += double(stats.makespan);
            sim_txs += double(stats.txCount);
        }
        utilization += stats.utilization();
        instructions += double(stats.instructions);
        busy += double(stats.busyCycles);
        aborts += double(stats.conflictAborts);
        retries += double(stats.retries);
        if (spec.trace) {
            for (const workload::TxRecord &tx : block.txs)
                edges += double(tx.deps.size());
            critical += block.criticalPathLength();
        }
    }
    tl.window(start, rec.now());
    cpus.restore();
    if (spec.trace)
        counters.end();

    out.finalDigest = last_digest.toHex64();
    // The median is taken over rounds, each block's time averaged with
    // the other CPUs' of its round, so no one CPU's neighbours set it.
    finish(spec, rec, tl, setup_times,
           chunkMeans(tl.blockSeconds, cpus.round()), tl.blockSeconds,
           ratio(double(tl.okTxs), double(tl.txs)), layers, out);
    if (spec.trace) {
        const double blocks = double(tl.blockSeconds.size());
        layers.set("workload.dag_edges", edges / blocks);
        layers.set("workload.critical_path", critical / blocks);
        layers.set("sched.spec_replay_ratio",
                   ratio(counters["spec.commit.replayed"],
                         counters["spec.commit.replayed"]
                             + counters["spec.commit.reexecuted"]));
        layers.set("sched.conflict_aborts", aborts / blocks);
        layers.set("sched.retries", retries / blocks);
        layers.set("sched.pu_utilization", utilization / blocks);
        layers.set("arch.ipc", ratio(instructions, busy));
        layers.set("arch.db_line_hits", counters["db.line_hits"] / blocks);
        layers.set("arch.sim_cycles_per_tx", ratio(sim_cycles, sim_txs));
        out.perLayer = layers.list();
    }
    return out;
}

// ---------------------------------------------------------------------
// functional-mix: the fast tier over a pre-generated, state-chained
// block sequence, replayed in passes from genesis with warm caches.
// ---------------------------------------------------------------------
RunResult
runFunctional(const RunSpec &spec, SpanRecorder &rec)
{
    RunResult out;
    std::vector<double> setup_times;

    struct Setup
    {
        std::unique_ptr<workload::Generator> gen;
        std::unique_ptr<workload::Generator> warmGen;
        std::vector<workload::BlockRun> blocks;
        workload::BlockRun warm;
    };
    Setup s = repeatSetup(kFunctionalSetups, rec, setup_times,
                         [&] {
        Setup n;
        workload::BlockParams params;
        params.txCount = kFunctionalTxs;
        params.depRatio = kDepRatio;
        params.erc20Share = -1.0;
        workload::PackParams pack;
        pack.txCount = kFunctionalTxs;

        n.gen = std::make_unique<workload::Generator>(
            spec.seed, kVerifyUsers, kFunctionalThreads);
        for (workload::Pack p : {workload::Pack::HotToken,
                                 workload::Pack::Airdrop,
                                 workload::Pack::MintStorm}) {
            Scope span(rec, "workload.generate");
            n.blocks.push_back(n.gen->generateBlock(params));
            n.blocks.push_back(workload::buildPackBlock(*n.gen, p, pack));
        }
        n.warmGen = std::make_unique<workload::Generator>(
            spec.seed ^ kWarmSeedSalt, kVerifyUsers, kFunctionalThreads);
        workload::BlockParams warm = params;
        warm.txCount = kWarmTxs;
        {
            Scope span(rec, "workload.generate");
            n.warm = n.warmGen->generateBlock(warm);
        }
        warmCaches(*n.warmGen, n.warm);
        return n;
    });

    Timeline tl;
    Counters counters;
    LayerMetrics layers;
    double replayed = 0, reexecuted = 0, validation_miss = 0,
           bounds_miss = 0;
    std::vector<std::vector<U256>> pass_receipts;
    std::vector<std::vector<evm::Receipt>> receipts(s.blocks.size());
    U256 final_digest;

    const std::uint64_t pass_blocks = s.blocks.size();
    RunSpec loop_spec = spec;
    if (spec.blocks)
        loop_spec.blocks =
            (spec.blocks + pass_blocks - 1) / pass_blocks * pass_blocks;
    bool last = false;
    while (!last) {
        // Each pass starts from genesis. After the first (warmed in the
        // set-up) the memo cache is cleared and re-warmed, so every pass
        // does the same work and none replays the one before's results.
        if (!pass_receipts.empty())
            warmCaches(*s.warmGen, s.warm);
        core::FunctionalPipeline pipe(s.gen->genesis(), kFunctionalThreads);
        pipe.setCommutative(true);
        if (spec.trace)
            counters.begin();
        const double p0 = rec.now();
        for (std::size_t b = 0; b < s.blocks.size(); ++b) {
            const double t0 = rec.now();
            core::FunctionalBlockResult res;
            {
                Scope span(rec, "core.functional");
                res = pipe.executeBlock(s.blocks[b]);
            }
            const double t1 = rec.now();
            tl.block(t0, t1, res.txCount, true);
            receipts[b] = std::move(res.receipts);
            replayed += double(res.replayed);
            reexecuted += double(res.reexecuted);
            validation_miss += double(res.reexecValidationMiss);
            bounds_miss += double(res.reexecBoundsMiss);
        }
        last = !more(loop_spec, tl, rec.now() - p0);
        if (last) {
            Scope span(rec, "evm.digest");
            final_digest = pipe.state().digest();
        }
        tl.window(p0, rec.now());
        if (spec.trace)
            counters.end();
        // Receipts are hashed for the check after the pass's window.
        pass_receipts.emplace_back();
        for (const std::vector<evm::Receipt> &r : receipts)
            pass_receipts.back().push_back(receiptsDigest(r));
        receipts.assign(s.blocks.size(), {});
    }

    // Reference: one sequential pass over the same blocks, cold memo.
    evm::MemoCache::global().clear();
    core::FunctionalPipeline ref(s.gen->genesis(), 1);
    std::vector<U256> ref_receipts;
    for (const workload::BlockRun &block : s.blocks)
        ref_receipts.push_back(
            receiptsDigest(ref.executeBlock(block).receipts));
    U256 ref_digest;
    {
        Scope span(rec, "evm.digest");
        ref_digest = ref.state().digest();
    }

    // Every block of every pass must match the reference receipts.
    tl.okTxs = 0;
    std::size_t i = 0;
    for (const std::vector<U256> &pass : pass_receipts) {
        for (std::size_t b = 0; b < pass.size(); ++b, ++i) {
            bool ok = pass[b] == ref_receipts[b];
            if (ok) {
                tl.okTxs += s.blocks[b].txs.size();
            } else {
                ++tl.failedBlocks;
                fail(out, "functional-mix: receipts of block "
                              + std::to_string(i)
                              + " differ from the sequential pass");
            }
        }
    }
    ++out.attempted;
    if (final_digest != ref_digest) {
        ++out.failed;
        fail(out, "functional-mix: final digest differs from the "
                  "sequential pass");
    }

    // A pass holds blocks of four kinds, so a quantile of single block
    // times falls on one kind's extremes and moves with the host's
    // spikes; block_p50_ms and block_tail_ms are taken over passes.
    out.finalDigest = final_digest.toHex64();
    const std::vector<double> passes =
        chunkMeans(tl.blockSeconds, pass_blocks);
    finish(spec, rec, tl, setup_times, passes, passes,
           ratio(double(tl.okTxs), double(tl.txs)), layers, out);
    if (spec.trace) {
        const double blocks = double(tl.blockSeconds.size());
        layers.set("core.spec_replay_ratio",
                   ratio(replayed, replayed + reexecuted));
        layers.set("core.reexec_validation_miss", validation_miss / blocks);
        layers.set("core.reexec_bounds_miss", bounds_miss / blocks);
        const double memo_hits = counters["evm.memo.hit"];
        layers.set("evm.memo_hit_ratio",
                   ratio(memo_hits, memo_hits + counters["evm.memo.miss"]
                                        + counters["evm.memo.invalid"]));
        const double decode_hits = counters["evm.decode_cache.hit"];
        layers.set("evm.decode_hit_ratio",
                   ratio(decode_hits,
                         decode_hits + counters["evm.decode_cache.miss"]));
        out.perLayer = layers.list();
    }
    return out;
}

// ---------------------------------------------------------------------
// stream-durable: StreamServer + Persistence on a fresh data directory,
// then a fresh Persistence recovers from the same directory.
// ---------------------------------------------------------------------
std::uint64_t
directoryBytes(const std::string &dir)
{
    std::uint64_t bytes = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.is_regular_file())
            bytes += entry.file_size();
    return bytes;
}

RunResult
runStream(const RunSpec &spec, SpanRecorder &rec)
{
    if (spec.dataDir.empty())
        throw std::invalid_argument("stream-durable needs a data directory");

    RunResult out;
    std::vector<double> setup_times;
    arch::MtpuConfig cfg;
    cfg.threads = 1;
    core::RunOptions run;
    run.scheme = core::Scheme::SpatioTemporal;
    run.redundancyOpt = true;
    run.threads = 1;

    stream::StreamConfig scfg;
    scfg.block.maxTxs = kStreamCap;
    scfg.pool.capacity = 4 * kStreamCap;
    scfg.pool.creditReserve = kStreamCap;

    persist::PersistConfig pcfg;
    pcfg.dataDir = spec.dataDir;
    pcfg.snapshotEvery = kSnapshotEvery;

    auto storage = [&]() -> std::unique_ptr<persist::Storage> {
        if (!spec.trace)
            return nullptr; // Persistence builds its own FileStorage
        return std::make_unique<TimingStorage>(
            std::make_unique<persist::FileStorage>(spec.dataDir), rec);
    };

    struct Setup
    {
        std::unique_ptr<workload::Generator> gen;
        std::unique_ptr<workload::StreamGenerator> wire;
        std::unique_ptr<persist::Persistence> persist;
        std::unique_ptr<stream::StreamServer> server;
        bool recovered = false;
    };
    Setup s = repeatSetup(kCheapSetups, rec, setup_times, [&] {
        Setup n;
        std::filesystem::remove_all(spec.dataDir);
        std::filesystem::create_directories(spec.dataDir);
        n.gen = std::make_unique<workload::Generator>(spec.seed,
                                                      kStreamUsers, 1);
        n.wire = std::make_unique<workload::StreamGenerator>(
            *n.gen, spec.seed, kStreamSenders);
        n.persist = std::make_unique<persist::Persistence>(pcfg, storage());
        persist::RecoveryResult fresh =
            n.persist->recover(cfg, run, n.gen->genesis());
        n.recovered = fresh.ok && fresh.recoveredHeight == 0;
        n.server = std::make_unique<stream::StreamServer>(
            cfg, run, n.gen->genesis(), n.gen->contracts(), scfg);
        n.server->setChainState(fresh.state);
        n.server->attachPersistence(n.persist.get());
        return n;
    });
    ++out.attempted;
    if (!s.recovered) {
        ++out.failed;
        fail(out, "stream-durable: a fresh data directory did not "
                  "recover to an empty chain");
    }

    std::uint64_t offered = 0;
    auto producer = [&](std::uint64_t slot, std::size_t credits) {
        Scope span(rec, "workload.produce");
        s.wire->resyncNonces([&](const evm::Address &a) {
            return s.server->mempool().pendingNonce(a);
        });
        offered += kStreamOffer;
        return s.wire->slotTxs(slot, std::min(kStreamOffer, credits));
    };

    Timeline tl;
    Counters counters;
    LayerMetrics layers;
    std::vector<double> waits;
    double sim_cycles = 0, sim_txs = 0, aborts = 0, retries = 0;
    U256 live_digest;
    const stream::MempoolStats pool_before = s.server->mempool().stats();

    if (spec.trace)
        counters.begin();
    CpuRotation cpus;
    const double start = rec.now();
    while (more(spec, tl, rec.now() - start)) {
        cpus.next();
        const double t0 = rec.now();
        stream::SoakReport rep;
        {
            Scope span(rec, "stream.slot");
            rep = s.server->run(producer, 1);
        }
        const double t1 = rec.now();
        const bool ok = rep.outcome == stream::SoakOutcome::Ok
                     && !rep.walBroken && rep.auditFailures == 0;
        if (!ok)
            fail(out, std::string("stream-durable: slot failed: ")
                          + stream::soakOutcomeName(rep.outcome)
                          + (rep.walBroken ? " (WAL broken)" : ""));
        tl.block(t0, t1, rep.committedTxs, ok);
        live_digest = rep.chainDigest;
        for (std::uint64_t w : rep.latencySlots)
            waits.push_back(double(w));
        for (const stream::BlockSummary &b : rep.blockLog) {
            if (tl.blockSeconds.size() <= kSimBlocks) {
                sim_cycles += double(b.makespan);
                sim_txs += double(b.txs);
            }
        }
        aborts += double(rep.conflictAborts);
        retries += double(rep.retries);
    }
    tl.window(start, rec.now());
    cpus.restore();
    if (spec.trace)
        counters.end();

    // Outside the timed phase: disk use, then restart recovery from the
    // same directory on a fresh Persistence.
    const stream::MempoolStats pool_after = s.server->mempool().stats();
    const double disk_bytes = double(directoryBytes(spec.dataDir));
    const double wal_bytes = double(s.persist->walBytes());
    s.server.reset();
    s.persist.reset();

    persist::Persistence restart(pcfg, storage());
    const double r0 = rec.now();
    persist::RecoveryResult rec_result;
    {
        Scope span(rec, "persist.recover");
        rec_result = restart.recover(cfg, run, s.gen->genesis());
    }
    const double r1 = rec.now();
    ++out.attempted;
    if (!rec_result.ok || rec_result.chainDigest != live_digest) {
        ++out.failed;
        fail(out, "stream-durable: recovered digest differs from the "
                  "live chain" + (rec_result.ok ? std::string()
                                                : ": " + rec_result.error));
    }

    out.finalDigest = live_digest.toHex64();
    // The median is taken over rounds, each block's time averaged with
    // the other CPUs' of its round, so no one CPU's neighbours set it.
    finish(spec, rec, tl, setup_times,
           chunkMeans(tl.blockSeconds, cpus.round()), tl.blockSeconds,
           ratio(double(tl.okTxs), double(offered)), layers, out);
    if (spec.trace) {
        const double slots = double(tl.blockSeconds.size());
        const std::vector<Window> recovery{{r0, r1}};
        const auto rec_self = selfTimes(rec.spans(), recovery);
        auto self = [&](const char *name) {
            auto it = rec_self.find(name);
            return it == rec_self.end() ? 0.0 : it->second;
        };
        layers.set("persist.recover_read_s", self("persist.read"));
        layers.set("persist.recover_replay_s", self("persist.recover"));
        layers.set("persist.recover_s", r1 - r0);
        layers.set("persist.fsyncs", counters["persist.fsyncs"] / slots);
        layers.set("persist.wal_bytes", wal_bytes / slots);
        layers.set("persist.disk_mb", disk_bytes / (1024.0 * 1024.0));
        layers.set("stream.shed",
                   double(pool_after.shedTotal() - pool_before.shedTotal())
                       / slots);
        auto non_shed = [](const stream::MempoolStats &p) {
            return p.rejected()
                 - p.byCode[std::size_t(stream::Admit::ShedInbound)];
        };
        layers.set("stream.rejected",
                   double(non_shed(pool_after) - non_shed(pool_before))
                       / slots);
        layers.set("stream.pool_depth_peak", double(pool_after.peakDepth));
        layers.set("stream.tx_wait_tail_slots", tail(waits).value);
        layers.set("sched.conflict_aborts", aborts / slots);
        layers.set("sched.retries", retries / slots);
        layers.set("arch.sim_cycles_per_tx", ratio(sim_cycles, sim_txs));
        out.perLayer = layers.list();
    }
    return out;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "verify-top8", "functional-mix", "stream-durable"};
    return names;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerNames()
{
    static const std::vector<std::pair<std::string, std::string>> names{
        {"workload.generate_s", "s/block"},
        {"workload.produce_s", "s/block"},
        {"workload.dag_edges", "1/block"},
        {"workload.critical_path", "tx"},
        {"sched.execute_s", "s/block"},
        {"sched.spec_replay_ratio", "ratio"},
        {"sched.conflict_aborts", "1/block"},
        {"sched.retries", "1/block"},
        {"sched.pu_utilization", "ratio"},
        {"arch.ipc", "instr/cycle"},
        {"arch.db_line_hits", "1/block"},
        {"arch.sim_cycles_per_tx", "cycles/tx"},
        {"fault.audit_s", "s/block"},
        {"evm.digest_s", "s/block"},
        {"evm.digest_calls", "1/block"},
        {"core.functional_s", "s/block"},
        {"core.spec_replay_ratio", "ratio"},
        {"core.reexec_validation_miss", "1/block"},
        {"core.reexec_bounds_miss", "1/block"},
        {"evm.memo_hit_ratio", "ratio"},
        {"evm.decode_hit_ratio", "ratio"},
        {"stream.slot_self_s", "s/block"},
        {"stream.shed", "1/block"},
        {"stream.rejected", "1/block"},
        {"stream.pool_depth_peak", "tx"},
        {"stream.tx_wait_tail_slots", "slots"},
        {"persist.append_s", "s/block"},
        {"persist.sync_s", "s/block"},
        {"persist.fsyncs", "1/block"},
        {"persist.snapshot_s", "s/block"},
        {"persist.wal_bytes", "B/block"},
        {"persist.disk_mb", "MiB"},
        {"persist.recover_read_s", "s"},
        {"persist.recover_replay_s", "s"},
        {"persist.recover_s", "s"},
        {"bench.other_s", "s/block"},
    };
    return names;
}

RunResult
runWorkload(const RunSpec &spec)
{
    obs::Registry::global().enable(spec.trace);
    SpanRecorder rec(spec.trace);
    if (spec.workload == "verify-top8")
        return runVerify(spec, rec);
    if (spec.workload == "functional-mix")
        return runFunctional(spec, rec);
    if (spec.workload == "stream-durable")
        return runStream(spec, rec);
    throw std::invalid_argument("unknown workload " + spec.workload);
}

} // namespace perfbench
