// bench_kv — experiment K1 (the KV service composition): YCSB-style
// mixes over the sharded KvStore, closed loop across the thread ladder
// and an open-loop request pipeline over the work-stealing pool.
//
// Three mixes (read-heavy 95/5, update-heavy 50/50, scan-mixed
// 70/20/5/5) x two key distributions (Gray zipfian theta=0.99,
// uniform); op latency lands in tamp.kv.op_ns and the attribution
// counters (kv.resizes, kv.cas_retries, kv.scan_retries, kv.mu_wait_ns)
// ride along, so a p999 spike can be pinned on a resize burst or a
// contended stripe rather than guessed at.  The pipeline series
// publishes tamp.kv.sojourn_ns — submit-to-completion, the number a
// service SLO is actually written against.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <thread>

#include "bench_util.hpp"
#include "tamp/kv/kv.hpp"
#include "tamp/steal/pool.hpp"

namespace {

using tamp_bench::Shared;
namespace kv = tamp::kv;

using Store = kv::KvStore<std::uint64_t, std::uint64_t>;
using Workload = kv::Workload<Store>;

// Small enough that per-rung preloads stay cheap, large enough that the
// store doubles several times past its 16-bucket shards during load.
constexpr std::size_t kKeySpace = std::size_t{1} << 16;

kv::WorkloadConfig make_cfg(const kv::WorkloadMix& mix, kv::KeyDist dist) {
    kv::WorkloadConfig cfg;
    cfg.mix = mix;
    cfg.dist = dist;
    cfg.key_space = kKeySpace;
    return cfg;
}

/// Store + generator, preloaded with the full key space.
struct Rig {
    Store store;
    Workload wl;
    explicit Rig(const kv::WorkloadConfig& cfg)
        : store(), wl(store, cfg) {
        wl.load(2);
    }
};

void kv_mix(benchmark::State& state, const kv::WorkloadMix& mix,
            kv::KeyDist dist) {
    Shared<Rig>::setup(state, make_cfg(mix, dist));
    // Shared<>::instance is published by the loop-start barrier, so the
    // per-thread generator state is built on first iteration.
    std::optional<Workload::ThreadState> ts;
    tamp_bench::counters_begin(state);
    tamp_bench::latency_begin(state);
    for (auto _ : state) {
        Rig& rig = *Shared<Rig>::instance;
        if (!ts) {
            ts = rig.wl.make_state(
                static_cast<unsigned>(state.thread_index()));
        }
        benchmark::DoNotOptimize(rig.wl.step(*ts));
    }
    state.SetItemsProcessed(state.iterations());
    Shared<Rig>::teardown(state);
    tamp_bench::counters_publish(state);
    tamp_bench::latency_publish(state, "kv.op_ns");
}

void BM_Kv_ReadHeavy_Zipf(benchmark::State& s) {
    kv_mix(s, kv::kReadHeavy, kv::KeyDist::kZipfian);
}
void BM_Kv_ReadHeavy_Uniform(benchmark::State& s) {
    kv_mix(s, kv::kReadHeavy, kv::KeyDist::kUniform);
}
void BM_Kv_UpdateHeavy_Zipf(benchmark::State& s) {
    kv_mix(s, kv::kUpdateHeavy, kv::KeyDist::kZipfian);
}
void BM_Kv_UpdateHeavy_Uniform(benchmark::State& s) {
    kv_mix(s, kv::kUpdateHeavy, kv::KeyDist::kUniform);
}
void BM_Kv_ScanMixed_Zipf(benchmark::State& s) {
    kv_mix(s, kv::kScanMixed, kv::KeyDist::kZipfian);
}
void BM_Kv_ScanMixed_Uniform(benchmark::State& s) {
    kv_mix(s, kv::kScanMixed, kv::KeyDist::kUniform);
}

TAMP_BENCH_THREADS(BM_Kv_ReadHeavy_Zipf);
TAMP_BENCH_THREADS(BM_Kv_ReadHeavy_Uniform);
TAMP_BENCH_THREADS(BM_Kv_UpdateHeavy_Zipf);
TAMP_BENCH_THREADS(BM_Kv_UpdateHeavy_Uniform);
TAMP_BENCH_THREADS(BM_Kv_ScanMixed_Zipf);
TAMP_BENCH_THREADS(BM_Kv_ScanMixed_Uniform);

// ---------------------------------------------------------------------
// Open loop: producers submit into the bounded lanes, long-lived pool
// drainers execute.  Sojourn (submit -> completion) is the published
// latency.
// ---------------------------------------------------------------------

struct PipeRig {
    Store store;
    Workload wl;
    tamp::WorkStealingPool pool;
    kv::Pipeline<Store> pipe;
    explicit PipeRig(const kv::WorkloadConfig& cfg)
        : store(), wl(store, cfg), pool(2), pipe(store, wl, pool, 2) {
        wl.load(2);
        pipe.start();
    }
    ~PipeRig() { pipe.stop(); }
};

void kv_pipeline(benchmark::State& state, kv::KeyDist dist) {
    Shared<PipeRig>::setup(state, make_cfg(kv::kReadHeavy, dist));
    constexpr int kBatch = 64;
    // Open loop with a bounded window: past kWindow outstanding
    // requests the producer yields.  Kept shallow on purpose — the
    // published sojourn should measure lane hand-off plus service, not
    // the depth of a standing queue the producers chose to build (a
    // deep window just republishes kWindow/throughput, drowning the
    // signal in run-to-run queueing noise).
    constexpr std::uint64_t kWindow = 256;
    std::optional<Workload::ThreadState> ts;
    std::uint64_t lane = static_cast<std::uint64_t>(state.thread_index());
    tamp_bench::counters_begin(state);
    tamp_bench::latency_begin(state);
    while (state.KeepRunningBatch(kBatch)) {
        PipeRig& rig = *Shared<PipeRig>::instance;
        if (!ts) {
            ts = rig.wl.make_state(
                static_cast<unsigned>(state.thread_index()));
        }
        for (int i = 0; i < kBatch; ++i) {
            std::uint64_t key = 0;
            const kv::OpKind op = rig.wl.next_op(*ts, key);
            rig.pipe.submit(op, key, ts->rng.next(), lane++);
        }
        while (rig.pipe.submitted() - rig.pipe.completed() > kWindow) {
            std::this_thread::yield();
        }
    }
    // Every submitted request must complete inside the measured region
    // so the sojourn histogram covers the whole offered load.
    Shared<PipeRig>::instance->pipe.drain();
    state.SetItemsProcessed(state.iterations());
    Shared<PipeRig>::teardown(state);
    tamp_bench::counters_publish(state);
    tamp_bench::latency_publish(state, "kv.sojourn_ns");
}

void BM_KvPipeline_ReadHeavy_Zipf(benchmark::State& s) {
    kv_pipeline(s, kv::KeyDist::kZipfian);
}

TAMP_BENCH_THREADS(BM_KvPipeline_ReadHeavy_Zipf);

}  // namespace

BENCHMARK_MAIN();
