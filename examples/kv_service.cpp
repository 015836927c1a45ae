// kv_service — the tamp::kv composition end to end.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/kv_service
//
// A sharded KV store (split-ordered maps behind a power-of-two router)
// serving a YCSB-style zipfian mix three ways: direct closed-loop
// calls, an atomic cross-key transfer via multi_update, and an
// open-loop request pipeline over the work-stealing pool.  Built with
// -DTAMP_STATS=ON the final section prints the tamp.kv.* counters the
// benchmarks use to attribute tail latency.

#include <cstdint>
#include <cstdio>
#include <string_view>
#include <thread>
#include <vector>

#include "tamp/tamp.hpp"

namespace {

void banner(const char* title) { std::printf("\n== %s ==\n", title); }

using Store = tamp::kv::KvStore<std::uint64_t, std::uint64_t>;

}  // namespace

int main() {
    std::printf("tamp kv service (hardware threads: %u)\n",
                std::thread::hardware_concurrency());

    tamp::kv::Config scfg;
    scfg.shards = 4;
    scfg.stripes = 32;
    Store store(scfg);

    // --- 1. Preload + closed-loop zipfian read-heavy traffic. ----------
    banner("closed loop: 4 workers, read-heavy 95/5, zipfian");
    tamp::kv::WorkloadConfig wcfg;
    wcfg.mix = tamp::kv::kReadHeavy;
    wcfg.dist = tamp::kv::KeyDist::kZipfian;
    wcfg.key_space = 1 << 14;
    tamp::kv::Workload<Store> workload(store, wcfg);
    workload.load(2);
    const std::size_t done = workload.run_closed(4, 20000);
    std::printf("preloaded %zu keys across %zu shards, ran %zu ops\n",
                store.size(), store.shards(), done);

    // --- 2. Atomic cross-key update through the stripe locks. ----------
    banner("multi_update: cross-key writes land as a unit");
    {
        // Four threads stamp their own tag onto BOTH keys in one
        // multi_update.  The stripes serialize the pairs, so however
        // the stamps interleave, the two keys always end up equal — a
        // torn pair would mean one thread's write landed mid-another's.
        const std::uint64_t a = 11, b = 97;
        std::vector<std::thread> ts;
        for (std::uint64_t t = 0; t < 4; ++t) {
            ts.emplace_back([&store, a, b, t] {
                for (std::uint64_t i = 0; i < 1000; ++i) {
                    const std::uint64_t tag = (t << 32) | i;
                    store.multi_update({{a, tag}, {b, tag}});
                }
            });
        }
        for (auto& t : ts) t.join();
        const std::uint64_t va = store.get(a).value_or(0);
        const std::uint64_t vb = store.get(b).value_or(0);
        std::printf("key %llu = %llx, key %llu = %llx (%s)\n",
                    static_cast<unsigned long long>(a),
                    static_cast<unsigned long long>(va),
                    static_cast<unsigned long long>(b),
                    static_cast<unsigned long long>(vb),
                    va == vb ? "atomic" : "TORN");
    }

    // --- 3. Open loop: producers -> bounded lanes -> pool drainers. ---
    banner("open loop: 2 producers into 2 lanes over the pool");
    {
        tamp::WorkStealingPool pool(2);
        tamp::kv::Pipeline<Store> pipe(store, workload, pool, 2);
        pipe.start();
        std::vector<std::thread> producers;
        for (unsigned p = 0; p < 2; ++p) {
            producers.emplace_back([&, p] {
                auto ts = workload.make_state(p);
                std::uint64_t lane = p;
                for (int i = 0; i < 20000; ++i) {
                    std::uint64_t key = 0;
                    const tamp::kv::OpKind op =
                        workload.next_op(ts, key);
                    pipe.submit(op, key, ts.rng.next(), lane++);
                }
            });
        }
        for (auto& t : producers) t.join();
        pipe.stop();
        std::printf("pipeline completed %llu/%u requests\n",
                    static_cast<unsigned long long>(pipe.completed()),
                    40000u);
    }

    // --- 4. Telemetry (needs -DTAMP_STATS=ON). -------------------------
    banner("tamp.kv.* telemetry");
    const auto counters = tamp::obs::snapshot();
    bool any = false;
    for (const auto& c : counters) {
        if (std::string_view(c.name).substr(0, 3) == "kv.") {
            std::printf("  tamp.%-20s %llu\n", c.name,
                        static_cast<unsigned long long>(c.value));
            any = true;
        }
    }
    if (!any) {
        std::printf("  (build with -DTAMP_STATS=ON to see kv counters)\n");
    }
    return 0;
}
