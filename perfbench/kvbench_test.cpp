// perfbench/kvbench_test.cpp — tests of the benchmark's own machinery:
// percentile extraction, fixed-interval pacing, and due-time matching
// through kv::Pipeline.  The end-to-end short runs of every workload are
// separate ctest entries (kvbench_quick_*, see CMakeLists.txt).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "tamp/kv/kv.hpp"
#include "tamp/steal/pool.hpp"

namespace pb = perfbench;

namespace {

std::uint64_t oracle(std::vector<std::uint64_t> v, double q) {
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

TEST(Histogram, PercentilesMatchSortedOracle) {
    std::mt19937_64 rng(42);
    std::lognormal_distribution<double> lognormal(7.0, 1.5);
    std::uniform_int_distribution<std::uint64_t> small(0, 200);
    std::exponential_distribution<double> expo(1e-6);
    const std::vector<std::function<std::uint64_t()>> dists = {
        [&] { return small(rng); },
        [&] { return static_cast<std::uint64_t>(lognormal(rng)); },
        [&] { return static_cast<std::uint64_t>(expo(rng)); },
    };
    for (const auto& draw : dists) {
        for (const std::size_t n : {1u, 7u, 100u, 100000u}) {
            pb::Histogram h;
            std::vector<std::uint64_t> v;
            for (std::size_t i = 0; i < n; ++i) {
                v.push_back(draw());
                h.record(v.back());
            }
            ASSERT_EQ(h.count(), n);
            for (const double q : {0.01, 0.5, 0.9, 0.99, 0.999, 1.0}) {
                const std::uint64_t want = oracle(v, q);
                const std::uint64_t got = h.percentile(q);
                const std::uint64_t tol = want / 128 + 1;
                EXPECT_LE(got, want + tol) << "q=" << q << " n=" << n;
                EXPECT_GE(got + tol, want) << "q=" << q << " n=" << n;
            }
        }
    }
}

TEST(Histogram, ExactBelowSubBucketsAndMonotoneIndex) {
    for (std::uint64_t v = 0; v < pb::Histogram::kSub; ++v) {
        EXPECT_EQ(pb::Histogram::value_at(pb::Histogram::index(v)), v);
    }
    std::size_t prev = 0;
    for (std::uint64_t v = 1; v < (std::uint64_t{1} << 40); v = v * 3 / 2 + 1) {
        const std::size_t i = pb::Histogram::index(v);
        EXPECT_GE(i, prev);
        EXPECT_LT(i, pb::Histogram::kBuckets);
        prev = i;
    }
    EXPECT_EQ(pb::Histogram::index(~std::uint64_t{0}),
              pb::Histogram::kBuckets - 1);
    pb::Histogram empty;
    EXPECT_EQ(empty.percentile(0.5), 0u);
}

TEST(Histogram, FractionAboveAndMerge) {
    pb::Histogram a, b;
    for (std::uint64_t v = 0; v < 100; ++v) a.record(v);
    for (std::uint64_t v = 0; v < 100; ++v) b.record(1000000 + v);
    a.merge(b);
    EXPECT_EQ(a.count(), 200u);
    EXPECT_DOUBLE_EQ(a.fraction_above(99), 0.5);
    EXPECT_DOUBLE_EQ(a.fraction_above(10000000), 0.0);
}

TEST(Windows, MedianOfWindowPercentilesIgnoresOneStalledWindow) {
    std::vector<pb::Histogram> w(5);
    for (std::size_t i = 0; i < w.size(); ++i) {
        for (std::uint64_t v = 0; v < 100; ++v) w[i].record(10 + i);
    }
    for (std::uint64_t v = 0; v < 100; ++v) w[2].record(1000000);  // stall
    EXPECT_DOUBLE_EQ(pb::windowed_percentile(w, 0.99), 13.0);
    EXPECT_DOUBLE_EQ(pb::median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

// --------------------------------------------------------------- pacing

TEST(Pacing, NeverEarlyAndLateP99BoundedAtLoRate) {
    constexpr double kRate = 250000;  // the benchmark's lo rate
    constexpr std::size_t kWindows = 10;
    const std::uint64_t n = 125000;  // 0.5 s
    const pb::Schedule s{pb::now_ns() + 1000000, 1e9 / kRate, 0};
    std::vector<pb::Histogram> late(kWindows);
    std::uint64_t sent = 0;
    std::int64_t min_late = INT64_MAX;
    pb::pace(s, n, [&](std::uint64_t seq, std::int64_t due, std::int64_t t) {
        EXPECT_EQ(seq, sent);
        ++sent;
        min_late = std::min(min_late, t - due);
        late[seq * kWindows / n].record_signed(t - due);
    });
    EXPECT_EQ(sent, n);
    EXPECT_GE(min_late, 0);
    // Windowed, like every latency the benchmark reports: a host stall
    // spoils one window, not the check.
    EXPECT_LT(pb::windowed_percentile(late, 0.99), 100e3);
}

// ------------------------------------------- due-time matching by seq id

// Per-thread fake time: the fake store advances the calling thread's
// clock by a delay known from the key, so service windows are exact.
thread_local std::int64_t fake_now = 0;
struct FakeClock {
    static std::int64_t now() { return fake_now; }
};
std::int64_t delay_of(std::uint64_t key) {
    return 100 + static_cast<std::int64_t>(key % 7) * 10;
}
struct FakeStore {
    std::optional<std::uint64_t> get(std::uint64_t k) {
        fake_now += delay_of(k);
        return pb::encode(k, 0);
    }
    bool put(std::uint64_t k, std::uint64_t) {
        fake_now += delay_of(k);
        return false;
    }
    std::size_t scan(std::uint64_t, std::size_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>&) {
        return 0;
    }
};

TEST(Matching, DueTimeToCompletionIsExactPerRequestThroughPipeline) {
    using Adapter = pb::TimedStore<FakeStore, FakeClock>;
    FakeStore inner;
    pb::Recorder rec(1);  // a span for every request
    Adapter adapter(inner, rec);
    tamp::kv::WorkloadConfig cfg;
    cfg.key_space = 2;
    tamp::kv::Workload<Adapter> wl(adapter, cfg);
    tamp::WorkStealingPool pool(2);
    tamp::kv::Pipeline<Adapter> pipe(adapter, wl, pool, 2);

    constexpr std::uint64_t kN = 5000;
    const pb::Schedule s{1000000, 333.3, 0};
    rec.begin_phase(s, 1, 1, kN);
    pipe.start();
    for (std::uint64_t seq = 0; seq < kN; ++seq) {
        const std::uint64_t key = seq * 7919 % 1000;
        const auto op = seq % 5 == 0 ? tamp::kv::OpKind::kUpdate
                                     : tamp::kv::OpKind::kRead;
        pipe.submit(op, pb::ReqKey(key, seq), pb::encode(key, 1), seq);
    }
    pipe.stop();
    ASSERT_EQ(pipe.completed(), kN);
    const pb::Recorder::Slot done = rec.take();
    EXPECT_EQ(done.completed, kN);
    EXPECT_EQ(done.failed, 0u);

    std::map<std::uint64_t, std::map<pb::Layer, pb::Span>> by_req;
    for (const pb::SpanLog* log : rec.logs()) {
        for (const pb::Span& sp : log->spans) {
            EXPECT_TRUE(by_req[sp.req].emplace(sp.layer, sp).second)
                << "duplicate span for request " << sp.req;
        }
    }
    ASSERT_EQ(by_req.size(), kN);
    for (const auto& [seq, spans] : by_req) {
        const std::uint64_t key = seq * 7919 % 1000;
        const pb::Span& req = spans.at(pb::Layer::kRequest);
        const pb::Span& wait = spans.at(pb::Layer::kQueueWait);
        const pb::Span& svc = spans.at(pb::Layer::kService);
        EXPECT_EQ(req.start, s.due(seq));
        EXPECT_EQ(wait.start, s.due(seq));
        EXPECT_EQ(wait.end, svc.start);
        EXPECT_EQ(svc.end - svc.start, delay_of(key));
        EXPECT_EQ(req.end, svc.end);
        EXPECT_EQ(svc.parent, pb::Layer::kRequest);
    }
}

}  // namespace
