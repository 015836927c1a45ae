// perfbench/kvbench.cpp
//
// The KV-service benchmark: one named workload per process, inputs drawn
// from --seed, every result checked against its key.  Prints one JSON
// object on stdout; perfbench/run.py builds this program, runs it and
// turns that object into the benchmark's report.
//
//   read_zipf      closed loop, 95% get / 5% in-place put, zipf 0.99,
//                  2^20 preloaded keys
//   churn_uniform  closed loop, 40 get / 20 update / 15 insert / 15 del /
//                  5 scan(16) / 5 multi_update(4), uniform, 2^23 keys
//   open_zipf      open loop: one generator on a fixed-interval schedule
//                  into kv::Pipeline (2 lanes, 2 pool workers), read_zipf's
//                  mix and keys; latency timed from each request's due time
//
// "lo" and "hi" name the light- and heavy-load points of a workload: for
// the closed loops one client per CPU (at most 4), first each spinning a
// fixed think time between ops (chosen so lo runs about a quarter of hi's
// ops/s), then back to back; for the open loop the fixed rates --lo-rps
// and --hi-rps.
//
// Only public library calls are made: KvStore get/put/del/scan/
// multi_update/shard/size, SplitOrderedMap size/buckets/
// segments_installed, kv::Pipeline start/submit/stop/completed/submitted,
// reclaim::{ebr,hp}::pending and obs::snapshot.  With --trace 1 (built
// with TAMP_STATS=ON) the program also records spans around those calls
// and reads the library's tamp.* counters.

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "tamp/core/bits.hpp"
#include "tamp/core/random.hpp"
#include "tamp/kv/kv.hpp"
#include "tamp/obs/config.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/steal/pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

namespace pb = perfbench;
using Store = tamp::kv::KvStore<std::uint64_t, std::uint64_t>;
using pb::Layer;

enum Kind : int { kGet, kUpdate, kInsert, kDel, kScan, kMulti };
constexpr int kKinds = kMulti + 1;

constexpr std::size_t kMaxClients = 4;
constexpr std::size_t kScanLimit = 16;
constexpr std::size_t kMultiKeys = 4;
constexpr double kTheta = 0.99;

struct Spec {
    const char* name;
    bool open;
    bool zipf;
    unsigned key_bits;      // preloaded keys: 2^key_bits
    int mix[kKinds];        // percent; inserts and deletes alternate
    std::size_t backlog;    // private keys each client inserts in set-up
    std::int64_t think_ns;  // closed loops at lo: spin after each op
};

// The think times were set from seed runs so that lo completes about a
// quarter of hi's ops/s (perfbench/README.md, "Workloads").
constexpr Spec kSpecs[] = {
    {"read_zipf", false, true, 20, {95, 5, 0, 0, 0, 0}, 0, 1000},
    {"churn_uniform", false, false, 23, {40, 20, 15, 15, 5, 5}, 4096,
     3000},
    {"open_zipf", true, true, 20, {95, 5, 0, 0, 0, 0}, 0, 0},
};

/// A run is kSlices slices, each a fresh preload and its share of the
/// measurement; --quick runs one.
constexpr int kSlices = 6;

struct Options {
    const Spec* spec = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool quick = false;  // seconds-long self-check sizes
    double lo_rps = 0.0;
    double hi_rps = 0.0;
    double limit_ns = 0.0;
    std::string trace_out;
};

[[noreturn]] void usage(const char* msg) {
    std::fprintf(stderr,
                 "kvbench: %s\nusage: kvbench --workload "
                 "read_zipf|churn_uniform|open_zipf [--seed N] [--seconds S]"
                 " [--trace 0|1] [--lo-rps R --hi-rps R] [--limit-us U]"
                 " [--trace-out FILE] [--quick]\n",
                 msg);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            const std::string w = val();
            for (const Spec& s : kSpecs) {
                if (w == s.name) o.spec = &s;
            }
            if (o.spec == nullptr) usage(("unknown workload " + w).c_str());
        } else if (a == "--seed") {
            o.seed = std::strtoull(val().c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::atof(val().c_str());
        } else if (a == "--trace") {
            o.trace = val() != "0";
        } else if (a == "--lo-rps") {
            o.lo_rps = std::atof(val().c_str());
        } else if (a == "--hi-rps") {
            o.hi_rps = std::atof(val().c_str());
        } else if (a == "--limit-us") {
            o.limit_ns = std::atof(val().c_str()) * 1e3;
        } else if (a == "--trace-out") {
            o.trace_out = val();
        } else if (a == "--quick") {
            o.quick = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (o.spec == nullptr) usage("--workload is required");
    if (o.seconds <= 0) usage("--seconds must be positive");
    if (o.spec->open &&
        !(o.lo_rps > 0 && o.hi_rps > o.lo_rps && o.limit_ns > 0)) {
        usage("open_zipf needs 0 < --lo-rps < --hi-rps and --limit-us");
    }
    return o;
}

// ------------------------------------------------------------ results

/// Everything the run reports; printed as one JSON object.
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> e2e;
    std::map<std::string, double> tail;  // reported, too noisy to gate
    std::map<std::string, std::uint64_t> samples;
    std::map<std::string, double> layers;
    std::vector<std::string> notes;
    std::size_t pin_failures = 0;
};

/// key.p50 / key.p99, or nothing when the layer saw no samples.
void put_percentiles(std::map<std::string, double>& m, const std::string& key,
                     const pb::Histogram& h) {
    if (h.count() == 0) return;
    m[key + ".p50"] = static_cast<double>(h.percentile(0.50));
    m[key + ".p99"] = static_cast<double>(h.percentile(0.99));
}

double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::atof(line.c_str() + 6) / 1024.0;
        }
    }
    return 0.0;
}

std::map<std::string, std::uint64_t> counters() {
    std::map<std::string, std::uint64_t> m;
    for (const auto& c : tamp::obs::snapshot()) m[c.name] = c.value;
    return m;
}

std::uint64_t delta(const std::map<std::string, std::uint64_t>& after,
                    const std::map<std::string, std::uint64_t>& before,
                    const std::string& name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    const std::uint64_t av = a == after.end() ? 0 : a->second;
    const std::uint64_t bv = b == before.end() ? 0 : b->second;
    return av - bv;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// ------------------------------------------------------------- context

struct Client {
    unsigned id = 0;
    tamp::XorShift64 rng;
    std::deque<std::uint64_t> fifo;  // own live inserts, oldest first
    std::uint64_t next_insert = 0;
    std::uint64_t version = 0;
    bool insert_next = true;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::array<std::uint64_t, kKinds> by_kind{};
    // Per-window counts of the current phase: ops (in steps of the
    // 64-op latency sample) and the sampled latencies.
    std::int64_t t_begin = 0;
    std::int64_t win_ns = 1;
    std::vector<std::uint64_t> win_ops;
    std::vector<pb::Histogram> win_lat;
    pb::SpanLog log;
    std::size_t ebr_pending_max = 0;
    std::size_t hp_pending_max = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buf;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> mu;
};

struct Ctx {
    Options opt;
    std::vector<int> cpus;
    std::size_t keys = 0;
    std::size_t backlog = 0;
    std::optional<tamp::kv::ZipfianSampler> zipf;
    std::unique_ptr<Store> store;
    std::vector<std::unique_ptr<Client>> clients;
    Result res;

    int cpu(std::size_t i) const { return cpus[i % cpus.size()]; }
    void pin(std::size_t i) {
        if (!pb::pin_to(cpu(i))) ++res.pin_failures;
    }
    std::uint64_t pick(Client& c) const {
        return zipf ? zipf->next(c.rng)
                    : c.rng.next_below(static_cast<std::uint32_t>(keys));
    }
    Kind draw(Client& c) const {
        const auto r = static_cast<int>(c.rng.next_below(100));
        int acc = 0;
        int k = 0;
        for (; k < kMulti; ++k) {
            acc += opt.spec->mix[k];
            if (r < acc) break;
        }
        if (k == kInsert || k == kDel) {
            // Alternate, so each client's live-insert count stays fixed
            // and every delete finds the oldest of its own inserts.
            k = c.insert_next ? kInsert : kDel;
            c.insert_next = !c.insert_next;
        }
        return static_cast<Kind>(k);
    }
};

std::unique_ptr<Client> make_client(const Ctx& cx, unsigned id) {
    auto c = std::make_unique<Client>();
    c->id = id;
    c->rng = tamp::XorShift64(tamp::detail::mix64(
        cx.opt.seed * 0x9E3779B97F4A7C15ull + id + 1));
    c->log.tid = static_cast<int>(id) + 1;
    return c;
}

// -------------------------------------------------------------- set-up

/// Build a fresh store and preload it from `threads` pinned threads:
/// keys [0, keys) plus each client's private backlog.  Returns seconds.
double preload(Ctx& cx, std::size_t threads) {
    cx.store = std::make_unique<Store>();
    for (auto& c : cx.clients) {
        // Private insert keys: above the preloaded range, disjoint per
        // client.
        c->fifo.clear();
        c->next_insert = (std::uint64_t{1} << 40) |
                         (std::uint64_t{c->id} << 32);
    }
    std::atomic<std::uint64_t> failed{0};
    const std::int64_t t0 = pb::now_ns();
    std::vector<std::thread> ts;
    for (std::size_t t = 0; t < threads; ++t) {
        ts.emplace_back([&cx, &failed, t, threads] {
            cx.pin(t);
            std::uint64_t bad = 0;
            for (std::uint64_t k = t; k < cx.keys; k += threads) {
                if (!cx.store->put(k, pb::encode(k, 0))) ++bad;
            }
            if (t < cx.clients.size()) {
                Client& c = *cx.clients[t];
                for (std::size_t i = 0; i < cx.backlog; ++i) {
                    const std::uint64_t k = c.next_insert++;
                    if (!cx.store->put(k, pb::encode(k, 0))) ++bad;
                    c.fifo.push_back(k);
                }
            }
            failed.fetch_add(bad);
        });
    }
    for (auto& t : ts) t.join();
    const double secs = static_cast<double>(pb::now_ns() - t0) / 1e9;
    cx.res.attempted += cx.keys + cx.backlog * cx.clients.size();
    cx.res.failed += failed.load();
    return secs;
}

// ---------------------------------------------------------- closed loop

/// Traced runs only: the reclamation backlog, sampled.
void sample_pending(Client& c) {
    c.ebr_pending_max =
        std::max(c.ebr_pending_max, tamp::reclaim::ebr::pending());
    c.hp_pending_max = std::max(c.hp_pending_max, tamp::reclaim::hp::pending());
}

template <bool Traced>
void step(Ctx& cx, Client& c, std::uint64_t i, std::uint8_t phase) {
    const bool sample = (i & 63) == 0;      // op latency, both builds
    const bool span = Traced && (i & 255) == 0;
    const std::int64_t a = span ? pb::now_ns() : 0;
    Store& s = *cx.store;
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    auto timed = [&](auto&& f) {
        if (sample) t0 = pb::now_ns();
        auto r = f();
        if (sample) t1 = pb::now_ns();
        return r;
    };
    const Kind kind = cx.draw(c);
    bool ok = true;
    Layer layer = Layer::kGet;
    switch (kind) {
        case kGet: {
            const std::uint64_t k = cx.pick(c);
            const auto v = timed([&] { return s.get(k); });
            ok = v.has_value() && pb::value_matches(k, *v);
            break;
        }
        case kUpdate: {
            const std::uint64_t k = cx.pick(c);
            const std::uint64_t v = pb::encode(k, ++c.version);
            ok = !timed([&] { return s.put(k, v); });
            layer = Layer::kPut;
            break;
        }
        case kInsert: {
            const std::uint64_t k = c.next_insert++;
            ok = timed([&] { return s.put(k, pb::encode(k, 0)); });
            c.fifo.push_back(k);
            layer = Layer::kPut;
            break;
        }
        case kDel: {
            const std::uint64_t k = c.fifo.front();
            c.fifo.pop_front();
            ok = timed([&] { return s.del(k); });
            layer = Layer::kDel;
            break;
        }
        case kScan: {
            const std::uint64_t k = cx.pick(c);
            c.buf.clear();
            const std::size_t n =
                timed([&] { return s.scan(k, kScanLimit, c.buf); });
            ok = n == c.buf.size() && n > 0;
            for (const auto& [key, val] : c.buf) {
                ok = ok && pb::value_matches(key, val);
            }
            layer = Layer::kScan;
            break;
        }
        case kMulti: {
            c.mu.clear();
            for (std::size_t j = 0; j < kMultiKeys; ++j) {
                const std::uint64_t k = cx.pick(c);
                c.mu.emplace_back(k, pb::encode(k, ++c.version));
            }
            timed([&] {
                s.multi_update(c.mu);
                return 0;
            });
            layer = Layer::kMultiUpdate;
            break;
        }
    }
    ++c.ops;
    ++c.by_kind[kind];
    if (!ok) ++c.failed;
    if (sample) {
        const std::int64_t w = (t1 - c.t_begin) / c.win_ns;
        if (w >= 0 && w < static_cast<std::int64_t>(c.win_ops.size())) {
            c.win_ops[static_cast<std::size_t>(w)] += 64;
            c.win_lat[static_cast<std::size_t>(w)].record_signed(t1 - t0);
        }
    }
    if constexpr (Traced) {
        if (span) {
            const std::uint64_t req = (std::uint64_t{c.id} << 56) |
                                      (std::uint64_t{phase} << 48) | i;
            c.log.add(req, Layer::kOp, Layer::kNone, a, pb::now_ns(), phase);
            c.log.add(req, layer, Layer::kOp, t0, t1, phase);
        }
        if (c.id == 0 && (i & 4095) == 0) sample_pending(c);
    }
}

/// The windows of one kind of phase, pooled over the run's slices.
struct Windows {
    std::vector<double> rate;   // closed loops: ops/s in the window
    std::vector<double> steal;  // share of the window's CPU time stolen
    std::vector<pb::Histogram> lat;

    void add(double r, double st, pb::Histogram h) {
        rate.push_back(r);
        steal.push_back(st);
        lat.push_back(std::move(h));
    }
    /// The windows to summarise: those whose CPUs lost at most
    /// kStealLimit of their time to the hypervisor (a preempted vCPU
    /// measures the host, not the program), or all of them when fewer
    /// than half are that clean.
    std::vector<std::size_t> usable() const {
        constexpr double kStealLimit = 0.05;
        std::vector<std::size_t> clean;
        std::vector<std::size_t> all;
        for (std::size_t i = 0; i < lat.size(); ++i) {
            all.push_back(i);
            if (steal[i] <= kStealLimit) clean.push_back(i);
        }
        return 2 * clean.size() >= all.size() ? clean : all;
    }
    double median_rate() const {
        std::vector<double> v;
        for (const std::size_t i : usable()) v.push_back(rate[i]);
        return pb::median(std::move(v));
    }
    double percentile(double q) const {
        std::vector<pb::Histogram> v;
        for (const std::size_t i : usable()) v.push_back(lat[i]);
        return pb::windowed_percentile(v, q);
    }
    std::uint64_t samples() const {
        std::uint64_t n = 0;
        for (const auto& h : lat) n += h.count();
        return n;
    }
};

/// Stolen and total jiffies of the given CPUs so far (/proc/stat).
std::pair<std::uint64_t, std::uint64_t> cpu_jiffies(
    const std::vector<int>& cpus) {
    std::ifstream in("/proc/stat");
    std::string line;
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
    while (std::getline(in, line)) {
        if (line.size() < 4 || line.rfind("cpu", 0) != 0 ||
            std::isdigit(static_cast<unsigned char>(line[3])) == 0) {
            continue;
        }
        const int cpu = std::atoi(line.c_str() + 3);
        if (std::find(cpus.begin(), cpus.end(), cpu) == cpus.end()) continue;
        std::istringstream fields(line.substr(line.find(' ')));
        std::uint64_t v = 0;
        for (int f = 0; fields >> v; ++f) {
            total += v;
            if (f == 7) steal += v;
        }
    }
    return {steal, total};
}

/// Run every client for `secs`, each pinned to its CPU and spinning
/// `think_ns` after each op, and add the phase's `windows` equal windows
/// to `out`.
template <bool Traced>
void run_closed(Ctx& cx, double secs, std::int64_t think_ns,
                std::size_t windows, std::uint8_t phase, Windows* out) {
    const std::size_t n = cx.clients.size();
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    std::int64_t t0 = 0;
    const auto win_ns =
        static_cast<std::int64_t>(secs * 1e9 / static_cast<double>(windows));
    std::vector<int> cpus;
    for (std::size_t i = 0; i < n; ++i) {
        Client& c = *cx.clients[i];
        c.win_ns = win_ns;
        c.win_ops.assign(windows, 0);
        c.win_lat.assign(windows, pb::Histogram{});
        cpus.push_back(cx.cpu(i));
    }
    std::vector<std::thread> ts;
    for (std::size_t i = 0; i < n; ++i) {
        ts.emplace_back([&, i] {
            cx.pin(i);
            Client& c = *cx.clients[i];
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire)) _mm_pause();
            c.t_begin = t0;
            for (std::uint64_t j = 0; !stop.load(std::memory_order_relaxed);
                 ++j) {
                step<Traced>(cx, c, j, phase);
                if (think_ns == 0) continue;
                const std::int64_t until = pb::now_ns() + think_ns;
                while (pb::now_ns() < until) _mm_pause();
            }
        });
    }
    while (ready.load() < n) std::this_thread::yield();
    std::vector<double> steal(windows);
    auto [s_prev, t_prev] = cpu_jiffies(cpus);
    t0 = pb::now_ns();
    go.store(true, std::memory_order_release);
    for (std::size_t w = 0; w < windows; ++w) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            t0 + static_cast<std::int64_t>(w + 1) * win_ns - pb::now_ns()));
        const auto [s_now, t_now] = cpu_jiffies(cpus);
        steal[w] = ratio(static_cast<double>(s_now - s_prev),
                         static_cast<double>(t_now - t_prev));
        s_prev = s_now;
        t_prev = t_now;
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : ts) t.join();
    if (out == nullptr) return;
    for (std::size_t w = 0; w < windows; ++w) {
        double rate = 0;
        pb::Histogram lat;
        for (std::size_t i = 0; i < n; ++i) {
            const Client& c = *cx.clients[i];
            rate += static_cast<double>(c.win_ops[w]) * 1e9 /
                    static_cast<double>(win_ns);
            lat.merge(c.win_lat[w]);
        }
        out->add(rate, steal[w], std::move(lat));
    }
}

enum Phase : std::uint8_t { kWarmup, kLo, kHi, kSearch, kSaturate };

/// What the slices of a run accumulate.
struct Acc {
    Windows lo, hi;
    std::vector<double> saturated;  // open loop: completions/s per window
    std::vector<double> max_rates;  // open loop: one per pipeline
    double backlog_max = 0;
};

/// One slice of a closed loop on the freshly preloaded store: warm-up,
/// light load (lo), full load (hi); then the store's checks.  Both
/// phases run every client, so the host sees the same busy vCPUs; at lo
/// each client thinks the workload's think_ns between ops.
template <bool Traced>
void closed_slice(Ctx& cx, double secs, Acc& acc) {
    run_closed<Traced>(cx, std::min(0.2, 0.1 * secs), 0, 1, kWarmup,
                       nullptr);
    run_closed<Traced>(cx, 0.25 * secs, cx.opt.spec->think_ns, 4, kLo,
                       &acc.lo);
    run_closed<Traced>(cx, 0.75 * secs, 0, 7, kHi, &acc.hi);

    // Outside the timed phases: every client's live inserts read back,
    // and the shard sizes add up to the live keys.
    Result& r = cx.res;
    std::size_t live = cx.keys;
    for (auto& c : cx.clients) {
        live += c->fifo.size();
        for (const std::uint64_t k : c->fifo) {
            const auto v = cx.store->get(k);
            ++r.attempted;
            if (!v || !pb::value_matches(k, *v)) ++r.failed;
        }
    }
    ++r.attempted;
    if (cx.store->size() != live) {
        ++r.failed;
        r.notes.push_back("store size " + std::to_string(cx.store->size()) +
                          " != live keys " + std::to_string(live));
    }
}

// ------------------------------------------------------------ open loop

using Adapter = pb::TimedStore<Store>;
using Pipe = tamp::kv::Pipeline<Adapter>;

struct OpenPhase {
    std::uint64_t backlog_end = 0;
    std::uint64_t backlog_max = 0;
    pb::Recorder::Slot done;
};

struct Generator {
    Client& c;
    pb::Recorder& rec;
    Pipe* pipe = nullptr;
    std::uint64_t seq = 0;
    std::uint64_t lane = 0;
};

/// Draw one request (read_zipf's mix and keys) and submit it as `seq`.
template <bool Traced>
void submit_one(Ctx& cx, Generator& g, std::uint64_t seq, std::int64_t due,
                std::uint8_t phase) {
    const Kind kind = cx.draw(g.c);
    ++g.c.by_kind[kind];
    const std::uint64_t key = cx.pick(g.c);
    const std::uint64_t val =
        kind == kUpdate ? pb::encode(key, ++g.c.version) : 0;
    const auto op = kind == kUpdate ? tamp::kv::OpKind::kUpdate
                                    : tamp::kv::OpKind::kRead;
    if constexpr (Traced) {
        if (g.rec.traces(seq)) {
            const std::int64_t t0 = pb::now_ns();
            g.pipe->submit(op, pb::ReqKey(key, seq), val, g.lane++);
            const std::int64_t t1 = pb::now_ns();
            g.c.log.add(seq, Layer::kLate, Layer::kRequest, due, t0, phase);
            g.c.log.add(seq, Layer::kSubmit, Layer::kRequest, t0, t1, phase);
            return;
        }
    }
    g.pipe->submit(op, pb::ReqKey(key, seq), val, g.lane++);
}

/// Print the result so far and end the process with a failure: a request
/// the pipeline never completed would make drain() and stop() wait
/// forever.
[[noreturn]] void abandon(Ctx& cx, const std::string& why);

/// Wait for the pipeline to complete every request submitted so far, but
/// no longer than `grace_s`, and account the phase's completions.
void finish_phase(Ctx& cx, Generator& g, std::uint64_t submitted_before,
                  double grace_s, pb::Recorder::Slot& done) {
    const std::int64_t deadline =
        pb::now_ns() + static_cast<std::int64_t>(grace_s * 1e9);
    while (g.pipe->completed() < g.pipe->submitted()) {
        if (pb::now_ns() > deadline) {
            cx.res.attempted += g.pipe->submitted() - submitted_before;
            cx.res.failed += g.pipe->submitted() - g.pipe->completed();
            abandon(cx, "completed " + std::to_string(g.pipe->completed()) +
                            " != submitted " +
                            std::to_string(g.pipe->submitted()) +
                            " after draining for " +
                            std::to_string(grace_s) + " s");
        }
        std::this_thread::yield();
    }
    done = g.rec.take();
    cx.res.attempted += g.pipe->submitted() - submitted_before;
    cx.res.failed += done.failed;
}

/// Offer `rate` requests per second on a fixed schedule for `secs`.
template <bool Traced>
OpenPhase open_phase(Ctx& cx, Generator& g, double rate, double secs,
                     std::size_t windows, std::uint8_t phase) {
    OpenPhase out;
    const auto n = static_cast<std::uint64_t>(
        std::max<long long>(static_cast<long long>(windows),
                            std::llround(rate * secs)));
    const pb::Schedule sched{pb::now_ns() + 20000, 1e9 / rate, g.seq};
    g.rec.begin_phase(sched, phase, windows, n / windows);
    const std::uint64_t sub0 = g.pipe->submitted();
    pb::pace(sched, n, [&](std::uint64_t seq, std::int64_t due, std::int64_t) {
        submit_one<Traced>(cx, g, seq, due, phase);
        const std::uint64_t i = seq - sched.base;
        if ((i & 255) == 0) {
            out.backlog_max = std::max(
                out.backlog_max, g.pipe->submitted() - g.pipe->completed());
        }
        if constexpr (Traced) {
            if ((i & 4095) == 0) sample_pending(g.c);
        }
    });
    g.seq += n;
    out.backlog_end = g.pipe->submitted() - g.pipe->completed();
    out.backlog_max = std::max(out.backlog_max, out.backlog_end);
    finish_phase(cx, g, sub0, 1.0 + secs, out.done);
    return out;
}

/// Keep kOutstanding requests in flight for `secs`; returns the
/// completion rate of each of `windows` equal time windows.
template <bool Traced>
std::vector<double> saturate(Ctx& cx, Generator& g, double secs,
                             std::size_t windows) {
    constexpr std::uint64_t kOutstanding = 1024;
    g.rec.begin_phase(pb::Schedule{pb::now_ns(), 0.0, g.seq}, kSaturate, 0, 1);
    const std::uint64_t sub0 = g.pipe->submitted();
    const auto win_ns =
        static_cast<std::int64_t>(secs * 1e9 / static_cast<double>(windows));
    std::vector<double> rates;
    std::int64_t t_win = pb::now_ns();
    std::uint64_t c_win = g.pipe->completed();
    while (rates.size() < windows) {
        const std::int64_t t = pb::now_ns();
        if (g.pipe->submitted() - g.pipe->completed() < kOutstanding) {
            submit_one<Traced>(cx, g, g.seq++, t, kSaturate);
        } else {
            _mm_pause();
        }
        if (t - t_win >= win_ns) {
            const std::uint64_t c = g.pipe->completed();
            rates.push_back(static_cast<double>(c - c_win) * 1e9 /
                            static_cast<double>(t - t_win));
            t_win = t;
            c_win = c;
        }
    }
    pb::Recorder::Slot done;
    finish_phase(cx, g, sub0, 1.0 + secs, done);
    return rates;
}

/// One pipeline's share of the open loop: lo, hi, then a search for the
/// highest rate it sustains.
struct OpenInstance {
    std::vector<pb::Histogram> lo, hi;  // sojourn windows
    std::vector<double> saturated;      // completions/s per window
    double max_rate = 0;
    double backlog_max = 0;
};

constexpr int kSearchSteps = 8;  // per pipeline instance

template <bool Traced>
OpenInstance run_pipeline(Ctx& cx, Generator& g, Adapter& adapter,
                          tamp::kv::Workload<Adapter>& wl, double secs) {
    tamp::WorkStealingPool pool(2);
    {
        // Pin the two pool workers: each pinning task holds its worker
        // until both have started, so they land on different threads.
        std::atomic<int> arrived{0};
        std::atomic<int> done{0};
        for (int w = 0; w < 2; ++w) {
            pool.submit([&] {
                const int me = arrived.fetch_add(1);
                cx.pin(1 + static_cast<std::size_t>(me));
                while (arrived.load() < 2) _mm_pause();
                done.fetch_add(1);
            });
        }
        while (done.load() < 2) std::this_thread::yield();
        pool.wait_idle();
    }
    Pipe pipe(adapter, wl, pool, 2);
    pipe.start();
    g.pipe = &pipe;

    OpenInstance out;
    open_phase<Traced>(cx, g, cx.opt.lo_rps, std::min(0.2, 0.05 * secs), 1,
                       kWarmup);
    OpenPhase lo = open_phase<Traced>(cx, g, cx.opt.lo_rps, 0.2 * secs, 7, kLo);
    OpenPhase hi = open_phase<Traced>(cx, g, cx.opt.hi_rps, 0.2 * secs, 7, kHi);
    out.saturated = saturate<Traced>(cx, g, 0.3 * secs, 10);
    out.lo = std::move(lo.done.windows);
    out.hi = std::move(hi.done.windows);
    out.backlog_max =
        static_cast<double>(std::max(lo.backlog_max, hi.backlog_max));

    // Highest sustained rate: from hi, grow x1.5 until a rate fails, then
    // bisect (geometrically) between the best pass and the lowest fail.
    // A rate passes when, over its windows, the median share of requests
    // slower than the limit is at most 1% (the p99 limit) and the backlog
    // left when its schedule ends is no more than Little's law allows at
    // the limit (rate x limit) -- a growing queue leaves more.
    const auto limit = static_cast<std::uint64_t>(cx.opt.limit_ns);
    double pass = 0.0;
    double fail = 0.0;
    for (int k = 0; k < kSearchSteps; ++k) {
        const double rate = k == 0 ? cx.opt.hi_rps
                            : fail == 0.0 ? pass * 1.5
                            : pass == 0.0 ? fail / 1.5
                                          : std::sqrt(pass * fail);
        const OpenPhase p = open_phase<Traced>(
            cx, g, rate, 0.3 * secs / kSearchSteps, 5, kSearch);
        out.backlog_max =
            std::max(out.backlog_max, static_cast<double>(p.backlog_max));
        std::vector<double> slow;
        for (const pb::Histogram& h : p.done.windows) {
            slow.push_back(h.fraction_above(limit));
        }
        const bool ok =
            pb::median(std::move(slow)) <= 0.01 &&
            static_cast<double>(p.backlog_end) <=
                std::max(64.0, rate * cx.opt.limit_ns / 1e9);
        if (ok) {
            pass = std::max(pass, rate);
        } else {
            fail = fail == 0.0 ? rate : std::min(fail, rate);
        }
    }
    out.max_rate = pass;
    pipe.stop();  // every phase ended drained (finish_phase), so no wait
    g.pipe = nullptr;
    return out;
}

/// One slice of the open loop on the freshly preloaded store: one
/// pipeline with a fresh pool (a pipeline's speed depends on how its
/// lanes and tasks settle, so the run takes medians over several).
template <bool Traced>
void open_slice(Ctx& cx, Generator& g, double secs, Acc& acc) {
    Adapter adapter(*cx.store, g.rec);
    // kv::Pipeline dispatches through a kv::Workload; the benchmark draws
    // its own requests, so the Workload's sampler is sized to nothing.
    tamp::kv::WorkloadConfig wcfg;
    wcfg.key_space = 2;
    wcfg.scan_limit = kScanLimit;
    tamp::kv::Workload<Adapter> wl(adapter, wcfg);
    OpenInstance in = run_pipeline<Traced>(cx, g, adapter, wl, secs);
    for (auto& h : in.lo) acc.lo.add(0, 0, std::move(h));
    for (auto& h : in.hi) acc.hi.add(0, 0, std::move(h));
    acc.saturated.insert(acc.saturated.end(), in.saturated.begin(),
                         in.saturated.end());
    acc.max_rates.push_back(in.max_rate);
    acc.backlog_max = std::max(acc.backlog_max, in.backlog_max);

    Result& r = cx.res;
    ++r.attempted;
    if (cx.store->size() != cx.keys) {
        ++r.failed;
        r.notes.push_back("store size changed under read/update traffic");
    }
}

/// Per-layer percentiles of the open loop, from the spans.
void open_layers(Ctx& cx, const std::vector<const pb::SpanLog*>& logs) {
    Result& r = cx.res;
    const auto h = pb::layer_histograms(logs, (1u << kLo) | (1u << kHi));
    auto at = [&](Layer l) -> const pb::Histogram& {
        return h[static_cast<std::size_t>(l)];
    };
    r.layers["loadgen.late_ns.p99"] =
        static_cast<double>(at(Layer::kLate).percentile(0.99));
    put_percentiles(r.layers, "pipeline.submit_ns", at(Layer::kSubmit));
    put_percentiles(r.layers, "pipeline.queue_wait_ns", at(Layer::kQueueWait));
    put_percentiles(r.layers, "store.service_ns", at(Layer::kService));
    put_percentiles(r.layers, "store.get_ns", at(Layer::kGet));
    put_percentiles(r.layers, "store.put_ns", at(Layer::kPut));
    // Stage-sum check at lo: the medians of the two stages the benchmark
    // sees (queue wait, service) against the sojourn median.
    const auto hl = pb::layer_histograms(logs, 1u << kLo);
    auto median = [&](Layer l) {
        return static_cast<double>(
            hl[static_cast<std::size_t>(l)].percentile(0.5));
    };
    const double qw = median(Layer::kQueueWait);
    const double sv = median(Layer::kService);
    const double so = median(Layer::kRequest);
    r.layers["check.stage_sum_gap_pct"] =
        so == 0 ? 0.0 : 100.0 * std::abs(qw + sv - so) / so;
}

// ---------------------------------------------------------------- main

/// Per-layer percentiles of a closed loop, from the spans.
void closed_layers(Ctx& cx, const std::vector<const pb::SpanLog*>& logs) {
    Result& r = cx.res;
    const auto h = pb::layer_histograms(logs, (1u << kLo) | (1u << kHi));
    auto at = [&](Layer l) -> const pb::Histogram& {
        return h[static_cast<std::size_t>(l)];
    };
    put_percentiles(r.layers, "store.get_ns", at(Layer::kGet));
    put_percentiles(r.layers, "store.put_ns", at(Layer::kPut));
    put_percentiles(r.layers, "store.del_ns", at(Layer::kDel));
    put_percentiles(r.layers, "store.scan_ns", at(Layer::kScan));
    put_percentiles(r.layers, "store.multi_update_ns",
                    at(Layer::kMultiUpdate));
}

void map_layers(Ctx& cx) {
    Result& r = cx.res;
    double size = 0;
    double buckets = 0;
    double segments = 0;
    double largest = 0;
    const std::size_t shards = cx.store->shards();
    for (std::size_t i = 0; i < shards; ++i) {
        auto& m = cx.store->shard(i);
        size += static_cast<double>(m.size());
        buckets += static_cast<double>(m.buckets());
        segments += static_cast<double>(m.segments_installed());
        largest = std::max(largest, static_cast<double>(m.size()));
    }
    r.layers["map.load_factor"] = ratio(size, buckets);
    r.layers["map.segments"] = segments;
    r.layers["map.shard_skew"] =
        ratio(largest, size / static_cast<double>(shards));
}

void print_json(const Ctx& cx) {
    const Result& r = cx.res;
    auto obj = [](const auto& m) {
        std::string s = "{";
        for (const auto& [k, v] : m) {
            char buf[96];
            std::snprintf(buf, sizeof buf, "%s\"%s\":%.17g",
                          s.size() > 1 ? "," : "", k.c_str(),
                          static_cast<double>(v));
            s += buf;
        }
        return s + "}";
    };
    std::string notes = "[";
    for (const auto& n : r.notes) {
        if (notes.size() > 1) notes += ",";
        notes += "\"";
        notes += n;
        notes += "\"";
    }
    notes += "]";
    std::string cpus = "[";
    for (std::size_t i = 0; i < cx.cpus.size(); ++i) {
        if (i != 0) cpus += ",";
        cpus += std::to_string(cx.cpus[i]);
    }
    cpus += "]";
    std::printf(
        "{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,"
        "\"stats_compiled_in\":%s,\"compiler\":\"%s\",\"build_type\":\"%s\","
        "\"cpus\":%s,\"clients\":%zu,\"pin_failures\":%zu,"
        "\"attempted\":%llu,\"failed\":%llu,\"e2e\":%s,\"tail\":%s,"
        "\"samples\":%s,\"layers\":%s,\"notes\":%s}\n",
        cx.opt.spec->name, static_cast<unsigned long long>(cx.opt.seed),
        cx.opt.trace ? "true" : "false",
        tamp::obs::kStatsEnabled ? "true" : "false", "GCC " __VERSION__,
        PERFBENCH_BUILD_TYPE, cpus.c_str(), cx.clients.size(),
        r.pin_failures, static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(r.failed), obj(r.e2e).c_str(),
        obj(r.tail).c_str(), obj(r.samples).c_str(), obj(r.layers).c_str(), notes.c_str());
}

void add_deltas(std::map<std::string, std::uint64_t>& sum,
                const std::map<std::string, std::uint64_t>& before) {
    for (const auto& [name, value] : counters()) {
        sum[name] += value - (before.count(name) ? before.at(name) : 0);
    }
}

/// The run: kSlices slices (one with --quick), each a fresh preload
/// (timed: setup_s is the median) followed by its share of the
/// measurement, so the result pools several stores' memory layouts.
template <bool Traced>
void run(Ctx& cx) {
    const Spec& spec = *cx.opt.spec;
    if (spec.open) cx.clients.resize(1);
    if (spec.zipf) cx.zipf.emplace(cx.keys, kTheta);
    const int slices = cx.opt.quick ? 1 : kSlices;
    const double secs = cx.opt.seconds / slices;
    pb::Recorder rec(Traced ? 16 : 0);
    Generator g{*cx.clients[0], rec};
    if (spec.open) cx.pin(0);  // the generator's CPU

    Acc acc;
    std::vector<double> setups;
    std::map<std::string, std::uint64_t> in_run;  // counter deltas
    std::uint64_t resizes = 0;
    for (int i = 0; i < slices; ++i) {
        cx.store.reset();
        const auto c_setup = counters();
        setups.push_back(preload(cx, std::min(kMaxClients, cx.cpus.size())));
        const auto c_slice = counters();
        resizes = delta(c_slice, c_setup, "kv.resizes");
        if (spec.open) {
            open_slice<Traced>(cx, g, secs, acc);
        } else {
            closed_slice<Traced>(cx, secs, acc);
        }
        add_deltas(in_run, c_slice);
    }

    Result& r = cx.res;
    for (const auto& c : cx.clients) {
        r.attempted += c->ops;
        r.failed += c->failed;
    }
    r.e2e["setup_s"] = pb::median(setups);
    r.e2e["peak_rss_mb"] = peak_rss_mb();
    r.e2e["ops_per_s"] =
        spec.open ? pb::median(acc.saturated) : acc.hi.median_rate();
    r.e2e["lo_p50_ns"] = acc.lo.percentile(0.50);
    r.e2e["hi_p50_ns"] = acc.hi.percentile(0.50);
    if (!spec.open) r.tail["lo_ops_per_s"] = acc.lo.median_rate();
    r.tail["lo_p99_ns"] = acc.lo.percentile(0.99);
    r.tail["hi_p99_ns"] = acc.hi.percentile(0.99);
    r.samples["setup_s"] = setups.size();
    r.samples["peak_rss_mb"] = 1;
    r.samples["lo"] = acc.lo.samples();
    r.samples["hi"] = acc.hi.samples();
    if (spec.open) {
        r.tail["max_rate_rps"] = pb::median(acc.max_rates);
        r.samples["ops_per_s"] = acc.saturated.size();
        r.layers["pipeline.backlog.max"] = acc.backlog_max;
        if (*std::min_element(acc.max_rates.begin(), acc.max_rates.end()) ==
            0.0) {
            r.notes.push_back("a pipeline missed the latency limit at every "
                              "rate");
        }
    } else {
        r.samples["ops_per_s"] = acc.hi.lat.size();
        for (const Windows* w : {&acc.lo, &acc.hi}) {
            if (w->usable().size() == w->lat.size() &&
                std::any_of(w->steal.begin(), w->steal.end(),
                            [](double st) { return st > 0.05; })) {
                r.notes.push_back("steal above 5% in most windows of a phase");
            }
        }
    }

    if constexpr (Traced) {
        std::vector<const pb::SpanLog*> logs = rec.logs();
        for (const auto& c : cx.clients) logs.push_back(&c->log);
        if (spec.open) {
            open_layers(cx, logs);
        } else {
            closed_layers(cx, logs);
        }
        if (!cx.opt.trace_out.empty() &&
            !pb::write_chrome_trace(cx.opt.trace_out, logs, 20000)) {
            r.notes.push_back("could not write " + cx.opt.trace_out);
        }
        map_layers(cx);
        std::size_t ebr = 0;
        std::size_t hp = 0;
        std::uint64_t writes = 0;
        for (const auto& c : cx.clients) {
            ebr = std::max(ebr, c->ebr_pending_max);
            hp = std::max(hp, c->hp_pending_max);
            writes += c->by_kind[kUpdate] + c->by_kind[kInsert] +
                      c->by_kind[kDel] + kMultiKeys * c->by_kind[kMulti];
        }
        r.layers["reclaim.ebr.pending.max"] = static_cast<double>(ebr);
        r.layers["reclaim.hp.pending.max"] = static_cast<double>(hp);
        auto d = [&](const char* name) {
            return static_cast<double>(in_run[name]);
        };
        r.layers["map.cas_retries_per_write"] =
            ratio(d("kv.cas_retries"), static_cast<double>(writes));
        r.layers["map.scan_retries_per_scan"] =
            ratio(d("kv.scan_retries"), d("kv.scans"));
        r.layers["map.resizes"] = static_cast<double>(resizes);
        r.layers["reclaim.ebr.freed_per_collect"] =
            ratio(d("epoch.freed"), d("epoch.collects"));
        r.layers["spin.backoff_units_per_mu"] =
            ratio(d("backoff.units"), d("kv.multi_updates"));
        r.layers["queues.msq_retries"] =
            d("msq.enq_retries") + d("msq.deq_retries");
    }
}

[[noreturn]] void abandon(Ctx& cx, const std::string& why) {
    cx.res.notes.push_back(why);
    print_json(cx);
    std::fflush(stdout);
    std::_Exit(1);
}

}  // namespace

int main(int argc, char** argv) {
    Ctx cx;
    cx.opt = parse(argc, argv);
    cx.cpus = pb::allowed_cpus();
    const Spec& spec = *cx.opt.spec;
    cx.keys = std::size_t{1} << (cx.opt.quick ? 14 : spec.key_bits);
    cx.backlog = cx.opt.quick ? std::min<std::size_t>(spec.backlog, 256)
                              : spec.backlog;
    const std::size_t n = std::min(kMaxClients, cx.cpus.size());
    for (std::size_t i = 0; i < n; ++i) {
        cx.clients.push_back(make_client(cx, static_cast<unsigned>(i)));
    }
    if (cx.opt.trace) {
        run<true>(cx);
    } else {
        run<false>(cx);
    }
    print_json(cx);
    std::fflush(stdout);
    // Skip tearing down a store of up to 0.5 GB node by node; the process
    // is done with it and the kernel reclaims the memory at once.
    std::_Exit(cx.res.failed == 0 ? 0 : 1);
}
