// tamp/kv/workload.hpp
//
// kv::Workload — a YCSB-style load generator for KvStore (Cooper et al.'s
// benchmark shape: zipfian-skewed key popularity, fixed read/update/
// insert/scan mix, closed or open loop).  The point, per the multicore
// macro-benchmark methodology the ROADMAP cites: a structure's
// micro-bench win only counts if it survives composition under skewed
// traffic, and skew is what a uniform key pick can never produce.
//
//   * ZipfianSampler — Gray et al.'s constant-time zipfian generator
//     (the YCSB one): three precomputed constants turn one uniform
//     variate into a zipf-distributed rank.  All state is const after
//     construction, so one sampler is shared read-only by every thread.
//     Ranks map directly onto key ids; the placement scattering YCSB's
//     key scrambling exists for is already done by the store's
//     DefaultKeyOf splitmix finalizer (hot keys land on unrelated
//     shards and buckets even though their ids are adjacent).
//
//   * Closed loop — each worker calls step() back-to-back: offered load
//     tracks completion rate (the classic bench shape; measures
//     capacity).
//
//   * Open loop — producers push Request records into bounded per-lane
//     rings (Vyukov's per-cell sequence numbers over the book's circular
//     array, Fig. 3.3 / §10.3) and long-lived drainer tasks on the
//     work-stealing pool execute them: offered load is set by the
//     producers regardless of service rate, so queueing delay becomes
//     visible.  Submit→completion time lands in the tamp.kv.sojourn_ns
//     histogram — the service-level latency a closed loop structurally
//     cannot show (coordinated omission).

#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "tamp/core/backoff.hpp"
#include "tamp/core/bits.hpp"
#include "tamp/core/cacheline.hpp"
#include "tamp/core/random.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/obs/events.hpp"
#include "tamp/obs/timer.hpp"
#include "tamp/sim/atomic.hpp"
#include "tamp/sim/shared.hpp"
#include "tamp/steal/pool.hpp"

namespace tamp::kv {

enum class OpKind : std::uint8_t { kRead, kUpdate, kInsert, kScan };

/// Operation mix in percent; must sum to 100.  Value type, copied into
/// each Workload and read-only from there (hence the lint allows — the
/// generator's mutable shared state is all tamp::atomic below).
struct WorkloadMix {
    int reads;    // tamp-lint: allow(plain-shared-member)
    int updates;  // tamp-lint: allow(plain-shared-member)
    int inserts;  // tamp-lint: allow(plain-shared-member)
    int scans;    // tamp-lint: allow(plain-shared-member)
};

// The three mixes BENCH_kv.json ladders over (YCSB B-ish, A-ish, E-ish).
inline constexpr WorkloadMix kReadHeavy{95, 5, 0, 0};
inline constexpr WorkloadMix kUpdateHeavy{50, 50, 0, 0};
inline constexpr WorkloadMix kScanMixed{70, 20, 5, 5};

enum class KeyDist : std::uint8_t { kZipfian, kUniform };

/// Experiment parameters: a value type, held const inside Workload.
struct WorkloadConfig {
    WorkloadMix mix = kReadHeavy;
    KeyDist dist = KeyDist::kZipfian;
    std::size_t key_space = std::size_t{1} << 20;  // preloaded keys
    // zipfian skew (YCSB default)  // tamp-lint: allow(plain-shared-member)
    double theta = 0.99;
    // scan length cap              // tamp-lint: allow(plain-shared-member)
    std::size_t scan_limit = 16;
    // per-thread pre-measure steps // tamp-lint: allow(plain-shared-member)
    std::size_t warmup_ops = 1000;
    // per-run RNG seed             // tamp-lint: allow(plain-shared-member)
    std::uint64_t seed = 42;
};

/// Gray et al. "Quickly Generating Billion-Record Synthetic Databases"
/// §3.2 — the incremental zipfian generator YCSB adopted.  next() maps
/// one uniform u in [0,1) to a rank in [0, n): rank 0 is the hottest
/// key (probability ~ (1-theta)-ish of the head), tail ranks decay as
/// 1/rank^theta.  Shared read-only across threads (all members const).
class ZipfianSampler {
  public:
    ZipfianSampler(std::size_t n, double theta)
        : n_(n),
          theta_(theta),
          alpha_(1.0 / (1.0 - theta)),
          half_pow_theta_(std::pow(0.5, theta)),
          zetan_(zeta(n, theta)),
          eta_((1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
               (1.0 - zeta(2, theta) / zetan_)) {
        assert(n >= 2 && theta > 0.0 && theta < 1.0);
    }

    std::uint64_t next(XorShift64& rng) const {
        // 53 uniform mantissa bits -> u in [0, 1).
        const double u =
            static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
        const double uz = u * zetan_;
        if (uz < 1.0) return 0;
        if (uz < 1.0 + half_pow_theta_) return 1;
        const auto rank = static_cast<std::uint64_t>(
            static_cast<double>(n_) *
            std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return rank >= n_ ? n_ - 1 : rank;  // fp edge: clamp
    }

    std::size_t n() const { return n_; }

  private:
    static double zeta(std::size_t n, double theta) {
        double sum = 0.0;
        for (std::size_t i = 1; i <= n; ++i) {
            sum += 1.0 / std::pow(static_cast<double>(i), theta);
        }
        return sum;
    }

    const std::size_t n_;
    const double theta_;
    const double alpha_;
    const double half_pow_theta_;
    const double zetan_;
    const double eta_;
};

template <typename Store>
class Workload {
  public:
    using K = typename Store::key_type;
    using V = typename Store::mapped_type;
    static_assert(std::is_constructible_v<K, std::uint64_t> &&
                      std::is_constructible_v<V, std::uint64_t>,
                  "the generator synthesizes keys/values from 64-bit ints");

    /// Per-thread generator state: private RNG (so threads never
    /// contend on randomness), a reusable scan buffer, and the
    /// thread's private insert-key cursor.
    struct ThreadState {
        XorShift64 rng;
        std::vector<std::pair<K, V>> scan_buf;
        // thread-private cursor       // tamp-lint: allow(plain-shared-member)
        std::uint64_t next_insert;
    };

    Workload(Store& store, const WorkloadConfig& cfg)
        : store_(&store),
          cfg_(cfg),
          zipf_(cfg.key_space, cfg.theta) {}

    const WorkloadConfig& config() const { return cfg_; }

    /// Preload keys [0, key_space), split across threads.
    void load(std::size_t n_threads = 1) {
        std::vector<std::thread> ts;
        ts.reserve(n_threads);
        for (std::size_t t = 0; t < n_threads; ++t) {
            ts.emplace_back([this, t, n_threads] {
                for (std::uint64_t r = t; r < cfg_.key_space;
                     r += n_threads) {
                    store_->put(K(r), V(r));
                }
            });
        }
        for (auto& t : ts) t.join();
    }

    ThreadState make_state(unsigned tid) const {
        return ThreadState{
            XorShift64(
                tamp::detail::mix64(cfg_.seed ^ (0x10001ull * tid + 1))),
            {},
            // Private insert range per thread, above the preload range.
            (std::uint64_t{tid} << 32) | (std::uint64_t{1} << 62)};
    }

    /// Draw the next operation without executing it (the open-loop
    /// producer path).  Returns kind + key; value is the caller's.
    OpKind next_op(ThreadState& ts, K& key) {
        const auto r = static_cast<int>(ts.rng.next_below(100));
        const WorkloadMix& m = cfg_.mix;
        if (r < m.reads) {
            key = K(pick_key(ts));
            return OpKind::kRead;
        }
        if (r < m.reads + m.updates) {
            key = K(pick_key(ts));
            return OpKind::kUpdate;
        }
        if (r < m.reads + m.updates + m.inserts) {
            key = K(ts.next_insert++);
            return OpKind::kInsert;
        }
        key = K(pick_key(ts));
        return OpKind::kScan;
    }

    /// One closed-loop step: draw an op and run it against the store.
    OpKind step(ThreadState& ts) {
        K key{};
        const OpKind op = next_op(ts, key);
        execute(op, key, V(ts.rng.next()), ts.scan_buf);
        return op;
    }

    void execute(OpKind op, const K& key, const V& val,
                 std::vector<std::pair<K, V>>& scan_buf) {
        switch (op) {
            case OpKind::kRead:
                (void)store_->get(key);
                break;
            case OpKind::kUpdate:
            case OpKind::kInsert:
                (void)store_->put(key, val);
                break;
            case OpKind::kScan:
                scan_buf.clear();
                (void)store_->scan(key, cfg_.scan_limit, scan_buf);
                break;
        }
    }

    void warmup(ThreadState& ts) {
        for (std::size_t i = 0; i < cfg_.warmup_ops; ++i) step(ts);
    }

    /// Closed loop: `threads` workers, each warmup + ops_per_thread
    /// back-to-back steps.  Returns total measured ops.
    std::size_t run_closed(std::size_t threads,
                           std::size_t ops_per_thread) {
        std::vector<std::thread> ts;
        ts.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t) {
            ts.emplace_back([this, t, ops_per_thread] {
                ThreadState s = make_state(static_cast<unsigned>(t));
                warmup(s);
                for (std::size_t i = 0; i < ops_per_thread; ++i) step(s);
            });
        }
        for (auto& th : ts) th.join();
        return threads * ops_per_thread;
    }

  private:
    std::uint64_t pick_key(ThreadState& ts) const {
        return cfg_.dist == KeyDist::kZipfian
                   ? zipf_.next(ts.rng)
                   : ts.rng.next() % cfg_.key_space;
    }

    Store* const store_;
    const WorkloadConfig cfg_;
    const ZipfianSampler zipf_;
};

namespace detail {

/// One open-loop lane: a bounded multi-producer ring with one consumer at
/// a time — the book's circular-array queue (Fig. 3.3, §10.3) with
/// Vyukov's per-cell sequence numbers in place of its locks.  Cell
/// `t % Capacity` is free for ticket t when its sequence reads t and
/// holds t's value when it reads t + 1; freeing it stores t + Capacity,
/// the ticket one lap ahead.  A producer takes its ticket with one
/// fetch_add and never retries; the consumer uses loads and stores
/// only.  Whoever consumes must receive the role through a
/// release/acquire edge (Pipeline's per-lane flag): the cursor is a
/// plain field.  The capacity is a parameter so the model checker can
/// wrap the ring at 2 cells.
template <typename T, std::size_t Capacity>
class LaneRing {
    static_assert(Capacity >= 2 && (Capacity & (Capacity - 1)) == 0,
                  "capacity must be a power of two");

  public:
    LaneRing() {
        for (std::size_t i = 0; i < Capacity; ++i) {
            cells_[i].seq.store(i, std::memory_order_relaxed);
        }
    }

    /// Any thread: take a ticket, wait until the consumer has freed the
    /// cell a lap behind it, write, publish.
    void push(const T& v) {
        const std::uint64_t t = tail_.fetch_add(1, std::memory_order_relaxed);
        Cell& c = cells_[t & kMask];
        SpinWait w;
        while (c.seq.load(std::memory_order_acquire) != t) w.spin();
        c.value = v;
        c.seq.store(t + 1, std::memory_order_release);
    }

    /// Consumer: the oldest value, or nullptr while its producer has not
    /// published it (or nothing was pushed).  Valid until pop().
    const tamp::shared<T>* front() const {
        const std::uint64_t h = head_;
        const Cell& c = cells_[h & kMask];
        return c.seq.load(std::memory_order_acquire) == h + 1 ? &c.value
                                                              : nullptr;
    }

    /// Consumer: hand front()'s cell to the ticket one lap ahead.
    void pop() {
        const std::uint64_t h = head_;
        cells_[h & kMask].seq.store(h + Capacity, std::memory_order_release);
        head_ = h + 1;
    }

    /// Consumer: copy the oldest value out, then free its cell.
    bool try_pop(T& out) {
        const tamp::shared<T>* v = front();
        if (v == nullptr) return false;
        out = *v;
        pop();
        return true;
    }

    /// Tickets taken so far (pushes begun, published or not).
    std::uint64_t pushed() const {
        return tail_.load(std::memory_order_acquire);
    }

  private:
    static constexpr std::uint64_t kMask = Capacity - 1;

    struct Cell {
        tamp::atomic<std::uint64_t> seq{0};
        tamp::shared<T> value{};
    };

    Cell cells_[Capacity];
    alignas(kCacheLineSize) tamp::atomic<std::uint64_t> tail_{0};
    alignas(kCacheLineSize) tamp::shared<std::uint64_t> head_{0};
};

}  // namespace detail

/// Open-loop plumbing: bounded request lanes drained by long-lived
/// work-stealing pool tasks.  Producers call submit() at whatever rate
/// the experiment dictates; drainers execute against the store and stamp
/// the sojourn (submit -> completion) into tamp.kv.sojourn_ns.
///
/// start() launches min(lanes, pool.workers()) drainers.  Each scans
/// every lane from its home lane on, takes a lane through the lane's
/// try-flag (which hands the ring's consumer role over), copies out up
/// to kBatch requests and drops the flag before it runs them, so any
/// ratio of lanes to workers drains every lane and a drainer stalled
/// inside a request (preempted, page-faulting) holds no lane.  After
/// the batch it adds the batch to the lane's completion count with a
/// release RMW.  An idle drainer spins, then yields, through SpinWait;
/// it never parks, which keeps submit() free of any wake-up check.
///
/// Contract:
///   * a full lane (kLaneCapacity requests waiting) makes submit() wait
///     for a free cell; an open-loop caller that times each request from
///     its due time charges that wait to the request;
///   * submit() must not be called from the pool's own workers;
///   * between start() and stop() the pool's workers belong to the
///     pipeline: the drainers hold them until stop().
template <typename Store>
class Pipeline {
  public:
    using K = typename Store::key_type;
    using V = typename Store::mapped_type;

    static constexpr std::size_t kLaneCapacity = 1024;

    // One queued operation.  Owned by exactly one thread at a time —
    // the producer until its cell's release store, then the drainer
    // that copied it out into its batch.
    struct Request {
        OpKind op;  // tamp-lint: allow(plain-shared-member)
        K key;
        V val;
        // obs::tick() at submit; 0 = stats off
        std::uint64_t t_submit;  // tamp-lint: allow(plain-shared-member)
    };

    Pipeline(Store& store, Workload<Store>& workload,
             WorkStealingPool& pool, std::size_t lanes = 1)
        : store_(&store), workload_(&workload), pool_(&pool) {
        lanes_.reserve(lanes == 0 ? 1 : lanes);
        for (std::size_t i = 0; i < (lanes == 0 ? 1 : lanes); ++i) {
            lanes_.push_back(std::make_unique<Lane>());
        }
    }

    Pipeline(const Pipeline&) = delete;
    Pipeline& operator=(const Pipeline&) = delete;

    ~Pipeline() {
        if (!stop_.load(std::memory_order_relaxed)) stop();
    }

    /// Launch the drainers: one long-lived pool task per lane, at most
    /// one per worker.
    void start() {
        assert(stop_.load(std::memory_order_relaxed) && "already started");
        stop_.store(false, std::memory_order_release);
        const std::size_t drainers = std::min(lanes_.size(), pool_->workers());
        for (std::size_t d = 0; d < drainers; ++d) {
            pool_->submit([this, d] { drainer(d); });
        }
    }

    /// Producer side: enqueue one request (lane picked round-robin by
    /// the producer's own counter in `lane_hint`).  Waits while the lane
    /// is full.
    void submit(OpKind op, const K& key, const V& val,
                std::uint64_t lane_hint) {
        lanes_[lane_hint % lanes_.size()]->ring.push(
            Request{op, key, val, obs::tick()});
    }

    /// Wait until every submitted request completed.
    void drain() {
        SpinWait w;
        while (completed() < submitted()) w.spin();
    }

    /// Drain, then end the drainer tasks and quiesce the pool.
    void stop() {
        drain();
        stop_.store(true, std::memory_order_release);
        pool_->wait_idle();
    }

    /// Requests executed.  Each lane's count is acquired, so everything
    /// a drainer wrote while executing a counted request is visible to
    /// the caller (the counts grow by release RMWs only, so one acquire
    /// orders every batch counted so far, whichever drainer ran it).
    std::uint64_t completed() const {
        std::uint64_t n = 0;
        for (const auto& lane : lanes_) {
            n += lane->done.load(std::memory_order_acquire);
        }
        return n;
    }
    std::uint64_t submitted() const {
        std::uint64_t n = 0;
        for (const auto& lane : lanes_) n += lane->ring.pushed();
        return n;
    }

  private:
    static constexpr std::size_t kBatch = 64;

    struct Lane {
        detail::LaneRing<Request, kLaneCapacity> ring;
        // Held by the one drainer that is the ring's consumer.
        alignas(kCacheLineSize) tamp::atomic<bool> busy{false};
        // Requests executed; bumped once per batch by its drainer.
        alignas(kCacheLineSize) tamp::atomic<std::uint64_t> done{0};
    };

    void drainer(std::size_t home) {
        std::vector<Request> batch(kBatch);
        std::vector<std::pair<K, V>> scan_buf;
        SpinWait idle;
        while (!stop_.load(std::memory_order_acquire)) {
            bool worked = false;
            for (std::size_t k = 0; k < lanes_.size(); ++k) {
                worked |= drain_batch(*lanes_[(home + k) % lanes_.size()],
                                      batch, scan_buf);
            }
            if (worked) {
                idle.reset();
            } else {
                idle.spin();
            }
        }
    }

    /// Take up to kBatch requests of `lane` unless another drainer holds
    /// it, then run them with the lane released; true if any ran.
    bool drain_batch(Lane& lane, std::vector<Request>& batch,
                     std::vector<std::pair<K, V>>& scan_buf) {
        if (lane.busy.load(std::memory_order_relaxed) ||
            lane.busy.exchange(true, std::memory_order_acquire)) {
            return false;
        }
        std::size_t n = 0;
        while (n < kBatch && lane.ring.try_pop(batch[n])) ++n;
        lane.busy.store(false, std::memory_order_release);
        if (n == 0) return false;
        for (std::size_t i = 0; i < n; ++i) {
            const Request& r = batch[i];
            workload_->execute(r.op, r.key, r.val, scan_buf);
            if (r.t_submit != 0) {
                obs::record_since<obs::ev::kv_sojourn_ns>(r.t_submit);
            }
        }
        lane.done.fetch_add(n, std::memory_order_release);
        return true;
    }

    Store* const store_;
    Workload<Store>* const workload_;
    WorkStealingPool* const pool_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    tamp::atomic<bool> stop_{true};
};

}  // namespace tamp::kv
