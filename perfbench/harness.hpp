// perfbench/harness.hpp
//
// Measurement plumbing for the KV-service benchmark (kvbench.cpp): a
// log-linear latency histogram, CPU pinning, in-memory spans with a
// Chrome-trace writer, the fixed-interval open-loop schedule, and the
// store adapter that lets kv::Pipeline report when each request's
// service started and ended.  Everything here sits outside the library:
// it only wraps calls into tamp's public API.

#pragma once

#include <immintrin.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct SteadyClock {
    static std::int64_t now() { return now_ns(); }
};

// ------------------------------------------------------------ histogram

/// Log-linear histogram of non-negative integers (nanoseconds here):
/// exact below 128, then 64 sub-buckets per power of two, so a reported
/// percentile is within 1/128 of the true sample.  Fixed 30 KB, O(1)
/// record, mergeable across threads.
class Histogram {
  public:
    static constexpr unsigned kSubBits = 7;
    static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
    static constexpr std::uint64_t kHalf = kSub / 2;
    static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kHalf;

    void record(std::uint64_t v) {
        ++counts_[index(v)];
        ++n_;
    }
    /// Negative durations (clock skew between cores) count as 0.
    void record_signed(std::int64_t v) {
        record(v < 0 ? 0 : static_cast<std::uint64_t>(v));
    }
    void merge(const Histogram& o) {
        for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
        n_ += o.n_;
    }
    std::uint64_t count() const { return n_; }

    /// Share of samples whose bucket lies above `limit` (0 if empty).
    double fraction_above(std::uint64_t limit) const {
        if (n_ == 0) return 0.0;
        std::uint64_t above = 0;
        for (std::size_t i = index(limit) + 1; i < kBuckets; ++i) {
            above += counts_[i];
        }
        return static_cast<double>(above) / static_cast<double>(n_);
    }

    /// Nearest-rank percentile, q in (0, 1]; 0 for an empty histogram.
    std::uint64_t percentile(double q) const {
        if (n_ == 0) return 0;
        auto rank = static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(n_)));
        rank = std::clamp<std::uint64_t>(rank, 1, n_);
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            seen += counts_[i];
            if (seen >= rank) return value_at(i);
        }
        return value_at(kBuckets - 1);
    }

    static std::size_t index(std::uint64_t v) {
        if (v < kSub) return static_cast<std::size_t>(v);
        const unsigned e = 63u - static_cast<unsigned>(std::countl_zero(v));
        const unsigned shift = e - (kSubBits - 1);
        return static_cast<std::size_t>(kSub + (e - kSubBits) * kHalf +
                                        ((v >> shift) - kHalf));
    }
    /// Midpoint of bucket i (bucket i's samples are within 1/128 of it).
    static std::uint64_t value_at(std::size_t i) {
        if (i < kSub) return i;
        const std::size_t j = i - kSub;
        const unsigned e = kSubBits + static_cast<unsigned>(j / kHalf);
        const unsigned shift = e - (kSubBits - 1);
        const std::uint64_t lo = (kHalf + j % kHalf) << shift;
        return lo + ((std::uint64_t{1} << shift) - 1) / 2;
    }

  private:
    std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
    std::uint64_t n_ = 0;
};

/// Median of `v` (mean of the middle two for an even count; 0 if empty).
inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// A phase is cut into equal windows; a latency percentile is reported
/// as the median over windows of each window's percentile, so a rare
/// host stall moves one window and not the result, while a slowdown
/// that lasts moves every window.
inline double windowed_percentile(const std::vector<Histogram>& windows,
                                  double q) {
    std::vector<double> v;
    for (const Histogram& h : windows) {
        if (h.count() != 0) v.push_back(static_cast<double>(h.percentile(q)));
    }
    return median(std::move(v));
}

// ------------------------------------------------------------- pinning

/// The CPUs this process may run on, in ascending order.
inline std::vector<int> allowed_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set)) cpus.push_back(c);
        }
    }
    if (cpus.empty()) cpus.push_back(0);
    return cpus;
}

/// Pin the calling thread to one CPU; false if the kernel refused.
inline bool pin_to(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0;
}

// -------------------------------------------------------------- values

/// Every written value encodes its key, so any read checks itself.
/// Keys stay below 2^48.
inline std::uint64_t encode(std::uint64_t key, std::uint64_t version) {
    return (key << 16) | (version & 0xFFFF);
}
inline bool value_matches(std::uint64_t key, std::uint64_t value) {
    return (value >> 16) == key;
}

// --------------------------------------------------------------- spans

/// The layer boundaries the benchmark times from outside the library.
enum class Layer : std::uint8_t {
    kNone,        // "no parent"
    kOp,          // closed loop: one client operation (draw, call, check)
    kRequest,     // open loop: due time -> service end (the sojourn)
    kLate,        // open loop: due time -> submit call (generator lag)
    kSubmit,      // Pipeline::submit
    kQueueWait,   // due time -> service start
    kService,     // service start -> service end, seen by the adapter
    kGet,         // KvStore calls
    kPut,
    kDel,
    kScan,
    kMultiUpdate,
    kCount
};

inline const char* layer_name(Layer l) {
    switch (l) {
        case Layer::kNone: return "none";
        case Layer::kOp: return "client.op";
        case Layer::kRequest: return "request";
        case Layer::kLate: return "loadgen.late";
        case Layer::kSubmit: return "pipeline.submit";
        case Layer::kQueueWait: return "pipeline.queue_wait";
        case Layer::kService: return "store.service";
        case Layer::kGet: return "store.get";
        case Layer::kPut: return "store.put";
        case Layer::kDel: return "store.del";
        case Layer::kScan: return "store.scan";
        case Layer::kMultiUpdate: return "store.multi_update";
        case Layer::kCount: break;
    }
    return "?";
}

/// One timed interval.  Spans of one request share `req`; `parent`
/// names the enclosing span of the same request by its layer.
struct Span {
    std::uint64_t req;
    std::int64_t start;
    std::int64_t end;
    Layer layer;
    Layer parent;
    std::uint8_t phase;
};

/// Spans recorded by one thread, kept in memory until the run ends.
struct SpanLog {
    std::vector<Span> spans;
    int tid = 0;
    void add(std::uint64_t req, Layer layer, Layer parent, std::int64_t start,
             std::int64_t end, std::uint8_t phase) {
        spans.push_back(Span{req, start, end, layer, parent, phase});
    }
};

/// Per-layer duration histograms over the spans of the given phases
/// (phase_mask bit p selects phase p).
inline std::vector<Histogram> layer_histograms(
    const std::vector<const SpanLog*>& logs, unsigned phase_mask) {
    std::vector<Histogram> out(static_cast<std::size_t>(Layer::kCount));
    for (const SpanLog* log : logs) {
        for (const Span& s : log->spans) {
            if (((phase_mask >> s.phase) & 1u) == 0) continue;
            out[static_cast<std::size_t>(s.layer)].record_signed(s.end -
                                                                 s.start);
        }
    }
    return out;
}

/// Write up to `max_per_log` spans of each log as Chrome trace JSON
/// ("X" complete events, microseconds from the earliest span written).
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<const SpanLog*>& logs,
                               std::size_t max_per_log) {
    std::int64_t t0 = INT64_MAX;
    for (const SpanLog* log : logs) {
        const std::size_t n = std::min(max_per_log, log->spans.size());
        for (std::size_t i = 0; i < n; ++i) {
            t0 = std::min(t0, log->spans[i].start);
        }
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    bool first = true;
    for (const SpanLog* log : logs) {
        const std::size_t n = std::min(max_per_log, log->spans.size());
        for (std::size_t i = 0; i < n; ++i) {
            const Span& s = log->spans[i];
            std::fprintf(
                f,
                "%s{\"name\":\"%s\",\"cat\":\"kv\",\"ph\":\"X\","
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                "\"args\":{\"req\":%llu,\"parent\":\"%s\",\"phase\":%u}}",
                first ? "" : ",\n", layer_name(s.layer),
                static_cast<double>(s.start - t0) / 1e3,
                static_cast<double>(s.end - s.start) / 1e3, log->tid,
                static_cast<unsigned long long>(s.req), layer_name(s.parent),
                static_cast<unsigned>(s.phase));
            first = false;
        }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

// --------------------------------------------------- open-loop schedule

/// Fixed-interval arrivals: request `seq` is due at
/// t0 + (seq - base) * period, whether or not earlier ones finished.
struct Schedule {
    std::int64_t t0 = 0;
    double period_ns = 1.0;
    std::uint64_t base = 0;
    std::int64_t due(std::uint64_t seq) const {
        return t0 + static_cast<std::int64_t>(std::llround(
                        static_cast<double>(seq - base) * period_ns));
    }
};

/// Fixed-interval pacing: for each seq in [s.base, s.base + n), wait
/// until the request is due, then call submit(seq, due, now).  Never
/// sends early; when behind, sends at once, so a stall delays later
/// requests without thinning the schedule.
template <typename Clock = SteadyClock, typename Submit>
void pace(const Schedule& s, std::uint64_t n, Submit&& submit) {
    for (std::uint64_t seq = s.base; seq < s.base + n; ++seq) {
        const std::int64_t due = s.due(seq);
        std::int64_t t = Clock::now();
        while (t < due) {
            _mm_pause();
            t = Clock::now();
        }
        submit(seq, due, t);
    }
}

/// Key type of the store adapter: the KV key plus the request's
/// sequence number, which rides through kv::Pipeline's lanes untouched.
struct ReqKey {
    std::uint64_t key = 0;
    std::uint64_t seq = 0;
    ReqKey() = default;
    explicit ReqKey(std::uint64_t k) : key(k) {}
    ReqKey(std::uint64_t k, std::uint64_t s) : key(k), seq(s) {}
};

/// Completion accounting for the open loop.  Pool workers record each
/// request's service window; the sojourn and queue wait are matched to
/// the due time by sequence number.  Per-thread slots, so recording
/// never contends; the generator reads them only after
/// Pipeline::completed() has reached submitted(): that acquire of the
/// completion count orders every worker's writes before the read.
class Recorder {
  public:
    struct Slot {
        Histogram sojourn, queue_wait, service;
        std::vector<Histogram> windows;  // sojourn, one per window
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        SpanLog log;
    };

    /// `span_stride`: record spans for every request whose seq is a
    /// multiple of it (0 = no spans).
    explicit Recorder(std::uint64_t span_stride = 0)
        : id_(next_id().fetch_add(1) + 1), span_stride_(span_stride) {}
    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

    /// Between phases only (no request in flight).  Requests
    /// [s.base, s.base + windows * per_window) fall into the windows.
    void begin_phase(const Schedule& s, std::uint8_t phase,
                     std::size_t windows, std::uint64_t per_window) {
        std::lock_guard<std::mutex> g(mu_);
        sched_ = s;
        phase_ = phase;
        windows_ = windows;
        per_window_ = per_window == 0 ? 1 : per_window;
        for (auto& slot : slots_) slot->windows.assign(windows, Histogram{});
    }
    bool traces(std::uint64_t seq) const {
        return span_stride_ != 0 && seq % span_stride_ == 0;
    }

    void complete(const ReqKey& k, std::int64_t start, std::int64_t end,
                  Layer layer, bool ok) {
        Slot& s = local();
        const std::int64_t due = sched_.due(k.seq);
        s.sojourn.record_signed(end - due);
        const std::uint64_t w = (k.seq - sched_.base) / per_window_;
        if (w < windows_) s.windows[w].record_signed(end - due);
        s.queue_wait.record_signed(start - due);
        s.service.record_signed(end - start);
        ++s.completed;
        if (!ok) ++s.failed;
        if (traces(k.seq)) {
            s.log.add(k.seq, Layer::kRequest, Layer::kNone, due, end, phase_);
            s.log.add(k.seq, Layer::kQueueWait, Layer::kRequest, due, start,
                      phase_);
            s.log.add(k.seq, Layer::kService, Layer::kRequest, start, end,
                      phase_);
            s.log.add(k.seq, layer, Layer::kService, start, end, phase_);
        }
    }

    /// Merge and reset the per-phase histograms and counts (spans are
    /// kept for the whole run).
    Slot take() {
        Slot out;
        out.windows.resize(windows_);
        std::lock_guard<std::mutex> g(mu_);
        for (auto& s : slots_) {
            for (std::size_t w = 0; w < windows_; ++w) {
                out.windows[w].merge(s->windows[w]);
                s->windows[w] = Histogram{};
            }
            out.sojourn.merge(s->sojourn);
            out.queue_wait.merge(s->queue_wait);
            out.service.merge(s->service);
            out.completed += s->completed;
            out.failed += s->failed;
            s->sojourn = Histogram{};
            s->queue_wait = Histogram{};
            s->service = Histogram{};
            s->completed = 0;
            s->failed = 0;
        }
        return out;
    }

    std::vector<const SpanLog*> logs() const {
        std::lock_guard<std::mutex> g(mu_);
        std::vector<const SpanLog*> out;
        for (const auto& s : slots_) out.push_back(&s->log);
        return out;
    }

  private:
    static std::atomic<std::uint64_t>& next_id() {
        static std::atomic<std::uint64_t> id{0};
        return id;
    }

    Slot& local() {
        struct Cache {
            std::uint64_t owner = 0;
            Slot* slot = nullptr;
        };
        thread_local Cache cache;
        if (cache.owner != id_) {
            std::lock_guard<std::mutex> g(mu_);
            slots_.push_back(std::make_unique<Slot>());
            slots_.back()->windows.resize(windows_);
            slots_.back()->log.tid = 100 + static_cast<int>(slots_.size());
            cache = Cache{id_, slots_.back().get()};
        }
        return *cache.slot;
    }

    const std::uint64_t id_;
    const std::uint64_t span_stride_;
    Schedule sched_;
    std::uint8_t phase_ = 0;
    std::size_t windows_ = 0;
    std::uint64_t per_window_ = 1;
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Slot>> slots_;
};

/// The `Store` kv::Pipeline drives in the open loop: forwards each call
/// to the real store by its plain key, stamps the service window, checks
/// the result against the key, and hands the record to the Recorder.
/// Updates target preloaded keys, so a put must not insert.
template <typename Inner, typename Clock = SteadyClock>
class TimedStore {
  public:
    using key_type = ReqKey;
    using mapped_type = std::uint64_t;

    TimedStore(Inner& inner, Recorder& rec) : inner_(&inner), rec_(&rec) {}

    std::optional<std::uint64_t> get(const ReqKey& k) {
        const std::int64_t t0 = Clock::now();
        const std::optional<std::uint64_t> v = inner_->get(k.key);
        const std::int64_t t1 = Clock::now();
        rec_->complete(k, t0, t1, Layer::kGet,
                       v.has_value() && value_matches(k.key, *v));
        return v;
    }

    bool put(const ReqKey& k, std::uint64_t v) {
        const std::int64_t t0 = Clock::now();
        const bool inserted = inner_->put(k.key, v);
        const std::int64_t t1 = Clock::now();
        rec_->complete(k, t0, t1, Layer::kPut,
                       !inserted && value_matches(k.key, v));
        return inserted;
    }

    std::size_t scan(const ReqKey& k, std::size_t limit,
                     std::vector<std::pair<ReqKey, std::uint64_t>>& out) {
        buf_().clear();
        const std::int64_t t0 = Clock::now();
        const std::size_t n = inner_->scan(k.key, limit, buf_());
        const std::int64_t t1 = Clock::now();
        bool ok = true;
        for (const auto& [key, val] : buf_()) {
            ok = ok && value_matches(key, val);
            out.emplace_back(ReqKey(key), val);
        }
        rec_->complete(k, t0, t1, Layer::kScan, ok);
        return n;
    }

  private:
    static std::vector<std::pair<std::uint64_t, std::uint64_t>>& buf_() {
        thread_local std::vector<std::pair<std::uint64_t, std::uint64_t>> b;
        return b;
    }

    Inner* const inner_;
    Recorder* const rec_;
};

}  // namespace perfbench
