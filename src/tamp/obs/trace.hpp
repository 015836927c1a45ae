// tamp/obs/trace.hpp
//
// Fixed-size per-thread event rings with a Chrome trace_event exporter —
// the "what happened when" tier of tamp::obs, for eyeballing lock convoys,
// backoff storms, and epoch stalls in chrome://tracing or Perfetto.
//
//  * each thread owns one ring of kTraceCapacity {ticks, event, arg}
//    records; appends are a thread-local write plus a relaxed counter
//    store — no shared state on the record path;
//  * rings are leaked and registered globally, so trace_dump() can walk
//    them after their threads have exited;
//  * the ring keeps the *last* kTraceCapacity events (oldest overwritten),
//    which is the window you want when a run ends in the anomaly;
//  * timestamps are raw TSC ticks (x86) or steady_clock ticks elsewhere,
//    converted to microseconds at dump time from a process-lifetime anchor.
//
// Collection (trace_collect / trace_dump) assumes mutators are quiescent —
// call it between benchmark phases or after joining workers.  Records are
// plain memory; only the write counters are atomic.
//
// trace<Backend>() is a template for the same ODR reason counter<Tag> is
// (see config.hpp): TUs that flip TAMP_STATS instantiate their own copy.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "tamp/core/thread_registry.hpp"
#include "tamp/obs/config.hpp"
#include "tamp/obs/histogram.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace tamp::obs {

/// Event vocabulary for the ring.  Append only — ids are stable telemetry.
enum class trace_ev : std::uint16_t {
    kLockAcquire = 0,  // arg: failed CAS count for this acquisition
    kLockRelease = 1,
    kBackoff = 2,        // arg: units slept
    kHpScan = 3,         // arg: nodes freed by the scan
    kEpochAdvance = 4,   // arg: the new epoch
    kElimHit = 5,
    kElimMiss = 6,
    kElimTimeout = 7,
    kStmCommit = 8,
    kStmAbort = 9,       // arg: abort cause ordinal
    kUser = 10,          // free for tests and experiments
    kQsbrAdvance = 11,   // arg: the new interval
};

inline const char* trace_ev_name(trace_ev e) noexcept {
    switch (e) {
        case trace_ev::kLockAcquire: return "lock_acquire";
        case trace_ev::kLockRelease: return "lock_release";
        case trace_ev::kBackoff: return "backoff";
        case trace_ev::kHpScan: return "hp_scan";
        case trace_ev::kEpochAdvance: return "epoch_advance";
        case trace_ev::kElimHit: return "elim_hit";
        case trace_ev::kElimMiss: return "elim_miss";
        case trace_ev::kElimTimeout: return "elim_timeout";
        case trace_ev::kStmCommit: return "stm_commit";
        case trace_ev::kStmAbort: return "stm_abort";
        case trace_ev::kUser: return "user";
        case trace_ev::kQsbrAdvance: return "qsbr_advance";
    }
    return "unknown";
}

/// {tsc, event_id, arg} — 24 bytes, the record the issue specifies.
struct trace_record {
    std::uint64_t ticks;
    std::uint64_t arg;
    trace_ev event;
};

/// Ring capacity per thread (power of two; ~96 KiB per thread).
inline constexpr std::size_t kTraceCapacity = std::size_t{1} << 12;

/// Cheapest available monotonic tick source.
inline std::uint64_t now_ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

namespace detail {

struct TraceRing {
    std::size_t tid = 0;
    std::atomic<std::uint64_t> count{0};  // total appends, monotone
    trace_record records[kTraceCapacity];
};

struct TraceRegistry {
    std::mutex mu;
    std::vector<TraceRing*> rings;  // leaked rings, insertion order
};

inline TraceRegistry& trace_registry() {
    static TraceRegistry* r = new TraceRegistry();  // leaked (see header)
    return *r;
}

/// Anchor for ticks→wall-clock conversion: latched on first use, read
/// again at dump time to estimate the tick rate.
struct TickAnchor {
    std::uint64_t ticks;
    std::chrono::steady_clock::time_point wall;
};

inline const TickAnchor& tick_anchor() {
    static const TickAnchor a{now_ticks(), std::chrono::steady_clock::now()};
    return a;
}

inline TraceRing& local_ring() {
    thread_local TraceRing* ring = [] {
        (void)tick_anchor();  // latch the anchor no later than first record
        auto* r = new TraceRing();
        r->tid = thread_id();
        auto& reg = trace_registry();
        std::lock_guard<std::mutex> guard(reg.mu);
        reg.rings.push_back(r);
        return r;
    }();
    return *ring;
}

}  // namespace detail

/// Append one event to the calling thread's ring.  No-op (empty inline)
/// when TAMP_STATS is off.
template <typename Backend = stats_backend>
void trace(trace_ev e, std::uint64_t arg = 0) noexcept {
    if constexpr (std::is_same_v<Backend, stats_enabled_backend>) {
        detail::TraceRing& r = detail::local_ring();
        const std::uint64_t n = r.count.load(std::memory_order_relaxed);
        r.records[n % kTraceCapacity] =
            trace_record{now_ticks(), arg, e};
        r.count.store(n + 1, std::memory_order_relaxed);
    } else {
        (void)e;
        (void)arg;
    }
}

/// One collected record with its owning thread's dense id.
struct collected_record {
    std::size_t tid;
    trace_record rec;
};

/// Gather every ring's surviving records, oldest first per ring.
/// Quiescent callers only (see header comment).
inline std::vector<collected_record> trace_collect() {
    std::vector<collected_record> out;
    auto& reg = detail::trace_registry();
    std::lock_guard<std::mutex> guard(reg.mu);
    for (detail::TraceRing* r : reg.rings) {
        const std::uint64_t n = r->count.load(std::memory_order_acquire);
        const std::uint64_t start = n > kTraceCapacity ? n - kTraceCapacity : 0;
        for (std::uint64_t i = start; i < n; ++i) {
            out.push_back(
                collected_record{r->tid, r->records[i % kTraceCapacity]});
        }
    }
    return out;
}

/// Export everything collected so far as Chrome trace_event JSON
/// (load in chrome://tracing or https://ui.perfetto.dev).  Returns false
/// if the file could not be opened.  Quiescent callers only.
inline bool trace_dump(const std::string& path) {
    std::vector<collected_record> records = trace_collect();

    // ticks → microseconds: linear map through the process anchor.
    const detail::TickAnchor& a = detail::tick_anchor();
    const std::uint64_t ticks_now = now_ticks();
    const double us_elapsed =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - a.wall)
            .count();
    const double ticks_per_us =
        (ticks_now > a.ticks && us_elapsed > 0.0)
            ? static_cast<double>(ticks_now - a.ticks) / us_elapsed
            : 1000.0;  // fallback: pretend 1 tick == 1 ns

    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
           "\"args\":{\"name\":\"tamp\"}}";
    char buf[256];
    for (const collected_record& cr : records) {
        const double ts =
            static_cast<double>(cr.rec.ticks -
                                (cr.rec.ticks > a.ticks ? a.ticks : 0)) /
            ticks_per_us;
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                      "\"ts\":%.3f,\"pid\":1,\"tid\":%zu,"
                      "\"args\":{\"arg\":%llu}}",
                      trace_ev_name(cr.rec.event), ts, cr.tid,
                      static_cast<unsigned long long>(cr.rec.arg));
        out << buf;
    }
    // Histogram snapshots ride along as Chrome counter-track samples
    // ("ph":"C"): one sample per histogram at dump time, with the merged
    // percentiles as the counter series — chrome://tracing then draws the
    // p50/p99/p999 levels next to the event timeline they explain.
    const double ts_now =
        static_cast<double>(ticks_now - a.ticks) / ticks_per_us;
    for (const hist_sample& h : hist_snapshot()) {
        if (h.count == 0) continue;
        const hist_percentiles p = extract_percentiles(h);
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,"
                      "\"pid\":1,\"args\":{\"p50\":%llu,\"p90\":%llu,"
                      "\"p99\":%llu,\"p999\":%llu,\"max\":%llu}}",
                      h.name, ts_now,
                      static_cast<unsigned long long>(p.p50),
                      static_cast<unsigned long long>(p.p90),
                      static_cast<unsigned long long>(p.p99),
                      static_cast<unsigned long long>(p.p999),
                      static_cast<unsigned long long>(p.max));
        out << buf;
    }
    out << "\n]}\n";
    return out.good();
}

}  // namespace tamp::obs
