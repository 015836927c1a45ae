// tamp/obs/timer.hpp
//
// Calibrated scoped timers feeding obs::histogram<Tag> — the record side
// of the tail-latency tier.
//
// Tick source: now_ticks() (trace.hpp) — raw TSC on x86, steady_clock
// ticks elsewhere.  Ticks are converted to nanoseconds through a
// process-lifetime calibration latched on first use: a short busy window
// is measured against steady_clock and the resulting ticks-per-ns ratio is
// cached forever.
//
// Calibration caveat (documented in README "Observability"): rdtsc on any
// post-2008 x86 is constant-rate ("constant_tsc"), so one calibration is
// valid for the process lifetime; on hardware without a constant-rate
// counter the conversion can drift with frequency scaling, and on
// non-x86 the steady_clock fallback already reports nanoseconds (the
// calibration then measures ~1.0 and is a near-no-op).  Absolute values
// carry the calibration's ~1% window error on top of the histogram's
// ~6% bucket quantization — fine for percentile *comparison*, not a
// substitute for cycle-accurate microarchitectural measurement.
//
// API:
//   scoped_timer<Tag>        RAII: records elapsed ns into histogram<Tag>
//                            at scope exit; cancel() disarms.
//   scoped_timer<Tag, S>     sampled: only 1 in 2^S instances measure —
//                            for sub-100ns op paths where an unconditional
//                            rdtsc pair would dominate the measurement.
//                            Sampling is by op index (unbiased w.r.t. op
//                            duration), so percentiles remain valid.
//   tick()                   explicit start point (0 when stats are off);
//   record_since<Tag>(t0)    explicit record of now - t0.
//
// Everything compiles to empty inlines / empty types when TAMP_STATS is
// OFF, under the same per-TU ODR rules as counter<Tag> (config.hpp).

#pragma once

#include <chrono>
#include <cstdint>

#include "tamp/obs/config.hpp"
#include "tamp/obs/histogram.hpp"
#include "tamp/obs/trace.hpp"  // now_ticks()

namespace tamp::obs {

namespace detail {

/// Measure the tick rate once, against steady_clock, over a short busy
/// window.  Macro-independent: only enabled-backend code ever calls it.
inline double measure_ticks_per_ns() noexcept {
    using clock = std::chrono::steady_clock;
    const clock::time_point w0 = clock::now();
    const std::uint64_t t0 = now_ticks();
    // ~200us window: long enough to swamp the clock-read cost, short
    // enough to be an invisible one-time hit on first record.
    while (clock::now() - w0 < std::chrono::microseconds(200)) {
    }
    const std::uint64_t t1 = now_ticks();
    const clock::time_point w1 = clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(w1 - w0).count();
    if (t1 <= t0 || ns <= 0.0) return 1.0;  // broken tick source: 1 tick=1ns
    return static_cast<double>(t1 - t0) / ns;
}

}  // namespace detail

/// Calibrated tick rate, latched on first use.
inline double ticks_per_ns() noexcept {
    static const double r = detail::measure_ticks_per_ns();
    return r;
}

/// Convert a tick delta to nanoseconds through the calibration.
inline std::uint64_t ticks_to_ns(std::uint64_t dticks) noexcept {
    return static_cast<std::uint64_t>(static_cast<double>(dticks) /
                                      ticks_per_ns());
}

/// Explicit start point for record_since<Tag>().  Compiles to a constant 0
/// (no TSC read) when this TU's stats are off.
template <typename Backend = stats_backend>
constexpr std::uint64_t tick() noexcept {
    if constexpr (std::is_same_v<Backend, stats_enabled_backend>) {
        return now_ticks();
    } else {
        return 0;
    }
}

/// Record now - t0 into histogram<Tag>.  No-op (and no TSC read) when this
/// TU's stats are off.
template <typename Tag, typename Backend = stats_backend>
constexpr void record_since(std::uint64_t t0) noexcept {
    if constexpr (std::is_same_v<Backend, stats_enabled_backend>) {
        histogram<Tag>::record(ticks_to_ns(now_ticks() - t0));
    } else {
        (void)t0;
    }
}

#if TAMP_STATS

/// RAII latency probe: construction latches the tick counter, destruction
/// records the elapsed nanoseconds into histogram<Tag>.  With SampleShift
/// > 0 only every 2^SampleShift-th instance per thread arms (the rest cost
/// one thread-local increment and no TSC read).
template <typename Tag, unsigned SampleShift = 0>
class scoped_timer {
  public:
    using backend = stats_enabled_backend;

    scoped_timer() noexcept {
        if constexpr (SampleShift > 0) {
            thread_local std::uint32_t n = 0;
            if ((n++ & ((1u << SampleShift) - 1u)) != 0) {
                armed_ = false;
                return;
            }
        }
        start_ = now_ticks();
    }

    ~scoped_timer() {
        if (armed_) {
            histogram<Tag>::record(ticks_to_ns(now_ticks() - start_));
        }
    }

    scoped_timer(const scoped_timer&) = delete;
    scoped_timer& operator=(const scoped_timer&) = delete;

    /// Disarm: nothing will be recorded (abort paths that account their
    /// latency elsewhere).
    void cancel() noexcept { armed_ = false; }

  private:
    std::uint64_t start_ = 0;
    bool armed_ = true;
};

#else  // !TAMP_STATS — an empty type; construction/destruction is free.

template <typename Tag, unsigned SampleShift = 0>
class scoped_timer {
  public:
    using backend = stats_disabled_backend;
    // User-provided, not defaulted: GCC warns -Wunused-variable on every
    // timer whose class has a trivial default constructor.
    constexpr scoped_timer() noexcept {}
    scoped_timer(const scoped_timer&) = delete;
    scoped_timer& operator=(const scoped_timer&) = delete;
    static constexpr void cancel() noexcept {}
};

#endif  // TAMP_STATS

}  // namespace tamp::obs
