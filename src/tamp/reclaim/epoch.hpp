// tamp/reclaim/epoch.hpp
//
// Epoch-based reclamation (EBR) — the second standard GC substitute, used
// where traversals touch many nodes and per-node hazard publication would
// dominate (skiplists, split-ordered hash tables).
//
// The classic three-epoch scheme: threads *pin* the global epoch on entry
// to an operation and unpin on exit; a node retired in epoch e may be
// freed once the global epoch has advanced twice past e, because any
// thread that could have seen the node must have been pinned at e or
// earlier and has since unpinned.  The global epoch advances only when all
// pinned threads have caught up with it.
//
// Trade-off vs hazard pointers, measured by `bench_reclaim`: EBR reads
// are nearly free (one pin store per *operation*, not per node), but a
// single stalled reader blocks reclamation globally; HP bounds garbage
// per thread but publishes per pointer.
//
// EpochDomain is the EBR policy of the grace-period engine (grace.hpp),
// which retires, collects and publishes: a pin publishes the epoch, an
// unpin stores the idle word, and threads register unpinned.

#pragma once

#include <cstdint>

#include "tamp/obs/events.hpp"
#include "tamp/obs/trace.hpp"
#include "tamp/reclaim/grace.hpp"

namespace tamp {

class EpochDomain : public GraceDomain<EpochDomain> {
  public:
    /// Pin/unpin the calling thread (prefer EpochGuard below).  Pins
    /// nest; only the outermost publishes and unpins.
    void enter();
    void exit();

    std::uint64_t current_epoch() const { return counter(); }

    // Engine policy: telemetry, and new threads register unpinned.
    using retired_ev = obs::ev::epoch_retired;
    using freed_ev = obs::ev::epoch_freed;
    using collects_ev = obs::ev::epoch_collects;
    using advances_ev = obs::ev::epoch_advances;
    using collect_ns_ev = obs::ev::epoch_collect_ns;
    static constexpr obs::trace_ev kAdvanceTrace = obs::trace_ev::kEpochAdvance;
    static constexpr std::uint64_t registered_word(std::uint64_t) {
        return reclaim_detail::kIdle;
    }

  private:
    friend class GraceDomain<EpochDomain>;
    EpochDomain() = default;
};

/// RAII pin.  Operations on EBR-managed structures run inside one:
///
///     EpochGuard g;                 // pins
///     ... traverse freely ...
///                                   // ~EpochGuard unpins
///
/// Guards nest (a per-thread counter); only the outermost pins/unpins.
class EpochGuard {
  public:
    EpochGuard() { EpochDomain::global().enter(); }
    ~EpochGuard() { EpochDomain::global().exit(); }
    EpochGuard(const EpochGuard&) = delete;
    EpochGuard& operator=(const EpochGuard&) = delete;
};

/// Retire with the default deleter (must be called while pinned, so the
/// node is unreachable to any thread entering afterwards).
template <typename T>
void epoch_retire(T* p) {
    EpochDomain::global().retire(p);
}

}  // namespace tamp
