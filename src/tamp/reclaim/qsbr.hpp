// tamp/reclaim/qsbr.hpp
//
// Quiescent-state-based reclamation (QSBR) — the third rung of perfbook's
// deferred-reclamation ladder (McKenney; user-space RCU's fastest flavor).
//
// HP publishes per *pointer*, EBR per *operation*; QSBR publishes per
// *quiescence point* — an application-chosen moment at which the calling
// thread holds no references into any QSBR-managed structure.  Between
// quiescence points the read side is literally nothing: no store, no
// fence, not even a pin.  The cost moves to the contract: every
// registered thread must pass quiescence points regularly, and a thread
// that stops reporting (without going offline()) blocks reclamation
// process-wide — the same stalled-reader hazard as EBR, but wider,
// because it spans operations rather than one.
//
// QsbrDomain is the QSBR policy of the grace-period engine (grace.hpp):
// a quiescence report publishes the interval, offline() stores the idle
// word, and threads register quiescent at the current interval (a new
// thread holds nothing, so it never stalls an older grace period).
//
// QsbrReadGuard is how structures templated on reclaim::domain consume
// this: construction/destruction are thread-local nesting arithmetic, and
// the outermost destructor reports quiescence once every kQuiescePeriod
// operations (a guard boundary is a valid quiescence point by
// construction — the caller's operation has completed).  That keeps
// QSBR-parameterized structures safe by default while preserving the
// amortized near-zero read side; `bench_reclaim` measures the gap.

#pragma once

#include <cstdint>

#include "tamp/obs/events.hpp"
#include "tamp/obs/trace.hpp"
#include "tamp/reclaim/grace.hpp"

namespace tamp {

class QsbrDomain : public GraceDomain<QsbrDomain> {
  public:
    /// Guard exits between automatic quiescence reports (QsbrReadGuard).
    static constexpr std::uint32_t kQuiescePeriod = 64;

    /// Report a quiescence point: the calling thread holds no references
    /// into any QSBR-managed structure at this instant.  Registers the
    /// thread on first call; implies online().
    void quiescent();

    /// Park: the calling thread stops gating grace periods.  Requires the
    /// same no-references contract as quiescent(), held until online().
    void offline();

    /// Resume gating (and count as quiescent at the current interval).
    void online() { quiescent(); }

    std::uint64_t current_interval() const { return counter(); }

    // Engine policy: telemetry, and new threads register quiescent.
    using retired_ev = obs::ev::qsbr_retired;
    using freed_ev = obs::ev::qsbr_freed;
    using collects_ev = obs::ev::qsbr_collects;
    using advances_ev = obs::ev::qsbr_advances;
    using collect_ns_ev = obs::ev::qsbr_collect_ns;
    static constexpr obs::trace_ev kAdvanceTrace = obs::trace_ev::kQsbrAdvance;
    static constexpr std::uint64_t registered_word(std::uint64_t interval) {
        return interval;
    }

  private:
    friend class GraceDomain<QsbrDomain>;
    QsbrDomain() = default;
};

/// RAII read-side section for QSBR-parameterized structures.  The fast
/// path is thread-local arithmetic only — no store, no fence; the
/// outermost destructor reports quiescence every kQuiescePeriod exits
/// (legal there: the caller's operation is complete, so the thread holds
/// no references).  Guards nest; only the outermost counts an exit.
class QsbrReadGuard {
  public:
    QsbrReadGuard() : rec_(&reclaim_detail::rec<QsbrDomain>()) {
        ++rec_->nesting;
    }

    ~QsbrReadGuard() {
        if (--rec_->nesting == 0 &&
            ++rec_->ops_since_quiesce >= QsbrDomain::kQuiescePeriod) {
            rec_->ops_since_quiesce = 0;
            QsbrDomain::global().quiescent();
        }
    }

    QsbrReadGuard(const QsbrReadGuard&) = delete;
    QsbrReadGuard& operator=(const QsbrReadGuard&) = delete;

  private:
    reclaim_detail::Rec<QsbrDomain>* rec_;
};

/// Retire with the default deleter (the node must already be unreachable
/// to threads that quiesce after this call).
template <typename T>
void qsbr_retire(T* p) {
    QsbrDomain::global().retire(p);
}

}  // namespace tamp
