// The grace-period engine (grace.hpp), its two instantiations, and the
// policies' read-side verbs — defined here so publish() inlines into the
// per-operation pin and quiescence report.

#include "tamp/reclaim/grace.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "tamp/check/tsan_annotate.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/obs/timer.hpp"
#include "tamp/obs/trace.hpp"
#include "tamp/reclaim/asym_fence.hpp"
#include "tamp/reclaim/epoch.hpp"
#include "tamp/reclaim/qsbr.hpp"

namespace tamp {

using reclaim_detail::Bucket;
using reclaim_detail::kIdle;
using reclaim_detail::RetiredNode;

namespace {

// Free a batch and leave `nodes` empty.  The batch is swapped out first:
// a deleter may itself retire into the bucket being freed (node chains).
std::size_t free_nodes(std::vector<RetiredNode>& nodes) {
    std::vector<RetiredNode> stale;
    stale.swap(nodes);
    for (const RetiredNode& rn : stale) {
        TAMP_TSAN_ACQUIRE(rn.ptr);  // pairs with RELEASE in retire()
        rn.deleter(rn.ptr);
    }
    return stale.size();
}

}  // namespace

namespace reclaim_detail {

template <typename Policy>
Rec<Policy>::Rec() {
    GraceDomain<Policy>& d = Policy::global();
    seen.store(Policy::registered_word(d.counter()),
               std::memory_order_release);
    std::lock_guard<std::mutex> guard(d.mu_);
    d.records_.push_back(this);
}

template <typename Policy>
Rec<Policy>::~Rec() {
    GraceDomain<Policy>& d = Policy::global();
    std::lock_guard<std::mutex> guard(d.mu_);
    d.records_.erase(std::find(d.records_.begin(), d.records_.end(), this));
    for (Bucket& b : buckets) {
        if (b.nodes.empty()) continue;
        d.orphan_count_.fetch_add(b.nodes.size(), std::memory_order_relaxed);
        d.orphans_.push_back(std::move(b));
    }
}

}  // namespace reclaim_detail

template <typename Policy>
GraceDomain<Policy>::GraceDomain() {
    asym::init();
}

template <typename Policy>
Policy& GraceDomain<Policy>::global() {
    // Leaked, as HazardDomain: detached threads may retire (or quiesce)
    // during static destruction.
    static Policy* d = new Policy();
    return *d;
}

template <typename Policy>
inline void GraceDomain<Policy>::publish(Rec& rec) {
    // The word must be globally visible before this thread next reads a
    // shared pointer, or a collector could advance past references it
    // then takes.  Under the asymmetric protocol the collector's
    // membarrier provides that ordering and this is a plain release
    // store; the fallback pays the classic seq_cst publication.
    const std::uint64_t c = counter();
    if (asym::enabled()) {
        rec.seen.store(c, std::memory_order_release);
        asym::light_barrier();
    } else {
        // tamp-lint: allow(seqcst-store-reclaim)
        rec.seen.store(c, std::memory_order_seq_cst);
    }
}

template <typename Policy>
void GraceDomain<Policy>::retire(void* p, void (*deleter)(void*)) {
    Rec& rec = reclaim_detail::rec<Policy>();
    // The retirer's accesses to *p happen-before the eventual free two
    // advances later.  The grace-period argument rides on the
    // publish/advance protocol, which TSan cannot follow onto `p` itself;
    // state the edge explicitly (paired with ACQUIRE before the deleter
    // runs).
    TAMP_TSAN_RELEASE(p);
    const std::uint64_t c = counter();
    Bucket& b = rec.buckets[c % 3];
    if (b.tag != c) {
        // The slot last held tag c-3 (same residue, smaller): its grace
        // period expired long ago, so free in place — this is the
        // amortized reclamation point of the lock-free fast path.
        b.tag = c;
        free_nodes(b.nodes);
    }
    b.nodes.push_back(RetiredNode{p, deleter});
    rec.pending_approx.store(rec.local_pending(), std::memory_order_relaxed);
    obs::counter<typename Policy::retired_ev>::inc();
    if (++rec.since_collect >= kCollectThreshold) {
        rec.since_collect = 0;
        collect();
    }
}

template <typename Policy>
std::size_t GraceDomain<Policy>::collect() {
    obs::scoped_timer<typename Policy::collect_ns_ev> collect_latency;
    obs::counter<typename Policy::collects_ev>::inc();
    Rec& rec = reclaim_detail::rec<Policy>();
    const std::uint64_t c = counter_.load(std::memory_order_seq_cst);
    // Make every thread's published word visible before judging
    // stragglers (membarrier under the asymmetric protocol; the fallback
    // words are seq_cst stores pairing with the seq_cst loads below).
    asym::heavy_barrier();
    // The counter may advance only once every non-idle thread has
    // published it.
    std::uint64_t cur = c;
    bool advance = true;
    {
        std::lock_guard<std::mutex> guard(mu_);
        for (const Rec* r : records_) {
            const std::uint64_t w = r->seen.load(std::memory_order_seq_cst);
            if (w != kIdle && w < c) {
                advance = false;  // straggler: cannot advance
                break;
            }
        }
    }
    if (advance) {
        // Advance c -> c+1 (one winner; losers' work was equivalent).
        std::uint64_t expected = c;
        if (counter_.compare_exchange_strong(expected, c + 1,
                                             std::memory_order_seq_cst)) {
            cur = c + 1;
            obs::counter<typename Policy::advances_ev>::inc();
            obs::trace(Policy::kAdvanceTrace, cur);
        } else {
            cur = expected;  // somebody else advanced; use their value
        }
    }
    // Free every local bucket whose grace period has passed: a node
    // retired at tag t was unreachable before its retire, and any thread
    // that could still hold it published before t, so it blocked the
    // advance past t until it went idle or published again — two
    // advances later nobody can hold it.
    std::size_t freed = 0;
    for (Bucket& b : rec.buckets) {
        if (!b.nodes.empty() && b.tag + 2 <= cur) freed += free_nodes(b.nodes);
    }
    rec.pending_approx.store(rec.local_pending(), std::memory_order_relaxed);
    // Adopt orphaned buckets that are old enough; leave younger ones for
    // a later collect.
    if (orphan_count_.load(std::memory_order_relaxed) != 0) {
        std::vector<Bucket> adopted;
        {
            std::lock_guard<std::mutex> guard(mu_);
            const auto young = std::partition(
                orphans_.begin(), orphans_.end(),
                [cur](const Bucket& b) { return b.tag + 2 <= cur; });
            adopted.assign(std::make_move_iterator(orphans_.begin()),
                           std::make_move_iterator(young));
            orphans_.erase(orphans_.begin(), young);
        }
        for (Bucket& b : adopted) {
            const std::size_t n = free_nodes(b.nodes);
            orphan_count_.fetch_sub(n, std::memory_order_relaxed);
            freed += n;
        }
    }
    obs::counter<typename Policy::freed_ev>::inc(freed);
    return freed;
}

template <typename Policy>
void GraceDomain<Policy>::drain() {
    // A batch expires within two advances and each round advances once,
    // so three rounds in a row that free nothing mean the rest is held
    // by another thread (pinned, unquiesced, or alive with its own
    // buckets).
    Rec& rec = reclaim_detail::rec<Policy>();
    for (int barren = 0; barren < 3 && pending() > 0;) {
        if (rec.nesting == 0 &&
            rec.seen.load(std::memory_order_relaxed) != kIdle) {
            publish(rec);  // never the straggler ourselves
        }
        barren = collect() > 0 ? 0 : barren + 1;
    }
}

template <typename Policy>
std::size_t GraceDomain<Policy>::pending() const {
    std::size_t n = orphan_count_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> guard(mu_);
    for (const Rec* r : records_) {
        n += r->pending_approx.load(std::memory_order_relaxed);
    }
    return n;
}

// ----------------------------------------------------- read-side verbs ---

void EpochDomain::enter() {
    Rec& rec = reclaim_detail::rec<EpochDomain>();
    if (rec.nesting++ > 0) return;  // already pinned by an outer guard
    publish(rec);
}

void EpochDomain::exit() {
    Rec& rec = reclaim_detail::rec<EpochDomain>();
    assert(rec.nesting > 0);
    if (--rec.nesting > 0) return;
    rec.seen.store(kIdle, std::memory_order_release);
}

void QsbrDomain::quiescent() {
    publish(reclaim_detail::rec<QsbrDomain>());
    obs::counter<obs::ev::qsbr_quiescences>::inc();
}

void QsbrDomain::offline() {
    reclaim_detail::rec<QsbrDomain>().seen.store(kIdle,
                                               std::memory_order_release);
}

template struct reclaim_detail::Rec<EpochDomain>;
template struct reclaim_detail::Rec<QsbrDomain>;
template class GraceDomain<EpochDomain>;
template class GraceDomain<QsbrDomain>;

}  // namespace tamp
