// tamp/reclaim/grace.hpp
//
// The grace-period engine under epoch-based reclamation (epoch.hpp) and
// quiescent-state-based reclamation (qsbr.hpp).  perfbook (McKenney)
// presents the two as one mechanism that differs only in how quiescence
// is observed; here they are one class, GraceDomain<Policy>.
//
// Every registered thread's record publishes one word: a value of the
// global counter it has observed, or kIdle (it holds no references).
//
//  * the counter advances once every non-idle record has published its
//    current value (the straggler check);
//  * publish() is a release store plus a compiler barrier; the
//    collector's membarrier (asym_fence.hpp) makes every publication
//    visible before it judges stragglers, and where membarrier is
//    unavailable the store falls back to seq_cst;
//  * retirement is thread-local into three counter-tagged buckets, freed
//    once the counter has advanced two past their tag;
//  * exiting threads unregister and orphan their buckets for later
//    collects to adopt.
//
// The policy is the domain class itself (CRTP).  It supplies its
// telemetry tags (obs/events.hpp), registered_word(counter) — the word a
// new thread starts with — and its read-side verbs, built from publish()
// and a store of kIdle.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "tamp/core/cacheline.hpp"

namespace tamp {

namespace reclaim_detail {

/// A retired node and how to free it: the entry of every retire list,
/// here and in the hazard-pointer domain.
struct RetiredNode {
    void* ptr;
    void (*deleter)(void*);
};

/// Published word of a thread that gates no grace period: unpinned (EBR)
/// or offline (QSBR).
inline constexpr std::uint64_t kIdle = ~std::uint64_t{0};

/// A batch of nodes all retired while the global counter had one value.
struct Bucket {
    std::uint64_t tag = 0;
    std::vector<RetiredNode> nodes;
};

/// Per-thread record.  `seen` is read by every collector; everything else
/// is owner-only except pending_approx (owner-written, summed by
/// pending()).  Construction registers the record with the policy's
/// registered_word(); destruction unregisters it and orphans any
/// un-freed buckets.
template <typename Policy>
struct alignas(kCacheLineSize) Rec {
    std::atomic<std::uint64_t> seen{kIdle};
    std::uint32_t nesting = 0;            // read-side section depth
    std::uint32_t ops_since_quiesce = 0;  // QsbrReadGuard exits
    Bucket buckets[3];
    std::size_t since_collect = 0;
    alignas(kCacheLineSize) std::atomic<std::size_t> pending_approx{0};

    Rec();
    ~Rec();
    Rec(const Rec&) = delete;
    Rec& operator=(const Rec&) = delete;

    std::size_t local_pending() const {
        return buckets[0].nodes.size() + buckets[1].nodes.size() +
               buckets[2].nodes.size();
    }
};

template <typename Policy>
inline Rec<Policy>& rec() {
    thread_local Rec<Policy> r;
    return r;
}

}  // namespace reclaim_detail

template <typename Policy>
class GraceDomain {
  public:
    /// Per-thread retirements between advance/collect attempts.
    static constexpr std::size_t kCollectThreshold = 64;

    /// The process-wide domain (leaked: detached threads may retire late).
    static Policy& global();

    /// Hand `p` to the domain; freed two counter advances later.
    void retire(void* p, void (*deleter)(void*));
    template <typename T>
    void retire(T* p) {
        retire(p, [](void* q) { delete static_cast<T*>(q); });
    }

    /// Try to advance the counter, free the caller's expired buckets and
    /// adopt expired orphans.  Returns the number of nodes freed.
    std::size_t collect();

    /// Free everything freeable, including nodes that deleters retire on
    /// the way (chains).  The caller holds no references: a QSBR caller
    /// online outside a read-side section reports quiescence each round.
    /// Other registered threads must be idle, exited, or publishing.
    void drain();

    std::size_t pending() const;

  protected:
    using Rec = reclaim_detail::Rec<Policy>;

    GraceDomain();

    /// Publish the counter value this thread observes (a pin or a
    /// quiescence report).
    void publish(Rec& rec);

    std::uint64_t counter() const {
        return counter_.load(std::memory_order_acquire);
    }

  private:
    friend Rec;

    alignas(kCacheLineSize) std::atomic<std::uint64_t> counter_{0};

    // Registry of live per-thread records (collectors walk it to find
    // stragglers; pending() sums it) and buckets orphaned by exited
    // threads, adopted by later collects.
    mutable std::mutex mu_;
    std::vector<Rec*> records_;
    std::vector<reclaim_detail::Bucket> orphans_;
    alignas(kCacheLineSize) std::atomic<std::size_t> orphan_count_{0};
};

}  // namespace tamp
