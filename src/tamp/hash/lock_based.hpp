// tamp/hash/lock_based.hpp
//
// The Chapter 13 lock-based closed-address hash sets (§13.1–§13.2,
// Figs. 13.1–13.11):
//
//  * CoarseHashSet   — one lock, resizable table: the baseline;
//  * StripedHashSet  — a *fixed* array of L locks striped over a growing
//    table (lock i covers buckets ≡ i mod L); resizes take every stripe;
//  * RefinableHashSet — the lock array grows with the table, using an
//    owner field (thread id + mark in one CAS word) to quiesce concurrent
//    acquirers during the swap.
//
// All three share the BaseHashSet shape: per-bucket chains, a policy
// (average bucket length > 4 triggers doubling), and acquire/release
// specialization — exactly the template-method structure of Fig. 13.1.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "tamp/core/backoff.hpp"
#include "tamp/core/cacheline.hpp"
#include "tamp/core/thread_registry.hpp"
#include "tamp/lists/keyed.hpp"
#include "tamp/sim/atomic.hpp"
#include "tamp/spin/tas.hpp"

namespace tamp {

namespace detail {

/// Shared chain-table machinery (the book's BaseHashSet fields).
///
/// `bucket_count` mirrors table.size() atomically: the resize policy is
/// checked *outside* the bucket locks (as in the book), and reading the
/// vector's own size field while a resize moves the vector would be a
/// data race in C++ (the book's Java reads array.length benignly).
template <typename T, typename KeyOf>
struct HashTableCore {
    std::vector<std::vector<T>> table;
    // set_size is written by every add/remove; bucket_count only at
    // resize but read on every policy check — separate their lines.
    alignas(kCacheLineSize) tamp::atomic<std::size_t> set_size{0};
    alignas(kCacheLineSize) tamp::atomic<std::size_t> bucket_count;

    explicit HashTableCore(std::size_t capacity)
        : table(capacity), bucket_count(capacity) {}

    static std::uint64_t key_of(const T& v) { return KeyOf{}(v); }

    std::size_t bucket_of(const T& v) const {
        return key_of(v) % table.size();
    }

    bool chain_contains(const std::vector<T>& chain, const T& v) {
        for (const T& x : chain) {
            if (x == v) return true;
        }
        return false;
    }

    bool chain_remove(std::vector<T>& chain, const T& v) {
        for (std::size_t i = 0; i < chain.size(); ++i) {
            if (chain[i] == v) {
                chain[i] = std::move(chain.back());
                chain.pop_back();
                return true;
            }
        }
        return false;
    }

    /// Policy (Fig. 13.1): resize when the average chain passes 4.
    /// Safe to call without any bucket lock (reads only atomics).
    bool policy() const {
        return set_size.load(std::memory_order_relaxed) /
                   bucket_count.load(std::memory_order_acquire) >
               4;
    }

    /// Caller must hold whatever quiesces the whole table.
    void redistribute(std::size_t new_capacity) {
        std::vector<std::vector<T>> old = std::move(table);
        table.assign(new_capacity, {});
        for (auto& chain : old) {
            for (T& v : chain) {
                table[key_of(v) % new_capacity].push_back(std::move(v));
            }
        }
        bucket_count.store(new_capacity, std::memory_order_release);
    }
};

}  // namespace detail

// --------------------------------------------------------------------------
template <typename T, typename KeyOf = DefaultKeyOf<T>>
class CoarseHashSet {
  public:
    using value_type = T;

    explicit CoarseHashSet(std::size_t capacity = 16) : core_(capacity) {}

    bool add(const T& v) {
        std::lock_guard<std::mutex> g(mu_);
        auto& chain = core_.table[core_.bucket_of(v)];
        if (core_.chain_contains(chain, v)) return false;
        chain.push_back(v);
        core_.set_size.fetch_add(1, std::memory_order_relaxed);
        if (core_.policy()) core_.redistribute(core_.table.size() * 2);
        return true;
    }

    bool remove(const T& v) {
        std::lock_guard<std::mutex> g(mu_);
        auto& chain = core_.table[core_.bucket_of(v)];
        if (!core_.chain_remove(chain, v)) return false;
        core_.set_size.fetch_sub(1, std::memory_order_relaxed);
        return true;
    }

    bool contains(const T& v) {
        std::lock_guard<std::mutex> g(mu_);
        return core_.chain_contains(core_.table[core_.bucket_of(v)], v);
    }

    std::size_t size() const {
        return core_.set_size.load(std::memory_order_relaxed);
    }
    std::size_t buckets() const {
        std::lock_guard<std::mutex> g(mu_);
        return core_.table.size();
    }

  private:
    mutable std::mutex mu_;
    detail::HashTableCore<T, KeyOf> core_;
};

// --------------------------------------------------------------------------
template <typename T, typename KeyOf = DefaultKeyOf<T>>
class StripedHashSet {
  public:
    using value_type = T;

    explicit StripedHashSet(std::size_t capacity = 16)
        : core_(capacity), locks_(capacity) {}

    bool add(const T& v) {
        bool added = false;
        {
            StripeGuard g(*this, v);
            auto& chain = core_.table[core_.bucket_of(v)];
            if (!core_.chain_contains(chain, v)) {
                chain.push_back(v);
                core_.set_size.fetch_add(1, std::memory_order_relaxed);
                added = true;
            }
        }
        if (added && core_.policy()) resize();
        return added;
    }

    bool remove(const T& v) {
        StripeGuard g(*this, v);
        if (!core_.chain_remove(core_.table[core_.bucket_of(v)], v)) {
            return false;
        }
        core_.set_size.fetch_sub(1, std::memory_order_relaxed);
        return true;
    }

    bool contains(const T& v) {
        StripeGuard g(*this, v);
        return core_.chain_contains(core_.table[core_.bucket_of(v)], v);
    }

    std::size_t size() const {
        return core_.set_size.load(std::memory_order_relaxed);
    }
    std::size_t buckets() const {
        return core_.bucket_count.load(std::memory_order_acquire);
    }

  private:
    struct StripeCell {
        std::mutex mu;
    };

    // The stripe for value v never changes (lock count is fixed), so a
    // stripe held across a resize still covers v's bucket afterwards.
    class StripeGuard {
      public:
        StripeGuard(StripedHashSet& s, const T& v)
            : mu_(s.locks_[detail::HashTableCore<T, KeyOf>::key_of(v) %
                           s.locks_.size()]
                      .value.mu) {
            mu_.lock();
        }
        ~StripeGuard() { mu_.unlock(); }
        StripeGuard(const StripeGuard&) = delete;
        StripeGuard& operator=(const StripeGuard&) = delete;

      private:
        std::mutex& mu_;
    };
    friend class StripeGuard;

    /// Resize = quiesce the world: take every stripe in index order (the
    /// fixed order rules out deadlock), re-check the trigger, redistribute.
    void resize() {
        const std::size_t old_capacity =
            core_.bucket_count.load(std::memory_order_acquire);
        for (auto& l : locks_) l.value.mu.lock();
        if (core_.table.size() == old_capacity && core_.policy()) {
            core_.redistribute(old_capacity * 2);
        }
        for (auto& l : locks_) l.value.mu.unlock();
    }

    detail::HashTableCore<T, KeyOf> core_;
    std::vector<Padded<StripeCell>> locks_;
};

// --------------------------------------------------------------------------
template <typename T, typename KeyOf = DefaultKeyOf<T>>
class RefinableHashSet {
  public:
    using value_type = T;

    explicit RefinableHashSet(std::size_t capacity = 16)
        : core_(capacity),
          locks_(new LockArray(capacity)) {}

    ~RefinableHashSet() {
        delete locks_.load(std::memory_order_relaxed);
        for (LockArray* a : old_lock_arrays_) delete a;
    }

    bool add(const T& v) {
        bool added = false;
        {
            Acquired a = acquire(v);
            auto& chain = core_.table[core_.bucket_of(v)];
            if (!core_.chain_contains(chain, v)) {
                chain.push_back(v);
                core_.set_size.fetch_add(1, std::memory_order_relaxed);
                added = true;
            }
            release(a);
        }
        if (added && core_.policy()) resize();
        return added;
    }

    bool remove(const T& v) {
        Acquired a = acquire(v);
        const bool removed =
            core_.chain_remove(core_.table[core_.bucket_of(v)], v);
        if (removed) core_.set_size.fetch_sub(1, std::memory_order_relaxed);
        release(a);
        return removed;
    }

    bool contains(const T& v) {
        Acquired a = acquire(v);
        const bool found =
            core_.chain_contains(core_.table[core_.bucket_of(v)], v);
        release(a);
        return found;
    }

    std::size_t size() const {
        return core_.set_size.load(std::memory_order_relaxed);
    }
    std::size_t buckets() const {
        return core_.bucket_count.load(std::memory_order_acquire);
    }
    std::size_t lock_count() const {
        return locks_.load(std::memory_order_acquire)->cells.size();
    }

  private:
    struct LockArray {
        std::vector<Padded<TTASLock>> cells;
        explicit LockArray(std::size_t n) : cells(n) {}
    };

    struct Acquired {
        LockArray* const array;
        const std::size_t index;
    };

    // `owner_` packs (thread id + 1) << 1 | mark.  mark set = a resize is
    // in progress and other threads must not acquire new bucket locks —
    // the book's AtomicMarkableReference<Thread>.
    static constexpr std::uintptr_t kMark = 1;

    Acquired acquire(const T& v) {
        const std::uintptr_t me =
            (static_cast<std::uintptr_t>(thread_id()) + 1) << 1;
        SpinWait w;
        while (true) {
            // Wait out any resize someone else owns.
            std::uintptr_t who;
            while (((who = owner_.load(std::memory_order_acquire)) &
                    kMark) != 0 &&
                   (who & ~kMark) != me) {
                w.spin();
            }
            LockArray* array = locks_.load(std::memory_order_acquire);
            TTASLock& lock =
                array->cells[detail::HashTableCore<T, KeyOf>::key_of(v) %
                             array->cells.size()]
                    .value;
            lock.lock();
            who = owner_.load(std::memory_order_acquire);
            if (((who & kMark) == 0 || (who & ~kMark) == me) &&
                locks_.load(std::memory_order_acquire) == array) {
                return {array,
                        detail::HashTableCore<T, KeyOf>::key_of(v) %
                            array->cells.size()};
            }
            lock.unlock();  // a resize intervened: retry against new state
        }
    }

    void release(const Acquired& a) { a.array->cells[a.index].value.unlock(); }

    void resize() {
        const std::size_t old_capacity =
            core_.bucket_count.load(std::memory_order_acquire);
        const std::uintptr_t me =
            (static_cast<std::uintptr_t>(thread_id()) + 1) << 1;
        std::uintptr_t expected = 0;
        // Claim resize ownership; a loser simply returns (the winner will
        // do the work, and the trigger re-fires if still needed).
        if (!owner_.compare_exchange_strong(expected, me | kMark,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
            return;
        }
        if (core_.table.size() == old_capacity && core_.policy()) {
            quiesce();
            const std::size_t new_capacity = old_capacity * 2;
            core_.redistribute(new_capacity);
            LockArray* fresh = new LockArray(new_capacity);
            LockArray* stale =
                locks_.exchange(fresh, std::memory_order_acq_rel);
            // Stale arrays stay alive: a concurrent acquire() may have
            // loaded the pointer just before the swap and still locks/
            // unlocks through it (then detects the swap and retries).
            old_lock_arrays_.push_back(stale);
        }
        owner_.store(0, std::memory_order_release);
    }

    /// Wait until no bucket lock is held (new acquires are barred by the
    /// owner mark, so this terminates).
    void quiesce() {
        LockArray* array = locks_.load(std::memory_order_acquire);
        for (auto& cell : array->cells) {
            SpinWait w;
            while (cell.value.is_locked()) w.spin();
        }
    }

    detail::HashTableCore<T, KeyOf> core_;
    // Every operation acquires through locks_ while resizers CAS owner_.
    alignas(kCacheLineSize) tamp::atomic<LockArray*> locks_;
    alignas(kCacheLineSize) tamp::atomic<std::uintptr_t> owner_{0};
    std::vector<LockArray*> old_lock_arrays_;  // mutated only by resize owner
};

}  // namespace tamp
