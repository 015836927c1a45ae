// tamp/queues/sync_dual_queue.hpp
//
// SynchronousDualQueue (§10.7, Figs. 10.12–10.13): a synchronous,
// *fair* hand-off channel.  enqueue() blocks until a dequeuer takes its
// item; dequeue() blocks until an enqueuer supplies one; waiters of the
// same kind queue up FIFO as explicit *reservation* nodes — the "dual
// data structure" idea (Scherer & Scott) the book adopts for its
// synchronous queue.
//
// The queue at any instant is either all ITEM nodes (surplus producers)
// or all RESERVATION nodes (surplus consumers); an arriving opposite
// party *fulfills* the node at the head instead of enqueueing.
//
// Values travel by pointer so fulfillment is a single CAS on the node's
// item slot: an ITEM node starts holding the producer's value pointer and
// is fulfilled by CASing it to null; a RESERVATION starts null and is
// fulfilled by CASing the value in.  Nodes and values are epoch-retired.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "tamp/core/backoff.hpp"
#include "tamp/core/cacheline.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/sim/atomic.hpp"

namespace tamp {

template <typename T>
class SynchronousDualQueue {
    enum class Kind : std::uint8_t { kItem, kReservation };

    struct Node {
        const Kind kind;  // immutable once constructed
        tamp::atomic<T*> item;
        tamp::atomic<Node*> next{nullptr};
    };

  public:
    using value_type = T;

    SynchronousDualQueue() {
        // Sentinel; its kind is irrelevant while the queue is empty.
        Node* s = new Node{Kind::kItem, nullptr};
        head_.store(s, std::memory_order_relaxed);
        tail_.store(s, std::memory_order_relaxed);
    }

    ~SynchronousDualQueue() {
        Node* n = head_.load(std::memory_order_relaxed);
        while (n != nullptr) {
            Node* next = n->next.load(std::memory_order_relaxed);
            T* item = n->item.load(std::memory_order_relaxed);
            if (item != taken()) delete item;
            delete n;
            n = next;
        }
    }

    SynchronousDualQueue(const SynchronousDualQueue&) = delete;
    SynchronousDualQueue& operator=(const SynchronousDualQueue&) = delete;

    /// Block until a dequeuer accepts `v`.
    void enqueue(const T& v) {
        reclaim::ebr::guard guard;
        T* value = new T(v);
        Node* offer = new Node{Kind::kItem, value};
        SpinWait w;
        while (true) {
            Node* t = tail_.load(std::memory_order_acquire);
            Node* h = head_.load(std::memory_order_acquire);
            if (h == t || t->kind == Kind::kItem) {
                // Queue empty or already holds producers: append our offer
                // and wait for a consumer to take the value.
                Node* n = t->next.load(std::memory_order_acquire);
                if (t != tail_.load(std::memory_order_acquire)) continue;
                if (n != nullptr) {  // lagging tail: help
                    tail_.compare_exchange_weak(t, n,
                                                std::memory_order_release,
                                                std::memory_order_relaxed);
                    continue;
                }
                Node* expected = nullptr;
                if (t->next.compare_exchange_weak(
                        expected, offer, std::memory_order_release,
                        std::memory_order_relaxed)) {
                    // Single-attempt tail swing; a loser (even a spurious
                    // one) leaves repair to whoever next sees the lag.
                    // tamp-lint: allow(cas-strong-loop)
                    tail_.compare_exchange_strong(t, offer,
                                                  std::memory_order_release,
                                                  std::memory_order_relaxed);
                    // Wait until a dequeuer nulls our item slot.
                    while (offer->item.load(std::memory_order_acquire) !=
                           nullptr) {
                        w.spin();
                    }
                    // Fulfilled: lazily advance head past our node.
                    Node* hh = head_.load(std::memory_order_acquire);
                    if (offer == hh->next.load(std::memory_order_acquire)) {
                        // Single attempt: exactly one advancer may retire
                        // hh, and a loser must NOT retry (head may be far
                        // past hh by then).  tamp-lint: allow(cas-strong-loop)
                        if (head_.compare_exchange_strong(
                                hh, offer, std::memory_order_acq_rel,
                                std::memory_order_relaxed)) {
                            reclaim::ebr::retire(hh);
                        }
                    }
                    return;
                }
            } else {
                // Queue holds reservations: fulfill the first one.
                Node* n = h->next.load(std::memory_order_acquire);
                if (t != tail_.load(std::memory_order_acquire) ||
                    h != head_.load(std::memory_order_acquire) ||
                    n == nullptr) {
                    continue;
                }
                T* expected = nullptr;
                // Fulfillment must not fail spuriously: head is advanced
                // past n below regardless, so a false failure here would
                // strand the reservation's waiter forever.
                // tamp-lint: allow(cas-strong-loop)
                const bool success = n->item.compare_exchange_strong(
                    expected, value, std::memory_order_acq_rel,
                    std::memory_order_relaxed);
                // Single-attempt head advance; the loser's node was
                // already passed by the winner.
                // tamp-lint: allow(cas-strong-loop)
                if (head_.compare_exchange_strong(
                        h, n, std::memory_order_acq_rel,
                        std::memory_order_relaxed)) {
                    reclaim::ebr::retire(h);
                }
                if (success) {
                    delete offer;  // never published
                    return;
                }
            }
        }
    }

    /// Block until an enqueuer supplies a value.
    T dequeue() {
        reclaim::ebr::guard guard;
        Node* reservation = new Node{Kind::kReservation, nullptr};
        SpinWait w;
        while (true) {
            Node* t = tail_.load(std::memory_order_acquire);
            Node* h = head_.load(std::memory_order_acquire);
            if (h == t || t->kind == Kind::kReservation) {
                // Queue empty or holds consumers: append our reservation
                // and wait for a producer to fill it.
                Node* n = t->next.load(std::memory_order_acquire);
                if (t != tail_.load(std::memory_order_acquire)) continue;
                if (n != nullptr) {  // lagging tail: help
                    tail_.compare_exchange_weak(t, n,
                                                std::memory_order_release,
                                                std::memory_order_relaxed);
                    continue;
                }
                Node* expected = nullptr;
                if (t->next.compare_exchange_weak(
                        expected, reservation, std::memory_order_release,
                        std::memory_order_relaxed)) {
                    // Single-attempt tail swing, as in enqueue().
                    // tamp-lint: allow(cas-strong-loop)
                    tail_.compare_exchange_strong(t, reservation,
                                                  std::memory_order_release,
                                                  std::memory_order_relaxed);
                    T* got;
                    while ((got = reservation->item.load(
                                std::memory_order_acquire)) == nullptr) {
                        w.spin();
                    }
                    // Detach the value before consuming it: the node stays
                    // in the queue (often as the next sentinel), and the
                    // destructor frees any item still attached — leaving
                    // the pointer in place would be a double free.  Leave
                    // taken(), not nullptr: until head passes the node an
                    // enqueuer may still find it, and a nullptr would let
                    // it fulfil the node again and lose that value.
                    reservation->item.store(taken(),
                                            std::memory_order_release);
                    Node* hh = head_.load(std::memory_order_acquire);
                    if (reservation ==
                        hh->next.load(std::memory_order_acquire)) {
                        // Single attempt, as in enqueue(): only the
                        // winner retires hh.  tamp-lint: allow(cas-strong-loop)
                        if (head_.compare_exchange_strong(
                                hh, reservation, std::memory_order_acq_rel,
                                std::memory_order_relaxed)) {
                            reclaim::ebr::retire(hh);
                        }
                    }
                    T result = std::move(*got);
                    delete got;
                    return result;
                }
            } else {
                // Queue holds items: take the first.
                Node* n = h->next.load(std::memory_order_acquire);
                if (t != tail_.load(std::memory_order_acquire) ||
                    h != head_.load(std::memory_order_acquire) ||
                    n == nullptr) {
                    continue;
                }
                T* value = n->item.load(std::memory_order_acquire);
                // As in enqueue(): a spurious failure would let head pass
                // an untaken item, losing the value and stranding its
                // producer.
                const bool success =
                    value != nullptr &&
                    // tamp-lint: allow(cas-strong-loop)
                    n->item.compare_exchange_strong(
                        value, nullptr, std::memory_order_acq_rel,
                        std::memory_order_relaxed);
                // Single-attempt head advance.
                // tamp-lint: allow(cas-strong-loop)
                if (head_.compare_exchange_strong(
                        h, n, std::memory_order_acq_rel,
                        std::memory_order_relaxed)) {
                    reclaim::ebr::retire(h);
                }
                if (success) {
                    delete reservation;  // never published
                    T result = std::move(*value);
                    delete value;
                    return result;
                }
            }
        }
    }

  private:
    // A reservation's item once its waiter has taken the value: non-null,
    // so no enqueuer can fulfil the node twice, and never dereferenced.
    static T* taken() {
        alignas(T) static char tag;
        return reinterpret_cast<T*>(&tag);
    }

    // Fulfillers hammer head_, appenders tail_: separate their lines.
    alignas(kCacheLineSize) tamp::atomic<Node*> head_;
    alignas(kCacheLineSize) tamp::atomic<Node*> tail_;
};

}  // namespace tamp
