// tamp/kv/split_ordered_map.hpp
//
// SplitOrderedMap — the key→value half of recursive split-ordering
// (Shalev & Shavit; §13.3, Figs. 13.13–13.18), built for the KV service
// on the split-ordered core in tamp/hash/split_ordered.hpp
// (detail::SplitOrderedList, shared with SplitOrderedHashSet), which
// owns the node, the doubling bucket directory, lazy sentinel install,
// find() and the resize policy.  What the map adds over the core:
//
//   * map interface — nodes carry a `tamp::atomic<V>` payload updated
//     in place, so a put on an existing key is one store, not a
//     remove+insert;
//   * linearizable scans — a packed writers/completed gate (see below)
//     turns the classic non-atomic traversal into an atomic snapshot;
//   * attribution counters — kv.cas_retries, kv.resizes,
//     kv.sentinel_installs and kv.scan_retries (set operations count
//     nothing).
//
// Scan gate.  `gate_` packs two fields into one word: the low
// kWriterBits count mutators currently between their decision to
// mutate and the completion of that attempt ("writers in flight"); the
// high bits count completed mutation attempts.  Every linearizing step
// of a mutation — the insert's link CAS, the remove's mark CAS, the
// update's in-place store — is bracketed by gate_enter()/gate_exit().
// A scan loads the gate (s1), re-loads it after one full collect (s2),
// and is atomic iff the writer field was zero at s1 and s1 == s2:
//
//   * a mutator in flight at s1 or s2 makes the writer field non-zero;
//   * a mutator that entered and exited between them bumps the
//     completed field — s1 != s2;
//
// so an s1 == s2 collect overlapped no mutation and is a snapshot at
// s1's position in the seq_cst order.  (A plain double-collect without
// the gate is *not* linearizable: an insert+remove pair landing in the
// already-traversed gap leaves both collects equal yet neither matches
// any single instant.)  Sentinel installs and marked-node snips are
// logical no-ops and skip the gate.  Scans are obstruction-free — they
// starve only while writers keep arriving, and each retry is counted in
// `tamp.kv.scan_retries` so a tail-latency sample can be attributed.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "tamp/core/backoff.hpp"
#include "tamp/core/bits.hpp"
#include "tamp/core/cacheline.hpp"
#include "tamp/hash/split_ordered.hpp"
#include "tamp/lists/keyed.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/obs/events.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/sim/atomic.hpp"
#include "tamp/sim/hooks.hpp"

namespace tamp::kv {

template <std::totally_ordered K, typename V,
          typename KeyOf = DefaultKeyOf<K>,
          reclaim::domain Domain = reclaim::ebr>
class SplitOrderedMap {
    static_assert(std::is_trivially_copyable_v<V>,
                  "values are updated in place through tamp::atomic<V>");

    using List = tamp::detail::SplitOrderedList<K, tamp::atomic<V>, Domain>;
    using Node = typename List::Node;

    // Scan gate field layout (see header comment).
    static constexpr std::uint64_t kWriterBits = 20;
    static constexpr std::uint64_t kWriterMask =
        (std::uint64_t{1} << kWriterBits) - 1;
    static constexpr std::uint64_t kDoneInc = std::uint64_t{1}
                                              << kWriterBits;

  public:
    using key_type = K;
    using mapped_type = V;
    using reclaim_domain = Domain;

    explicit SplitOrderedMap(std::size_t initial_buckets = 16,
                             std::size_t max_load = 4)
        : list_(initial_buckets, max_load, [] {
              obs::counter<obs::ev::kv_sentinel_installs>::inc();
          }) {}

    /// Insert-or-update.  Returns true when k was inserted, false when
    /// an existing entry was updated in place.
    bool put(const K& k, const V& v) {
        typename Domain::guard guard;
        sim::op_scope op("SplitOrderedMap::put");
        const std::uint64_t h = KeyOf{}(k);
        const std::uint64_t so = tamp::detail::split_ordinary_key(h);
        const std::size_t size = list_.buckets();
        Node* sentinel = list_.get_bucket(h % size);
        Node* node = nullptr;
        for (;;) {
            const auto w = list_.find(sentinel, so, k);
            if (w.curr != nullptr && List::matches(w.curr, so, k)) {
                delete node;
                // In-place update: linearizes at the store (or, if a
                // concurrent remove marked the node first, just before
                // that mark — the stored value is then never observable,
                // because every reader re-checks the mark after loading).
                gate_enter();
                w.curr->payload.store(v, std::memory_order_release);
                gate_exit();
                return false;
            }
            if (node == nullptr) node = new Node(so, k, v);
            node->next.store(w.curr, false);
            gate_enter();
            const bool linked =
                w.pred->next.compare_and_set(w.curr, node, false, false);
            gate_exit();
            if (linked) break;
            obs::counter<obs::ev::kv_cas_retries>::inc();
        }
        if (list_.finish_insert(size)) {
            obs::counter<obs::ev::kv_resizes>::inc();
        }
        return true;
    }

    /// Snapshot read; linearizes at the value load (validated by the
    /// mark re-check — marks are monotone) or, for a marked node, at
    /// the mark re-check itself.
    std::optional<V> get(const K& k) {
        typename Domain::guard guard;
        sim::op_scope op("SplitOrderedMap::get");
        const std::uint64_t h = KeyOf{}(k);
        Node* n = List::search(list_.get_bucket(h % list_.buckets()),
                               tamp::detail::split_ordinary_key(h), k);
        if (n == nullptr) return std::nullopt;
        const V v = n->payload.load(std::memory_order_acquire);
        if (n->next.load().marked()) return std::nullopt;
        return v;
    }

    /// Remove.  Linearizes at the mark CAS.
    bool del(const K& k) {
        typename Domain::guard guard;
        sim::op_scope op("SplitOrderedMap::del");
        const std::uint64_t h = KeyOf{}(k);
        const std::uint64_t so = tamp::detail::split_ordinary_key(h);
        Node* sentinel = list_.get_bucket(h % list_.buckets());
        for (;;) {
            const auto w = list_.find(sentinel, so, k);
            if (w.curr == nullptr || !List::matches(w.curr, so, k)) {
                return false;
            }
            Node* succ = w.curr->next.load().ptr();
            gate_enter();
            const bool marked_it = w.curr->next.attempt_mark(succ, true);
            gate_exit();
            if (!marked_it) {
                obs::counter<obs::ev::kv_cas_retries>::inc();
                continue;
            }
            list_.finish_remove(w, succ);
            return true;
        }
    }

    /// Atomic snapshot (see the gate protocol above).  Appends up to
    /// `limit` (key, value) pairs in split order (0 = the whole map)
    /// and returns the count.  A truncated collect is still a snapshot:
    /// the gate pair brackets the traversal, so s1 == s2 with no writer
    /// in flight makes any *prefix* of the list a consistent cut — the
    /// collect stops early instead of gathering everything and
    /// discarding the rest.  Obstruction-free: retries while mutators
    /// are in flight.
    std::size_t scan(std::vector<std::pair<K, V>>& out,
                     std::size_t limit = 0) {
        typename Domain::guard guard;
        sim::op_scope op("SplitOrderedMap::scan");
        Backoff backoff;
        const std::size_t base = out.size();
        for (;;) {
            const std::uint64_t s1 = gate_.load(std::memory_order_seq_cst);
            if ((s1 & kWriterMask) != 0) {
                obs::counter<obs::ev::kv_scan_retries>::inc();
                backoff.backoff();
                continue;
            }
            out.resize(base);
            for (Node* n = list_.head(); n != nullptr;) {
                if (limit != 0 && out.size() - base == limit) break;
                bool marked = false;
                Node* next = n->next.get(&marked);
                if ((n->so_key & 1ull) != 0 && !marked) {
                    out.emplace_back(
                        n->key, n->payload.load(std::memory_order_acquire));
                }
                n = next;
            }
            const std::uint64_t s2 = gate_.load(std::memory_order_seq_cst);
            if (s1 == s2) return out.size() - base;
            obs::counter<obs::ev::kv_scan_retries>::inc();
            backoff.backoff();
        }
    }

    std::size_t size() const { return list_.size(); }
    std::size_t buckets() const { return list_.buckets(); }
    /// Directory slots installed so far (growth leaves nodes in place —
    /// the growth test pins this against buckets()).
    std::size_t segments_installed() const {
        return list_.segments_installed();
    }

  private:
    // ---------------- scan gate -------------------------------------
    void gate_enter() {
        gate_.fetch_add(1, std::memory_order_seq_cst);
    }
    void gate_exit() {
        // -1 writer in flight, +1 completed attempt, in one RMW.
        gate_.fetch_add(kDoneInc - 1, std::memory_order_seq_cst);
    }

    List list_;
    // The gate is the scan/mutator rendezvous: a line of its own, away
    // from the core's read-mostly directory and its size counter.
    alignas(kCacheLineSize) tamp::atomic<std::uint64_t> gate_{0};
};

}  // namespace tamp::kv
