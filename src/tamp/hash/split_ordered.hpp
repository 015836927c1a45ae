// tamp/hash/split_ordered.hpp
//
// The lock-free hash set with recursive split-ordering (§13.3,
// Figs. 13.13–13.18; Shalev & Shavit).  The key insight: instead of
// moving items between buckets when the table grows, keep *all* items in
// one lock-free list sorted by bit-reversed hash ("split order") and let
// buckets be lazily-installed sentinel nodes that point *into* the list.
// Doubling the table only adds new sentinels — "the list does not move,
// the buckets move onto the list."
//
//   ordinary key(h)  = reverse_bits(h) | 1      (odd — always after its
//                                                bucket's sentinel)
//   sentinel key(b)  = reverse_bits(b)          (even)
//
// When the table doubles from 2^k to 2^(k+1), bucket b's new sibling
// b + 2^k gets a sentinel whose split-order key falls exactly in the
// middle of b's chain — the recursion that gives the scheme its name.
//
// detail::SplitOrderedList is the one copy of that machinery, shared by
// SplitOrderedHashSet (below) and kv::SplitOrderedMap: the node, the
// doubling bucket directory, lazy sentinel install, the Harris–Michael
// find() over packed (split-key, key) pairs, and the resize policy.
// Every shared word goes through `tamp::atomic`, so the model checker
// can explore both containers.  Containers write their own ordinary
// insert/remove loops from find(): the map brackets its linearizing
// steps with a scan gate, and the core knows nothing of it.

#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

#include "tamp/core/bits.hpp"
#include "tamp/core/cacheline.hpp"
#include "tamp/core/marked_ptr.hpp"
#include "tamp/lists/keyed.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/sim/atomic.hpp"

namespace tamp {

namespace detail {

/// A set node carries nothing beyond its key.
struct NoPayload {};

template <std::totally_ordered K, typename Payload, reclaim::domain Domain>
class SplitOrderedList {
    static_assert(!Domain::kProtects,
                  "split-ordered traversals publish no per-pointer "
                  "protection; use a grace-period domain (ebr/qsbr)");

  public:
    struct Node {
        const std::uint64_t so_key;  // split-order key; even = sentinel
        const K key;                 // tie-break for same-hash keys
        [[no_unique_address]] Payload payload;  // the map's value
        AtomicMarkedPtr<Node> next;

        template <typename... Args>
        Node(std::uint64_t so, const K& k, Args&&... args)
            : so_key(so), key(k), payload(std::forward<Args>(args)...) {}
    };

    // Stack-local find() result, never shared between threads.
    struct Window {
        Node* pred;  // tamp-lint: allow(plain-shared-member)
        Node* curr;  // may be null   // tamp-lint: allow(plain-shared-member)
    };

    // Doubling directory: segment 0 holds buckets [0, 16) and each later
    // segment doubles the table, so segment s >= 1 holds buckets
    // [2^(s + 3), 2^(s + 4)).  28 slots reach 2^31 buckets, installed by
    // CAS and never replaced.
    static constexpr std::size_t kSegment0Size = 16;
    static constexpr std::size_t kMaxSegments = 28;
    static constexpr std::size_t kMaxBuckets = kSegment0Size
                                               << (kMaxSegments - 1);

    /// `on_install` (if set) runs once per sentinel published.
    SplitOrderedList(std::size_t initial_buckets, std::size_t max_load,
                     void (*on_install)() = nullptr)
        : max_load_(max_load),
          on_install_(on_install),
          head_(new Node(0, K{})),
          bucket_count_(std::bit_ceil(std::clamp<std::size_t>(
              initial_buckets, 2, kMaxBuckets))) {
        // Bucket 0's sentinel is the recursion's base case — eager.
        bucket_ref(0).store(head_, std::memory_order_release);
    }

    ~SplitOrderedList() {
        for (Node* n = head_; n != nullptr;) {
            Node* next = n->next.load(std::memory_order_relaxed).ptr();
            delete n;
            n = next;
        }
        for (std::size_t s = 0; s < kMaxSegments; ++s) {
            free_segment(segments_[s].load(std::memory_order_relaxed), s);
        }
    }

    SplitOrderedList(const SplitOrderedList&) = delete;
    SplitOrderedList& operator=(const SplitOrderedList&) = delete;

    Node* head() const { return head_; }
    std::size_t size() const {
        return size_.load(std::memory_order_relaxed);
    }
    std::size_t buckets() const {
        return bucket_count_.load(std::memory_order_acquire);
    }
    std::size_t segments_installed() const {
        return std::ranges::count_if(segments_, [](const auto& s) {
            return s.load(std::memory_order_acquire) != nullptr;
        });
    }

    /// Bucket sentinel, installing it (and recursively its parent's) on
    /// first touch — initializeBucket of Fig. 13.16.  The sentinel is
    /// linked into the parent's chain *before* the directory cell is
    /// CAS-published, so any thread that reads a non-null cell sees a
    /// fully linked list entry (tests/sim_test.cpp proves the order;
    /// tests/sim_bugs_test.cpp carries the publish-first twin).
    Node* get_bucket(std::size_t bucket) {
        Cell& ref = bucket_ref(bucket);
        Node* sentinel = ref.load(std::memory_order_acquire);
        if (sentinel != nullptr) return sentinel;

        Node* parent = get_bucket(parent_of(bucket));
        Node* node = list_add_sentinel(parent, split_sentinel_key(bucket));
        // A lost CAS loads the winner's sentinel (the same node, as the
        // sentinel insert is idempotent).
        if (!ref.compare_exchange_strong(sentinel, node,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
            return sentinel;
        }
        if (on_install_ != nullptr) on_install_();
        return node;
    }

    static bool matches(const Node* n, std::uint64_t so, const K& k) {
        return n->so_key == so && ((so & 1ull) == 0 || n->key == k);
    }

    /// find() from `start`, snipping marked nodes (cf. lists/lockfree):
    /// physical cleanup only — the logical removal was the mark CAS.
    Window find(Node* start, std::uint64_t so, const K& k) {
    retry:
        Node* pred = start;
        Node* curr = pred->next.load().ptr();
        while (curr != nullptr) {
            bool marked = false;
            Node* succ = curr->next.get(&marked);
            while (marked) {
                if (!pred->next.compare_and_set(curr, succ, false, false)) {
                    goto retry;
                }
                Domain::retire(curr);
                curr = succ;
                if (curr == nullptr) return {pred, nullptr};
                succ = curr->next.get(&marked);
            }
            if (!precedes(curr, so, k)) return {pred, curr};
            pred = curr;
            curr = succ;
        }
        return {pred, nullptr};
    }

    /// Insert-or-find (so, k) from `start`: the resident node, and
    /// whether this call linked it.  A duplicate makes no store.
    std::pair<Node*, bool> list_add(Node* start, std::uint64_t so,
                                    const K& k) {
        Node* node = nullptr;
        while (true) {
            const Window w = find(start, so, k);
            if (w.curr != nullptr && matches(w.curr, so, k)) {
                delete node;
                return {w.curr, false};
            }
            if (node == nullptr) node = new Node(so, k);
            node->next.store(w.curr, false);
            if (w.pred->next.compare_and_set(w.curr, node, false, false)) {
                return {node, true};
            }
        }
    }

    /// Wait-free traversal from `curr`: the node holding (so, k), which
    /// may be marked, or null.  Marked nodes are skipped, never snipped.
    static Node* search(Node* curr, std::uint64_t so, const K& k) {
        while (curr != nullptr && precedes(curr, so, k)) {
            curr = curr->next.load().ptr();
        }
        return curr != nullptr && matches(curr, so, k) ? curr : nullptr;
    }

    /// Account a node linked under a table of `size` buckets; double the
    /// table when the average chain exceeds max_load.  Runs at most once
    /// per insert.  True iff this call doubled the table.
    bool finish_insert(std::size_t size) {
        const std::size_t count =
            size_.fetch_add(1, std::memory_order_relaxed) + 1;
        std::size_t expected = size;
        return count / size > max_load_ && size * 2 <= kMaxBuckets &&
               bucket_count_.compare_exchange_strong(
                   expected, size * 2, std::memory_order_acq_rel,
                   std::memory_order_relaxed);
    }

    /// Finish a remove whose mark CAS on w.curr (successor `succ`) won.
    /// The physical snip is best-effort; find() finishes it otherwise.
    void finish_remove(const Window& w, Node* succ) {
        if (w.pred->next.compare_and_set(w.curr, succ, false, false)) {
            Domain::retire(w.curr);
        }
        size_.fetch_sub(1, std::memory_order_relaxed);
    }

  private:
    using Cell = tamp::atomic<Node*>;
    // Segments start on their own cache line, so a small one never
    // shares a line with nodes that writers CAS.
    static constexpr std::align_val_t kSegmentAlign{kCacheLineSize};

    static bool precedes(const Node* n, std::uint64_t so, const K& k) {
        if (n->so_key != so) return n->so_key < so;
        return (so & 1ull) != 0 && n->key < k;  // sentinels unique per key
    }

    /// Parent bucket: clear the most significant set bit (Fig. 13.17).
    static std::size_t parent_of(std::size_t bucket) {
        assert(bucket > 0);
        return bucket ^ std::bit_floor(bucket);
    }

    static std::size_t segment_of(std::size_t bucket) {
        return std::bit_width(bucket / kSegment0Size);
    }
    // A power of two, so a bucket's cell is its low bits.
    static std::size_t segment_size(std::size_t seg) {
        return seg == 0 ? kSegment0Size : kSegment0Size << (seg - 1);
    }
    static void free_segment(Cell* cells, std::size_t seg) {
        if (cells == nullptr) return;
        std::destroy_n(cells, segment_size(seg));
        ::operator delete(cells, kSegmentAlign);
    }

    Cell& bucket_ref(std::size_t bucket) {
        const std::size_t seg = segment_of(bucket);
        assert(seg < kMaxSegments);
        Cell* segment = segments_[seg].load(std::memory_order_acquire);
        if (segment == nullptr) {
            const std::size_t len = segment_size(seg);
            auto* fresh = static_cast<Cell*>(
                ::operator new(len * sizeof(Cell), kSegmentAlign));
            std::uninitialized_value_construct_n(fresh, len);
            // A lost CAS loads the winner's segment into `segment`.
            if (segments_[seg].compare_exchange_strong(
                    segment, fresh, std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                segment = fresh;
            } else {
                free_segment(fresh, seg);
            }
        }
        return segment[bucket & (segment_size(seg) - 1)];
    }

    /// Insert-or-find a sentinel; returns the resident node.
    Node* list_add_sentinel(Node* start, std::uint64_t so) {
        return list_add(start, so, K{}).first;
    }

    const std::size_t max_load_;
    void (*const on_install_)();
    Node* const head_;  // bucket 0's sentinel (so_key == 0)
    // Read by every operation, written only by doublings and segment
    // installs; the size counter, bumped by every insert and remove,
    // gets a line of its own.
    tamp::atomic<std::size_t> bucket_count_;
    tamp::atomic<Cell*> segments_[kMaxSegments]{};
    alignas(kCacheLineSize) tamp::atomic<std::size_t> size_{0};
};

}  // namespace detail

template <std::totally_ordered T, typename KeyOf = DefaultKeyOf<T>,
          reclaim::domain Domain = reclaim::ebr>
class SplitOrderedHashSet {
    using List = detail::SplitOrderedList<T, detail::NoPayload, Domain>;

  public:
    using value_type = T;

    explicit SplitOrderedHashSet(std::size_t initial_buckets = 2,
                                 std::size_t max_load = 4)
        : list_(initial_buckets, max_load) {}

    bool add(const T& v) {
        typename Domain::guard guard;
        const std::uint64_t h = KeyOf{}(v);
        const std::uint64_t so = detail::split_ordinary_key(h);
        const std::size_t size = list_.buckets();
        if (!list_.list_add(list_.get_bucket(h % size), so, v).second) {
            return false;
        }
        list_.finish_insert(size);
        return true;
    }

    bool remove(const T& v) {
        typename Domain::guard guard;
        const std::uint64_t h = KeyOf{}(v);
        const std::uint64_t so = detail::split_ordinary_key(h);
        auto* sentinel = list_.get_bucket(h % list_.buckets());
        while (true) {
            const auto w = list_.find(sentinel, so, v);
            if (w.curr == nullptr || !List::matches(w.curr, so, v)) {
                return false;
            }
            auto* succ = w.curr->next.load().ptr();
            if (!w.curr->next.attempt_mark(succ, true)) continue;
            list_.finish_remove(w, succ);
            return true;
        }
    }

    bool contains(const T& v) {
        typename Domain::guard guard;
        const std::uint64_t h = KeyOf{}(v);
        const auto* n = List::search(list_.get_bucket(h % list_.buckets()),
                                     detail::split_ordinary_key(h), v);
        return n != nullptr && !n->next.load().marked();
    }

    std::size_t size() const { return list_.size(); }
    std::size_t buckets() const { return list_.buckets(); }

  private:
    List list_;
};

}  // namespace tamp
