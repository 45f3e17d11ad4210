#ifndef VMSIM_BASE_FLAT_HASH_HH
#define VMSIM_BASE_FLAT_HASH_HH

// Open-addressed hash map from uint64_t keys to small trivially-copyable
// payloads, built for the replay hot path (docs: DESIGN.md "Hot-path data
// layout").  Compared to std::unordered_map it removes the per-node
// allocation and pointer chase: each bucket holds its key, value and
// occupancy flag side by side in one power-of-two array, so a lookup is
// a multiply, a shift and a short linear scan over adjacent buckets.
//
// Key properties the simulator relies on:
//  - key 0 is a valid key (occupancy lives in a per-bucket flag, not in
//    a sentinel key value);
//  - erase uses backward-shift deletion: later members of the erased
//    key's cluster move back into the hole, so no tombstone is left and
//    a probe always stops at the first empty bucket;
//  - the load factor stays at or below 1/2, so clusters stay short even
//    under the TLB's erase-then-insert churn on every random
//    replacement;
//  - growth is one doubling rehash.  Amortized O(1) is enough for a
//    batch simulator, which has no per-reference latency bound.
//
// Determinism: bucket placement, and so forEach order, depends on the
// hash and on insertion/erase history.  No simulator counter reads it:
// the only forEach caller (Tlb::auditIndex) is order-independent, and
// no replacement decision looks at the index layout.  Replacing the
// map's internals therefore cannot move a counter.

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "base/intmath.hh"

namespace vmsim {

template <class V>
class FlatMap64 {
  public:
    explicit FlatMap64(std::size_t expected = 0) { reserve(expected); }

    // Pre-size so `expected` live keys fit without triggering a grow.
    void reserve(std::size_t expected) {
        std::size_t want = capacityFor(expected);
        if (want > buckets_.size())
            rehash(want);
    }

    // Returns a pointer to the value for `key`, or nullptr.
    const V *find(uint64_t key) const {
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            const Bucket &b = buckets_[i];
            if (!b.full)
                return nullptr;
            if (b.key == key)
                return &b.value;
        }
    }

    V *find(uint64_t key) {
        return const_cast<V *>(static_cast<const FlatMap64 *>(this)->find(key));
    }

    // Insert a key that is known to be absent.  Every call site in the
    // simulator checks find() first (TLB fill after a miss, first-touch
    // frame allocation), so the map skips the duplicate probe.
    void insertNew(uint64_t key, const V &value) {
        if ((size_ + 1) * 2 > buckets_.size())
            rehash(buckets_.size() * 2);
        place(key, value);
        ++size_;
    }

    // Remove `key` if present; returns true when something was erased.
    bool erase(uint64_t key) {
        std::size_t hole = home(key);
        for (;; hole = (hole + 1) & mask_) {
            if (!buckets_[hole].full)
                return false;
            if (buckets_[hole].key == key)
                break;
        }
        // Walk the rest of the cluster.  An entry at j may fill the hole
        // unless its home lies cyclically in (hole, j]: then the hole
        // is not on its probe path and it must stay where it is.
        for (std::size_t j = (hole + 1) & mask_; buckets_[j].full;
             j = (j + 1) & mask_) {
            std::size_t fromHome = (j - home(buckets_[j].key)) & mask_;
            if (fromHome >= ((j - hole) & mask_)) {
                buckets_[hole] = buckets_[j];
                hole = j;
            }
        }
        buckets_[hole].full = false;
        --size_;
        return true;
    }

    // Drop all entries but keep the current capacity (hot for
    // invalidateAll: the table will refill to roughly the same size).
    void clear() {
        for (Bucket &b : buckets_)
            b.full = false;
        size_ = 0;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return buckets_.size(); }

    // Visit every live entry.  Audit / stats use only; order is
    // unspecified.
    template <class Fn>
    void forEach(Fn &&fn) const {
        for (const Bucket &b : buckets_)
            if (b.full)
                fn(b.key, b.value);
    }

  private:
    struct Bucket {
        uint64_t key = 0;
        V value{};
        bool full = false;
    };

    // Fibonacci hashing: the top bits of key * 2^64/phi.  Every key bit
    // reaches the top bits, so the (asid << 48) | vpn composite keys
    // the TLB feeds us spread as well as consecutive VPNs do.
    std::size_t home(uint64_t key) const {
        return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                        shift_);
    }

    static std::size_t capacityFor(std::size_t live) {
        return std::size_t{1} << ceilLog2(std::max<std::size_t>(16, live * 2));
    }

    void place(uint64_t key, const V &value) {
        std::size_t i = home(key);
        while (buckets_[i].full)
            i = (i + 1) & mask_;
        buckets_[i] = Bucket{key, value, true};
    }

    void rehash(std::size_t cap) {
        std::vector<Bucket> old(cap);
        old.swap(buckets_);
        mask_ = cap - 1;
        shift_ = 64 - floorLog2(cap);
        for (const Bucket &b : old)
            if (b.full)
                place(b.key, b.value);
    }

    std::vector<Bucket> buckets_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace vmsim

#endif // VMSIM_BASE_FLAT_HASH_HH
