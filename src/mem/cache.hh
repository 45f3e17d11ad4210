/**
 * @file
 * A single cache: the tag-state model of one side (I or D) of one level.
 *
 * The paper simulates split, direct-mapped, virtually-addressed,
 * blocking, write-allocate, write-through caches at both levels. With
 * those choices a cache is completely described by its tag state: every
 * access either hits or fills exactly one line, loads and stores behave
 * identically with respect to tag state (write-allocate), and no dirty
 * state exists (write-through). Set-associativity with LRU replacement
 * is also supported; the paper uses it only as a discussion point
 * ("easily solved with set associativity"), and vmsim exposes it for
 * the associativity ablation bench.
 *
 * Tag state is one array of tags (kNoTag marks an empty way), so a
 * direct-mapped access is one inline load, compare and, on a miss,
 * store. LRU stamps exist only when assoc > 1 (DESIGN.md section 6).
 */

#ifndef VMSIM_MEM_CACHE_HH
#define VMSIM_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"

namespace vmsim
{

/** Geometry of one cache (one side of one level). */
struct CacheParams
{
    /** Capacity in bytes (the paper's "per side" sizes). */
    std::uint64_t sizeBytes = 0;

    /** Line size in bytes; power of two. */
    unsigned lineSize = 32;

    /** Associativity; 1 (direct-mapped) is the paper's configuration.
     *  Associative caches replace the least recently used way. */
    unsigned assoc = 1;

    /** Number of sets implied by the geometry. */
    std::uint64_t numSets() const { return sizeBytes / lineSize / assoc; }

    /** Render as e.g. "64KB/32B/direct". */
    std::string toString() const;

    bool operator==(const CacheParams &) const = default;
};

/**
 * Tag-state cache model. Addresses may be virtual or physical — the
 * cache does not care; in the paper's systems all caches are virtually
 * indexed and tagged, and physically-addressed page-table references
 * are simply presented in a disjoint part of the address space.
 */
class Cache
{
  public:
    /** Tag of an empty way. Lines are at least 4 bytes, so a real
     *  tag is below 2^62 and never equals it. */
    static constexpr Addr kNoTag = ~Addr{0};

    /**
     * @param params geometry (validated: power-of-two sizes, size
     *               divisible by line * assoc)
     * A second argument is accepted and ignored (replacement is
     * deterministic), so older two-argument callers keep building.
     */
    explicit Cache(const CacheParams &params, std::uint64_t = 0);

    // LINT-KERNEL-BEGIN (cache)
    /**
     * Access one line. On a miss the line is filled (write-allocate);
     * the caller attributes cost. @return true on hit.
     */
    bool
    access(Addr addr)
    {
        ++accesses_;
        if (params_.assoc != 1)
            return accessAssoc(addr);
        Addr &slot = tags_[setIndex(addr)];
        const Addr tag = tagOf(addr);
        if (slot == tag)
            return true;
        ++misses_;
        slot = tag;
        return false;
    }
    // LINT-KERNEL-END (cache)

    /** Tag check without state change. @return true if present. */
    bool probe(Addr addr) const;

    /** Invalidate a single line if present. */
    void invalidate(Addr addr);

    /** Invalidate everything (cold cache). */
    void invalidateAll();

    const CacheParams &params() const { return params_; }

    Counter accesses() const { return accesses_; }
    Counter misses() const { return misses_; }
    double missRate() const;

    /** Number of currently valid lines (for occupancy diagnostics). */
    std::uint64_t validLines() const;

    /** Line-aligned base address of the line containing @p addr. */
    Addr lineAddr(Addr addr) const { return addr & ~lineMask_; }

  private:
    /** access() for assoc > 1: LRU over the set's ways. */
    bool accessAssoc(Addr addr);

    /** Index in tags_ of the way holding @p addr's line, else
     *  tags_.size(). */
    std::size_t find(Addr addr) const;

    std::uint64_t setIndex(Addr addr) const
    {
        return (addr >> lineBits_) & setMask_;
    }

    Addr tagOf(Addr addr) const { return addr >> tagShift_; }

    CacheParams params_;
    unsigned lineBits_;
    unsigned tagShift_; ///< lineBits + setBits
    std::uint64_t lineMask_;
    std::uint64_t setMask_;
    std::vector<Addr> tags_; ///< sets * assoc, way-major within a set
    std::vector<std::uint64_t> stamps_; ///< LRU stamps; empty if assoc 1
    std::uint64_t stamp_ = 0;
    Counter accesses_ = 0;
    Counter misses_ = 0;
};

} // namespace vmsim

#endif // VMSIM_MEM_CACHE_HH
