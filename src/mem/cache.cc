#include "mem/cache.hh"

#include <algorithm>
#include <sstream>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace vmsim
{

std::string
CacheParams::toString() const
{
    std::ostringstream oss;
    // Render exactly: sub-1KB and non-multiple sizes in bytes (512B,
    // 1536B), never truncated to "0KB"/"1KB".
    if (sizeBytes >= 1024 * 1024 && sizeBytes % (1024 * 1024) == 0)
        oss << (sizeBytes >> 20) << "MB";
    else if (sizeBytes >= 1024 && sizeBytes % 1024 == 0)
        oss << (sizeBytes >> 10) << "KB";
    else
        oss << sizeBytes << "B";
    oss << "/" << lineSize << "B/";
    if (assoc == 1)
        oss << "direct";
    else
        oss << assoc << "way";
    return oss.str();
}

Cache::Cache(const CacheParams &params, std::uint64_t) : params_(params)
{
    fatalIf(params_.sizeBytes == 0, "cache size must be nonzero");
    fatalIf(!isPowerOf2(params_.sizeBytes),
            "cache size ", params_.sizeBytes, " is not a power of two");
    fatalIf(!isPowerOf2(params_.lineSize) || params_.lineSize < 4,
            "cache line size ", params_.lineSize, " invalid");
    fatalIf(params_.assoc == 0, "associativity must be >= 1");
    fatalIf(params_.sizeBytes % (std::uint64_t{params_.lineSize} *
                                 params_.assoc) != 0,
            "cache size not divisible by line size * associativity");

    std::uint64_t sets = params_.numSets();
    fatalIf(sets == 0 || !isPowerOf2(sets),
            "cache must have a power-of-two number of sets, got ", sets);

    lineBits_ = floorLog2(params_.lineSize);
    tagShift_ = lineBits_ + floorLog2(sets);
    lineMask_ = params_.lineSize - 1;
    setMask_ = sets - 1;
    tags_.assign(sets * params_.assoc, kNoTag);
    if (params_.assoc > 1)
        stamps_.assign(tags_.size(), 0);
}

std::size_t
Cache::find(Addr addr) const
{
    const std::size_t base = setIndex(addr) * params_.assoc;
    const Addr tag = tagOf(addr);
    for (std::size_t w = base; w < base + params_.assoc; ++w)
        if (tags_[w] == tag)
            return w;
    return tags_.size();
}

bool
Cache::accessAssoc(Addr addr)
{
    ++stamp_;
    if (const std::size_t hit = find(addr); hit != tags_.size()) {
        stamps_[hit] = stamp_;
        return true;
    }

    ++misses_;

    // Fill: prefer an invalid way, else replace the least recently used.
    const std::size_t base = setIndex(addr) * params_.assoc;
    std::size_t victim = base;
    for (std::size_t w = base; w < base + params_.assoc; ++w) {
        if (tags_[w] == kNoTag) {
            victim = w;
            break;
        }
        if (stamps_[w] < stamps_[victim])
            victim = w;
    }
    tags_[victim] = tagOf(addr);
    stamps_[victim] = stamp_;
    return false;
}

bool
Cache::probe(Addr addr) const
{
    return find(addr) != tags_.size();
}

void
Cache::invalidate(Addr addr)
{
    if (const std::size_t w = find(addr); w != tags_.size())
        tags_[w] = kNoTag;
}

void
Cache::invalidateAll()
{
    std::fill(tags_.begin(), tags_.end(), kNoTag);
}

double
Cache::missRate() const
{
    return accesses_ ? static_cast<double>(misses_) /
                           static_cast<double>(accesses_)
                     : 0.0;
}

std::uint64_t
Cache::validLines() const
{
    return static_cast<std::uint64_t>(
        std::count_if(tags_.begin(), tags_.end(),
                      [](Addr t) { return t != kNoTag; }));
}

} // namespace vmsim
