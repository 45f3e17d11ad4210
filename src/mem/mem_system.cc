#include "mem/mem_system.hh"

#include "base/logging.hh"

namespace vmsim
{

MemSystem::MemSystem(const CacheParams &l1, const CacheParams &l2,
                     bool unified_l2)
    : l1i_(l1), l1d_(l1),
      l2i_({unified_l2 ? 2 * l2.sizeBytes : l2.sizeBytes, l2.lineSize,
            l2.assoc}),
      l2dOwn_(l2),
      l2dPtr_(unified_l2 ? &l2i_ : &l2dOwn_)
{
    fatalIf(l2.sizeBytes < l1.sizeBytes,
            "L2 (", l2.sizeBytes, "B) smaller than L1 (", l1.sizeBytes,
            "B)");
    fatalIf(l2.lineSize < l1.lineSize,
            "L2 line (", l2.lineSize, "B) smaller than L1 line (",
            l1.lineSize, "B)");
}

MemLevel
MemSystem::dataAccessLines(Addr first, Addr last, ClassCounters &ctrs)
{
    const unsigned line = l1d_.params().lineSize;
    MemLevel worst = MemLevel::L1;
    for (Addr a = l1d_.lineAddr(first); a <= last; a += line) {
        const MemLevel lvl = accessLine(l1d_, *l2dPtr_, a, ctrs);
        if (lvl > worst)
            worst = lvl;
    }
    return worst;
}

void
MemSystem::invalidateAll()
{
    l1i_.invalidateAll();
    l1d_.invalidateAll();
    l2i_.invalidateAll();
    l2dOwn_.invalidateAll();
}

} // namespace vmsim
