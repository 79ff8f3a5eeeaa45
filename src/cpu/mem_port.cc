#include "cpu/mem_port.hh"

#include "obs/phase_profiler.hh"

namespace mnm
{

MemPort::MemPort(CacheHierarchy &hierarchy, MnmUnit *mnm)
    : hierarchy_(hierarchy), mnm_(mnm),
      fetch_(makeSide(AccessType::InstFetch)),
      data_(makeSide(AccessType::Load)), start_(cacheCounters(hierarchy))
{
}

MemPort::Side
MemPort::makeSide(AccessType type) const
{
    Cache &l1 = hierarchy_.cacheAt(1, type);
    return Side{&l1, l1.params().hit_latency,
                mnm_ && mnm_->planGuarded(type)};
}

template <bool with_prof>
AccessResult
MemPort::walk(AccessType type, Addr addr)
{
    BypassMask mask;
    if (mnm_) {
        ProfScope<with_prof> prof(Phase::Verdict);
        mask = mnm_->computeBypass(type, addr);
    }
    return side(type).guarded ? hierarchy_.access(type, addr, mask)
                              : hierarchy_.accessBelowL1(type, addr, mask);
}

template AccessResult MemPort::walk<false>(AccessType, Addr);
template AccessResult MemPort::walk<true>(AccessType, Addr);

Cycles
MemPort::missLatency(AccessType type, Addr addr)
{
    const AccessResult result = walk(type, addr);
    if (!mnm_)
        return result.latency;
    return result.latency + mnm_->applyPlacementCosts(result);
}

} // namespace mnm
