#include "cpu/mem_port.hh"

namespace mnm
{

MemPort::MemPort(CacheHierarchy &hierarchy, MnmUnit *mnm)
    : hierarchy_(hierarchy), mnm_(mnm),
      fetch_(side(AccessType::InstFetch)), data_(side(AccessType::Load))
{
}

MemPort::Side
MemPort::side(AccessType type) const
{
    Cache &l1 = hierarchy_.cacheAt(1, type);
    return Side{&l1, l1.params().hit_latency,
                mnm_ && mnm_->planGuarded(type)};
}

Cycles
MemPort::walk(AccessType type, Addr addr, bool l1_missed)
{
    BypassMask mask;
    if (mnm_)
        mask = mnm_->computeBypass(type, addr);
    const AccessResult result =
        l1_missed ? hierarchy_.accessBelowL1(type, addr, mask)
                  : hierarchy_.access(type, addr, mask);
    if (!mnm_)
        return result.latency;
    coverage_.record(result);
    return result.latency + mnm_->applyPlacementCosts(result);
}

} // namespace mnm
