#include "core/coverage.hh"

#include <numeric>

#include "core/mnm_unit.hh"
#include "util/logging.hh"

namespace mnm
{

void
CoverageTracker::add(std::uint32_t level, std::uint64_t identified,
                     std::uint64_t unidentified)
{
    MNM_ASSERT(level < max_levels, "coverage level out of range");
    if (level >= identified_at_.size()) {
        identified_at_.resize(level + 1);
        unidentified_at_.resize(level + 1);
    }
    identified_at_[level] += identified;
    unidentified_at_[level] += unidentified;
}

std::uint64_t
CoverageTracker::sum(const std::vector<std::uint64_t> &counts)
{
    return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
}

double
CoverageTracker::coverageAt(std::uint32_t level) const
{
    double id = static_cast<double>(identifiedAt(level));
    double un = static_cast<double>(unidentifiedAt(level));
    return ratio(id, id + un);
}

void
CoverageTracker::merge(const CoverageTracker &other)
{
    for (std::uint32_t l = 0; l < other.identified_at_.size(); ++l)
        add(l, other.identified_at_[l], other.unidentified_at_[l]);
}

void
CoverageTracker::reset()
{
    *this = CoverageTracker();
}

std::vector<CacheStats>
cacheCounters(const CacheHierarchy &hierarchy)
{
    std::vector<CacheStats> counters;
    for (CacheId id = 0; id < hierarchy.numCaches(); ++id)
        counters.push_back(hierarchy.cache(id).stats());
    return counters;
}

WindowCounts
countWindow(const CacheHierarchy &hierarchy, const MnmUnit *mnm,
            const std::vector<CacheStats> &start,
            const std::vector<PowerDelay> &power)
{
    MNM_ASSERT(start.size() == hierarchy.numCaches(),
               "counter snapshot of another hierarchy");
    WindowCounts w;
    for (CacheId id = 0; id < hierarchy.numCaches(); ++id) {
        const CacheStats &now = hierarchy.cache(id).stats();
        auto delta = [&](Counter CacheStats::*counter) {
            return (now.*counter).value() - (start[id].*counter).value();
        };
        const std::uint64_t hits = delta(&CacheStats::hits);
        const std::uint64_t misses = delta(&CacheStats::misses);
        if (!power.empty()) {
            const double read = power[id].read_energy_pj;
            const double write = power[id].write_energy_pj;
            const std::uint64_t fills =
                delta(&CacheStats::fills) + delta(&CacheStats::refills);
            const std::uint64_t absorbed =
                delta(&CacheStats::writeback_absorbs);
            const std::uint64_t forwarded =
                delta(&CacheStats::writeback_probes) - absorbed;
            w.energy.probe_hit_pj += static_cast<double>(hits) * read;
            w.energy.probe_miss_pj += static_cast<double>(misses) * read;
            w.energy.fill_pj += static_cast<double>(fills) * write;
            w.energy.writeback_pj += static_cast<double>(absorbed) * write +
                                     static_cast<double>(forwarded) * read;
        }
        const std::uint32_t level = hierarchy.levelOf(id);
        if (!mnm || level < 2)
            continue;
        const std::uint64_t bypasses = delta(&CacheStats::bypasses);
        w.coverage.add(level, bypasses, misses);
        w.decisions.add(level, {bypasses, misses, hits, 0});
    }
    if (mnm) {
        for (std::uint32_t l = 0; l < mnm->violationLevels(); ++l)
            w.decisions.setForbidden(l, mnm->violationsAtLevel(l));
    }
    return w;
}

} // namespace mnm
