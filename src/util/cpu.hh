/**
 * @file
 * Host CPU services: the fast timestamp behind phase attribution.
 */

#ifndef MNM_UTIL_CPU_HH
#define MNM_UTIL_CPU_HH

#include <cstdint>

namespace mnm
{

/**
 * Monotonic fast timestamp for phase attribution (obs/phase_profiler):
 * the TSC on x86-64, CNTVCT_EL0 on AArch64, steady_clock nanoseconds
 * elsewhere. A read is tens of cycles -- cheap enough to bracket
 * sub-microsecond phases -- but the unit is source-dependent; divide by
 * profTickHz() for seconds, or compare ticks against ticks for shares.
 */
std::uint64_t profFastTick();

/** Measured profFastTick rate in ticks per second. Calibrated against
 *  steady_clock on first call (~5 ms, off every hot path -- only the
 *  profiling fold asks). */
double profTickHz();

} // namespace mnm

#endif // MNM_UTIL_CPU_HH
