#include "util/cpu.hh"

#include <chrono>
#include <thread>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace mnm
{

std::uint64_t
profFastTick()
{
#if defined(__x86_64__) || defined(_M_X64)
    return __rdtsc();
#elif defined(__aarch64__)
    std::uint64_t ticks;
    asm volatile("mrs %0, cntvct_el0" : "=r"(ticks));
    return ticks;
#else
    using namespace std::chrono;
    return static_cast<std::uint64_t>(
        duration_cast<nanoseconds>(steady_clock::now().time_since_epoch())
            .count());
#endif
}

double
profTickHz()
{
    // Calibrated once against steady_clock. 5 ms of sleep bounds the
    // relative error around 1e-3 -- plenty for converting phase shares
    // into human-readable rates; shares themselves never need it.
    static const double hz = [] {
        using namespace std::chrono;
        const auto t0 = steady_clock::now();
        const std::uint64_t c0 = profFastTick();
        std::this_thread::sleep_for(milliseconds(5));
        const auto t1 = steady_clock::now();
        const std::uint64_t c1 = profFastTick();
        const double seconds = duration<double>(t1 - t0).count();
        return seconds > 0.0 && c1 > c0
                   ? static_cast<double>(c1 - c0) / seconds
                   : 1e9;
    }();
    return hz;
}

} // namespace mnm
