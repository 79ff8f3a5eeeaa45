/**
 * @file
 * Structure-of-arrays verdict program: the batched form of the MNM's
 * compiled verdict plan.
 *
 * A per-access walk over the filter objects chases a pointer per
 * filter and re-derives each filter's geometry behind a method call.
 * That indirection dominates the verdict, so at plan-compile time the
 * MnmUnit lowers each access path into a SoaProgram: a flat array of
 * steps (one per level >= 2 cache on the path) over a flat array of
 * ops (one per filter), each op carrying raw pointers to the filter's
 * live counter/state tables plus every constant the probe needs
 * (shifts, masks, SMNM segment LUTs).
 *
 * The tables are BORROWED, never copied: an op's pointer aliases the
 * owning filter's storage, so filter updates and injected faults
 * (core/fault_inject.hh) are visible to the kernels by construction --
 * the coherence soa_state_test proves. The program only ever reads;
 * all mutation stays with the filter objects.
 *
 * soaCompute() evaluates the program for a span of addresses and
 * writes one raw candidate mask per address: bit c set means the plan
 * would verdict "definite miss" for cache id c BEFORE oracle guarding.
 * Guarding, statistics, and energy accounting happen at consumption
 * time in MnmUnit::finishBypass(), which keeps candidates pure data --
 * cacheable and recomputable. This scalar pass is the one production
 * verdict implementation; the virtual MissFilter walk is its reference
 * (MnmUnit::setReferenceDispatch). It stays scalar because every
 * guard-free caller asks for one address at a time, so a pass over
 * groups of addresses would not run where the time goes (DESIGN
 * decision 28).
 */

#ifndef MNM_CORE_SOA_STATE_HH
#define MNM_CORE_SOA_STATE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cmnm.hh"
#include "core/rmnm.hh"
#include "core/smnm.hh"
#include "core/tmnm.hh"
#include "core/verdict_plan.hh"
#include "util/types.hh"

namespace mnm
{

class Cache;

/** One filter's probe, fully unpacked. Which fields are live depends
 *  on kind; the dead ones stay null/zero (the program is a few dozen
 *  entries at most, so the padding is irrelevant). */
struct SoaOp
{
    FilterKind kind = FilterKind::Smnm;

    /** SMNM: per-checker segment LUTs over the live state table. */
    const std::uint32_t *sm_state = nullptr;
    const Smnm::CheckerSegments *sm_segs = nullptr;
    std::uint32_t sm_values_per_checker = 0;
    std::uint32_t sm_replication = 0;

    /** TMNM: the live counter table and its geometry. */
    const std::uint8_t *tm_counters = nullptr;
    std::uint32_t tm_entries = 0;
    std::uint32_t tm_index_bits = 0;
    std::uint32_t tm_replication = 0;

    /** CMNM, Monotone policy: the live register file and counter
     *  table, plus the geometry, so the CAM walk runs inline (the call
     *  and the spec reloads are gone). */
    const Cmnm::VtagRegister *cm_regs = nullptr;
    const std::uint8_t *cm_counters = nullptr;
    std::uint32_t cm_num_regs = 0;
    std::uint32_t cm_index_bits = 0;

    /** CMNM, PaperReset policy (ablation, off the hot path): the
     *  bestMatch walk stays behind missHot. Null under Monotone. */
    const Cmnm *cmnm = nullptr;
};

/** One cache's slice of the program. */
struct SoaStep
{
    std::uint32_t cache_bit = 0; //!< 1u << cache id
    int rmnm_index = -1;
    unsigned block_bits = 0;
    /** Perfect mode: the oracle's contains() target. */
    const Cache *cache = nullptr;
    std::uint32_t op_first = 0;
    std::uint32_t op_count = 0;
};

/** A compiled access path (one per instruction/data plan). */
struct SoaProgram
{
    std::vector<SoaStep> steps;
    std::vector<SoaOp> ops;
    const Rmnm *rmnm = nullptr;
    bool perfect = false;
};

/** Evaluate one op for one block address. Reads only; bit-identical
 *  to the filter's missHot. */
inline bool
soaOpMiss(const SoaOp &op, BlockAddr block)
{
    switch (op.kind) {
      case FilterKind::Smnm:
        for (std::uint32_t c = 0; c < op.sm_replication; ++c) {
            const Smnm::CheckerSegments &cs = op.sm_segs[c];
            std::uint32_t sum = 0;
            for (unsigned s = 0; s < cs.count; ++s) {
                const Smnm::SumSegment &seg = cs.seg[s];
                sum += seg.lut[(block >> seg.shift) & seg.mask];
            }
            if (op.sm_state[static_cast<std::size_t>(c) *
                                op.sm_values_per_checker +
                            sum] == 0) {
                return true;
            }
        }
        return false;
      case FilterKind::Tmnm:
        for (std::uint32_t t = 0; t < op.tm_replication; ++t) {
            std::uint64_t idx = (block >> (6 * t)) &
                                lowMask(op.tm_index_bits);
            if (op.tm_counters[static_cast<std::size_t>(t) *
                                   op.tm_entries +
                               idx] == 0) {
                return true;
            }
        }
        return false;
      case FilterKind::Cmnm: {
        if (op.cmnm)
            return op.cmnm->missHot(block); // PaperReset ablation
        // Monotone walk, same order and arithmetic as Cmnm::missHot:
        // any matching register with a nonzero counter means "maybe".
        const std::uint64_t prefix = block >> op.cm_index_bits;
        const std::uint64_t low = block & lowMask(op.cm_index_bits);
        for (std::uint32_t i = 0; i < op.cm_num_regs; ++i) {
            const Cmnm::VtagRegister &reg = op.cm_regs[i];
            if (!reg.valid ||
                Cmnm::shiftRight(prefix, reg.widen) !=
                    Cmnm::shiftRight(reg.prefix, reg.widen)) {
                continue;
            }
            if (op.cm_counters[(static_cast<std::size_t>(i)
                                << op.cm_index_bits) |
                               low] != 0) {
                return false;
            }
        }
        return true;
      }
    }
    return false;
}

/**
 * Hint every table line the program will read for @p addr. The table
 * INDICES are pure functions of the address (state changes cell
 * values, never cell locations), so the hints can be issued any
 * distance ahead of the verdict -- epoch churn that forces a verdict
 * recompute still reads the same, now-resident lines. The dependent
 * loads here (segment LUTs, the register file) are small and stay
 * cache-hot; the big randomly-indexed state tables are only hinted.
 */
inline void
soaPrefetch(const SoaProgram &program, Addr addr)
{
    if (program.rmnm)
        program.rmnm->prefetch(addr);
    for (const SoaStep &step : program.steps) {
        const BlockAddr block = addr >> step.block_bits;
        const SoaOp *op = program.ops.data() + step.op_first;
        const SoaOp *end = op + step.op_count;
        for (; op != end; ++op) {
            switch (op->kind) {
              case FilterKind::Smnm:
                for (std::uint32_t c = 0; c < op->sm_replication; ++c) {
                    const Smnm::CheckerSegments &cs = op->sm_segs[c];
                    std::uint32_t sum = 0;
                    for (unsigned s = 0; s < cs.count; ++s) {
                        const Smnm::SumSegment &seg = cs.seg[s];
                        sum += seg.lut[(block >> seg.shift) & seg.mask];
                    }
                    __builtin_prefetch(
                        op->sm_state +
                        (static_cast<std::size_t>(c) *
                             op->sm_values_per_checker +
                         sum));
                }
                break;
              case FilterKind::Tmnm:
                for (std::uint32_t t = 0; t < op->tm_replication; ++t) {
                    std::uint64_t idx = (block >> (6 * t)) &
                                        lowMask(op->tm_index_bits);
                    __builtin_prefetch(
                        op->tm_counters +
                        (static_cast<std::size_t>(t) * op->tm_entries +
                         idx));
                }
                break;
              case FilterKind::Cmnm:
                for (std::uint32_t i = 0; i < op->cm_num_regs; ++i) {
                    const Cmnm::VtagRegister &reg = op->cm_regs[i];
                    if (!reg.valid ||
                        Cmnm::shiftRight(block >> op->cm_index_bits,
                                         reg.widen) !=
                            Cmnm::shiftRight(reg.prefix, reg.widen)) {
                        continue;
                    }
                    __builtin_prefetch(
                        op->cm_counters +
                        ((static_cast<std::size_t>(i)
                          << op->cm_index_bits) |
                         (block & lowMask(op->cm_index_bits))));
                }
                break;
            }
        }
    }
}

/** Candidates for @p n addresses into @p cand. */
void soaCompute(const SoaProgram &program, const Addr *addrs,
                std::uint32_t *cand, std::size_t n);

} // namespace mnm

#endif // MNM_CORE_SOA_STATE_HH
