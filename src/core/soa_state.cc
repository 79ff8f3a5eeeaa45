#include "core/soa_state.hh"

#include "cache/cache.hh"

namespace mnm
{

std::uint32_t
soaCompute(const SoaProgram &program, Addr addr)
{
    std::uint32_t mask = 0;
    if (program.perfect) {
        for (const SoaStep &step : program.steps) {
            if (!step.cache->contains(addr >> step.block_bits))
                mask |= step.cache_bit;
        }
        return mask;
    }

    const std::uint32_t rmnm_bits =
        program.rmnm ? program.rmnm->missBits(addr) : 0;
    const SoaOp *ops = program.ops.data();
    for (const SoaStep &step : program.steps) {
        bool miss = step.rmnm_index >= 0 &&
                    ((rmnm_bits >> step.rmnm_index) & 1u);
        if (!miss) {
            BlockAddr block = addr >> step.block_bits;
            const SoaOp *op = ops + step.op_first;
            const SoaOp *end = op + step.op_count;
            for (; op != end; ++op) {
                if (soaOpMiss(*op, block)) {
                    miss = true;
                    break;
                }
            }
        }
        if (miss)
            mask |= step.cache_bit;
    }
    return mask;
}

} // namespace mnm
