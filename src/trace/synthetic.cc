#include "trace/synthetic.hh"

#include <algorithm>

#include "util/bits.hh"
#include "util/logging.hh"

namespace mnm
{

namespace
{

/** Data regions are laid out from here, 64MB apart. */
constexpr Addr data_base = 0x40000000ull;
constexpr Addr region_spacing = 64ull * 1024 * 1024;

/** The table Rng::nextGeometric(@p mean) would use; null for a mean
 *  <= 0, which draws nothing. */
const GeometricTable *
geometricTable(double mean)
{
    return mean <= 0.0 ? nullptr : GeometricTable::forMean(mean);
}

/** Rng::nextGeometric() against a table bound by geometricTable(). */
std::uint64_t
geometric(Rng &rng, const GeometricTable *table)
{
    return table ? table->sample(rng.next() >> 11) : 0;
}

} // anonymous namespace

SyntheticWorkload::SyntheticWorkload(const SyntheticParams &params)
    : params_(params), rng_(params.seed)
{
    if (params_.regions.empty())
        fatal("synthetic workload '%s' has no data regions",
              params_.name.c_str());
    if (params_.load_frac + params_.store_frac + params_.branch_frac > 1.0)
        fatal("synthetic workload '%s': instruction mix exceeds 1",
              params_.name.c_str());
    for (const RegionParams &r : params_.regions) {
        if (r.footprint_bytes < 64)
            fatal("region footprint below 64 bytes");
        if (r.stride == 0)
            fatal("region with zero stride");
        total_weight_ += r.weight;

        RegionFast rf;
        rf.footprint = FastMod(r.footprint_bytes);
        rf.hot_bytes = std::max<std::uint64_t>(
            64, static_cast<std::uint64_t>(
                    r.hot_fraction *
                    static_cast<double>(r.footprint_bytes)));
        rf.hot = FastMod(rf.hot_bytes);
        rf.hot_thr = Rng::boolThreshold(r.hot_probability);
        rf.wrap_by_subtract = r.stride <= r.footprint_bytes;
        region_fast_.push_back(rf);
    }
    temporal_thr_ = Rng::boolThreshold(params_.temporal_reuse);
    dep_table_ = geometricTable(params_.dep_dist_mean);
    body_table_ = geometricTable(
        static_cast<double>(params_.loop_body_bytes_mean) / 16.0);
    iters_table_ = geometricTable(params_.loop_iterations_mean);
    for (const RegionParams &r : params_.regions)
        dwell_tables_.push_back(geometricTable(r.dwell));
    if (total_weight_ <= 0.0)
        fatal("synthetic workload '%s': zero total region weight",
              params_.name.c_str());
    reset();
}

void
SyntheticWorkload::reset()
{
    rng_ = Rng(params_.seed);
    regions_.clear();
    regions_.resize(params_.regions.size());
    for (std::size_t i = 0; i < regions_.size(); ++i) {
        regions_[i].base = data_base + region_spacing * i;
        regions_[i].cursor = 0;
        regions_[i].chase = 1 + i;
    }
    active_region_ = 0;
    dwell_left_ = 0;
    recent_count_ = 0;
    recent_pos_ = 0;
    pc_ = code_base_;
    loop_start_ = code_base_;
    loop_bytes_ = 0;
    loop_iters_left_ = 0;
    startLoop(rng_);
}

void
SyntheticWorkload::startLoop(Rng &rng)
{
    // Pick a loop body somewhere in the text and a repeat count. Loop
    // bodies are 16-byte aligned; sizes are geometric around the mean.
    std::uint64_t body = 16 + 16 * geometric(rng, body_table_);
    if (body > params_.code_footprint_bytes)
        body = params_.code_footprint_bytes;
    std::uint64_t span = params_.code_footprint_bytes - body;
    Addr start =
        code_base_ + (span ? (rng.nextBelow(span) & ~15ull) : 0);
    loop_start_ = start;
    loop_bytes_ = body;
    loop_iters_left_ = 1 + geometric(rng, iters_table_);
    pc_ = loop_start_;
}

Addr
SyntheticWorkload::dataAddress(Rng &rng)
{
    // Short-range temporal reuse first: re-touch a recent address.
    // Once the ring is full the bound is the power-of-two depth and
    // the modulo reduces to a mask (same value, no divide).
    if (recent_count_ > 0 && rng.nextBoolFast(temporal_thr_)) {
        static_assert(isPowerOf2(reuse_depth));
        if (recent_count_ >= reuse_depth)
            return recent_[rng.next() & (reuse_depth - 1)];
        return recent_[rng.nextBelow(recent_count_)];
    }
    if (dwell_left_ == 0) {
        double draw = rng.nextDouble() * total_weight_;
        active_region_ = params_.regions.size() - 1;
        for (std::size_t i = 0; i < params_.regions.size(); ++i) {
            if (draw < params_.regions[i].weight) {
                active_region_ = i;
                break;
            }
            draw -= params_.regions[i].weight;
        }
        dwell_left_ = 1 + geometric(rng, dwell_tables_[active_region_]);
    }
    --dwell_left_;

    const RegionParams &rp = params_.regions[active_region_];
    const RegionFast &rf = region_fast_[active_region_];
    RegionState &rs = regions_[active_region_];
    std::uint64_t offset = 0;
    switch (rp.pattern) {
      case RegionPattern::Sequential:
        offset = rs.cursor;
        rs.cursor += rp.stride;
        if (rf.wrap_by_subtract) {
            if (rs.cursor >= rp.footprint_bytes)
                rs.cursor -= rp.footprint_bytes;
        } else {
            rs.cursor = rf.footprint.mod(rs.cursor);
        }
        break;
      case RegionPattern::RandomUniform:
        offset = rf.footprint.mod(rng.next()) & ~std::uint64_t{7};
        break;
      case RegionPattern::PointerChase: {
        // A full-period LCG walk over the region's cache-block grid:
        // serially dependent and locality-free, like chasing a shuffled
        // linked list. (a = 8*k+5, c odd gives full period mod 2^n.)
        std::uint64_t cells = rp.footprint_bytes / rp.stride;
        std::uint64_t n = std::uint64_t{1} << floorLog2(cells | 1);
        rs.chase = (rs.chase * 1664525 + 1013904223) & (n - 1);
        offset = rs.chase * rp.stride;
        break;
      }
      case RegionPattern::HotCold: {
        if (rng.nextBoolFast(rf.hot_thr)) {
            offset = rf.hot.mod(rng.next()) & ~std::uint64_t{7};
        } else {
            offset = rf.footprint.mod(rng.next()) & ~std::uint64_t{7};
        }
        break;
      }
    }
    Addr addr = rs.base + offset;
    recent_[recent_pos_] = addr;
    recent_pos_ = (recent_pos_ + 1) % reuse_depth;
    if (recent_count_ < reuse_depth)
        ++recent_count_;
    return addr;
}

template <bool deps_used, typename Sink>
void
SyntheticWorkload::generateLoop(Rng &rng, std::size_t n, Sink &&sink)
{
    // Class-select thresholds: the cutoff doubles are computed with
    // exactly the additions the original per-instruction comparisons
    // performed, then folded to integer thresholds over the raw 53-bit
    // uniform (Rng::boolThreshold) so the loop below runs no
    // int-to-double conversions. Same draws, same outcomes.
    const std::uint64_t load_t = Rng::boolThreshold(params_.load_frac);
    const std::uint64_t store_t =
        Rng::boolThreshold(params_.load_frac + params_.store_frac);
    const std::uint64_t branch_t = Rng::boolThreshold(
        params_.load_frac + params_.store_frac + params_.branch_frac);
    const std::uint64_t fp_t = Rng::boolThreshold(params_.fp_frac);
    const std::uint64_t mispredict_t =
        Rng::boolThreshold(params_.mispredict_rate);
    const std::uint64_t half_t = Rng::boolThreshold(0.5);
    // A local copy, so the sink's byte-sized stores cannot force a
    // reload of the member.
    const GeometricTable *dep_table = dep_table_;

    // The pc walk advances every instruction; keep it in locals and
    // resync around the (rare) startLoop draw.
    Addr pc = pc_;
    Addr loop_end = loop_start_ + loop_bytes_;

    for (std::size_t i = 0; i < n; ++i) {
        pc += 4;
        if (pc >= loop_end) {
            if (loop_iters_left_ > 1) {
                --loop_iters_left_;
                pc = loop_start_;
            } else {
                startLoop(rng);
                pc = pc_;
                loop_end = loop_start_ + loop_bytes_;
            }
        }

        InstClass cls;
        Addr mem_addr = 0;
        std::uint8_t exec_latency = 1;
        bool mispredicted = false;
        const std::uint64_t m = rng.next() >> 11;
        if (m < store_t) {
            cls = m < load_t ? InstClass::Load : InstClass::Store;
            mem_addr = dataAddress(rng);
        } else if (m < branch_t) {
            cls = InstClass::Branch;
            mispredicted = rng.nextBoolFast(mispredict_t);
        } else if (rng.nextBoolFast(fp_t)) {
            cls = InstClass::FpAlu;
            exec_latency = 4;
        } else {
            cls = InstClass::IntAlu;
        }

        // Producer distances: geometric around the mean, capped so
        // they always reference an earlier instruction in any
        // realistic window. A sink that discards distances (the request
        // producer) still consumes the draw -- the stream is the
        // contract -- but skips the table walk that would turn it into
        // a value.
        auto dist = [&]() -> std::uint16_t {
            if (!dep_table)
                return 0;
            const std::uint64_t m = rng.next() >> 11;
            if constexpr (!deps_used)
                return 0;
            return static_cast<std::uint16_t>(
                std::min<std::uint64_t>(dep_table->sample(m), 512));
        };
        const std::uint16_t dep1 = dist();
        const std::uint16_t dep2 = rng.nextBoolFast(half_t) ? dist() : 0;

        sink(pc, cls, mem_addr, dep1, dep2, exec_latency, mispredicted);
    }
    pc_ = pc;
}

void
SyntheticWorkload::generateRun(Rng &rng, Instruction *out, std::size_t n)
{
    generateLoop<true>(rng, n,
                 [out](Addr pc, InstClass cls, Addr mem_addr,
                       std::uint16_t dep1, std::uint16_t dep2,
                       std::uint8_t exec_latency,
                       bool mispredicted) mutable {
                     // Every field written exactly once (no
                     // Instruction() reset; the trace writer copies
                     // fields, so padding never escapes).
                     Instruction &inst = *out++;
                     inst.cls = cls;
                     inst.pc = pc;
                     inst.mem_addr = mem_addr;
                     inst.dep1 = dep1;
                     inst.dep2 = dep2;
                     inst.exec_latency = exec_latency;
                     inst.mispredicted = mispredicted;
                 });
}

void
SyntheticWorkload::nextRequests(RequestBatch &batch, FetchDedup &dedup,
                                std::size_t max)
{
    std::size_t n = std::min(max, InstructionBatch::capacity);
    batch.clear();
    // Local copies of the rng (256-bit state in registers, like
    // nextBatch) and the dedup state (one fewer pointer chase per
    // instruction); both streams write back at the end.
    Rng rng = rng_;
    FetchDedup local = dedup;
    generateLoop<false>(rng, n,
                 [&batch, &local](Addr pc, InstClass cls, Addr mem_addr,
                                  std::uint16_t, std::uint16_t,
                                  std::uint8_t, bool) {
                     deriveInstruction(batch, local, pc, cls, mem_addr);
                 });
    rng_ = rng;
    dedup = local;
}

void
SyntheticWorkload::next(Instruction &out)
{
    generateRun(rng_, &out, 1);
}

void
SyntheticWorkload::nextBatch(InstructionBatch &batch, std::size_t max)
{
    std::size_t n = std::min(max, InstructionBatch::capacity);
    // A local rng keeps the 256-bit state in registers across the whole
    // batch; the stream is the member stream, written back at the end.
    Rng rng = rng_;
    generateRun(rng, batch.records, n);
    rng_ = rng;
    batch.size = n;
}

} // namespace mnm
