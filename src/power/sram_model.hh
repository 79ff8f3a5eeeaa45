/**
 * @file
 * CACTI-inspired analytical energy/delay model for SRAM arrays and CAMs.
 *
 * The paper obtained cache and MNM-structure power/delay from CACTI 3.1.
 * CACTI is not available offline, so this module implements an analytical
 * model with the same functional form: an array of R rows x C columns is
 * accessed through a row decoder, wordline drivers, bitline swings, sense
 * amplifiers, and (for caches) tag comparators and way muxes. Component
 * energies and delays scale with the usual terms:
 *
 *   decoder   ~ log2(R)              (fanout-of-4 logic depth)
 *   wordline  ~ C                    (wire + gate cap per column)
 *   bitline   ~ R                    (diffusion cap per row on the swing)
 *   senseamp  ~ C                    (one amp per column read)
 *   compare   ~ tag_bits * ways
 *
 * Constants are calibrated to a 0.18um-class process (the era of the
 * paper) so that absolute numbers are plausible and -- more importantly --
 * the *ratios* between large caches and the small MNM structures match
 * the paper's premise (MNM structures are far cheaper than the caches
 * they shield). See DESIGN.md "Paper -> our substitutions".
 */

#ifndef MNM_POWER_SRAM_MODEL_HH
#define MNM_POWER_SRAM_MODEL_HH

#include <cstdint>
#include <string>

#include "util/types.hh"

namespace mnm
{

/** Process/circuit constants for the analytical model. */
struct TechnologyParams
{
    /** Feature size in nanometres (affects per-bit capacitances). */
    double feature_nm = 180.0;
    /** Supply voltage in volts. */
    double vdd = 1.8;
    /** Energy per unit of switched capacitance, pJ per (col or row)
     *  unit. Calibrated so the paper-era cache sizes land at CACTI
     *  3.1-like magnitudes (4 KB ~ 15 pJ ... 2 MB ~ 1 nJ per probe);
     *  the MNM conclusions hinge on the *ratio* of big-cache probes to
     *  small-structure probes, so these are the load-bearing knobs. */
    double bitline_pj_per_row = 0.003;
    double wordline_pj_per_col = 0.002;
    double senseamp_pj_per_col = 0.006;
    double decoder_pj_per_level = 0.09;
    double compare_pj_per_bit = 0.006;
    double output_pj_per_bit = 0.004;
    /** Global routing/H-tree energy per kilobit of array capacity:
     *  the term that makes multi-megabyte arrays pay for their size. */
    double route_pj_per_kbit = 0.02;
    /** Delay constants, ns. */
    double decoder_ns_per_level = 0.04;
    double wordline_ns_per_col = 0.00065;
    double bitline_ns_per_row = 0.0011;
    double senseamp_ns = 0.38;
    double compare_ns_per_bit = 0.015;
    /** Leakage, mW per kilobit. */
    double leakage_mw_per_kbit = 0.002;
    /** Energy/delay multiplier per extra port (wire + cell growth). */
    double port_factor = 0.7;

    /** The default 0.18um-class technology. */
    static const TechnologyParams &default180();
};

/** Convert a model delay to whole clock cycles at @p clock_ghz. */
Cycles delayToCycles(Nanoseconds ns, double clock_ghz);

/** Result of evaluating an array: per-access energy, delay, leakage. */
struct PowerDelay
{
    PicoJoules read_energy_pj = 0.0;
    PicoJoules write_energy_pj = 0.0;
    Nanoseconds access_ns = 0.0;
    /** Static leakage power, mW. */
    double leakage_mw = 0.0;
    /** Storage bits, for reporting. */
    std::uint64_t bits = 0;

    std::string toString() const;
};

/** Dynamic-energy breakdown of a run, picojoules. */
struct EnergyBreakdown
{
    PicoJoules probe_hit_pj = 0.0;  //!< probes that hit
    PicoJoules probe_miss_pj = 0.0; //!< probes that missed (wasted)
    PicoJoules fill_pj = 0.0;       //!< allocations on the fill path
    PicoJoules writeback_pj = 0.0;  //!< dirty-victim drain traffic
    PicoJoules mnm_pj = 0.0;        //!< MNM lookups + updates

    PicoJoules cacheTotal() const
    {
        return probe_hit_pj + probe_miss_pj + fill_pj + writeback_pj;
    }
    PicoJoules total() const { return cacheTotal() + mnm_pj; }
    double missFraction() const
    {
        double t = cacheTotal();
        return t > 0.0 ? probe_miss_pj / t : 0.0;
    }
};

/** Physical description of a set-associative cache for the model. */
struct CacheGeometry
{
    std::uint64_t capacity_bytes = 0;
    std::uint32_t block_bytes = 0;
    /** 0 means fully associative. */
    std::uint32_t associativity = 1;
    /** Tag bits stored per block (including valid/state bits). */
    std::uint32_t tag_bits = 30;
    std::uint32_t read_write_ports = 1;
};

/**
 * Analytical SRAM/CAM evaluator. All functions are pure: they map a
 * geometry to a PowerDelay under a technology.
 */
class SramModel
{
  public:
    explicit SramModel(const TechnologyParams &tech =
                           TechnologyParams::default180());

    /**
     * A set-associative cache: tag array probe (all ways) + data array
     * read of the selected way. This is the per-probe energy a cache
     * spends whether it hits or misses (a miss still pays tag + data
     * probe; only the output drive differs, which we fold in).
     */
    PowerDelay cache(const CacheGeometry &geom) const;

    /**
     * Per-probe read energy of the same cache under way prediction
     * (Calder/Grunwald; Powell et al. -- the paper's related work):
     * the predicted way's data is read alongside the full tag probe;
     * a mispredicted way costs a second, full-width read.
     *
     * @return {predicted-hit read, misprediction extra} energies, pJ.
     */
    std::pair<PicoJoules, PicoJoules>
    wayPredictedRead(const CacheGeometry &geom) const;

    /**
     * A plain RAM table of @p entries x @p bits_per_entry (e.g. the TMNM
     * counter table or the CMNM table).
     *
     * @param active_bits columns actually precharged/sensed per read
     *        (0 = all). The MNM counter tables read one small counter
     *        group selected up front, so their read path is gated to a
     *        few bits -- a key part of why the structures stay far
     *        cheaper than the caches they shield.
     */
    PowerDelay table(std::uint64_t entries, std::uint32_t bits_per_entry,
                     std::uint32_t ports = 1,
                     std::uint32_t active_bits = 0) const;

    /**
     * A small fully-associative CAM of @p entries x @p match_bits
     * (e.g. the CMNM virtual-tag finder registers).
     */
    PowerDelay cam(std::uint64_t entries, std::uint32_t match_bits,
                   std::uint32_t ports = 1) const;

    const TechnologyParams &tech() const { return tech_; }

  private:
    /**
     * Core array model shared by the public entry points.
     *
     * @param write_cols columns actually driven on a write (e.g. one
     *                   way of a set-associative cache); 0 = all.
     * @param read_cols  columns precharged/sensed on a read (gated
     *                   narrow-read arrays); 0 = all.
     */
    PowerDelay array(std::uint64_t rows, std::uint64_t cols,
                     std::uint32_t ports, std::uint32_t output_bits,
                     std::uint64_t write_cols = 0,
                     std::uint64_t read_cols = 0) const;

    TechnologyParams tech_;
};

} // namespace mnm

#endif // MNM_POWER_SRAM_MODEL_HH
