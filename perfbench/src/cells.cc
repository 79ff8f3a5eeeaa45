#include <algorithm>
#include <functional>
#include <memory>
#include <string_view>
#include <thread>

#include "bench.hh"
#include "core/presets.hh"
#include "cpu/cycle_core.hh"
#include "cpu/ooo_core.hh"
#include "sim/config.hh"
#include "sim/recovery.hh"
#include "trace/batch_pipeline.hh"
#include "trace/spec2000.hh"
#include "tracing.hh"

using namespace mnm;

namespace perfbench
{

namespace
{

/** Measured-window instructions per cell, per workload. The suite's
 *  default is 2,000,000; budget_check.py compares the cost mix at these
 *  budgets with it (README.md "Budgets"). */
constexpr std::uint64_t functional_fast_budget = 1'000'000;
constexpr std::uint64_t timing_cores_budget = 300'000;
constexpr std::uint64_t functional_fallback_budget = 1'000'000;

Variant
functional(const std::string &label, int levels,
           std::optional<MnmSpec> spec)
{
    Variant v;
    v.label = label;
    v.kind = CellKind::Functional;
    v.levels = levels;
    v.hierarchy = paperHierarchy(levels);
    v.mnm = std::move(spec);
    return v;
}

Variant
timing(CellKind kind, const std::string &config)
{
    Variant v;
    v.kind = kind;
    v.label = std::string(kind == CellKind::Ooo ? "ooo:" : "cycle:") +
              (config.empty() ? "none" : config);
    v.hierarchy = paperHierarchy(5);
    if (!config.empty()) {
        MnmSpec spec = mnmSpecByName(config);
        spec.placement = MnmPlacement::Parallel;
        v.mnm = spec;
    }
    return v;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Hash of a cell's output counters, for the cross-pass check. */
std::uint64_t
digestOf(const std::vector<std::uint64_t> &counters)
{
    return std::hash<std::string_view>{}(std::string_view(
        reinterpret_cast<const char *>(counters.data()),
        counters.size() * sizeof(std::uint64_t)));
}

/** Records one named check into the outcome. */
class Checker
{
  public:
    explicit Checker(CellOutcome &out) : out_(out) {}

    void
    operator()(bool ok, const char *what)
    {
        ++out_.checks;
        if (!ok)
            out_.failures.push_back(what);
    }

  private:
    CellOutcome &out_;
};

/** Cache counters of a hierarchy (cumulative since construction, like
 *  MemSimResult::caches). Appends each cache's counters to @p counters
 *  when given. */
void
cacheSums(const CacheHierarchy &hier, Sums &s, Checker &check,
          std::vector<std::uint64_t> *counters = nullptr)
{
    for (CacheId id = 0; id < hier.numCaches(); ++id) {
        const CacheStats &st = hier.cache(id).stats();
        std::uint64_t acc = st.accesses.value();
        std::uint64_t hits = st.hits.value();
        std::uint64_t misses = st.misses.value();
        check(hits + misses == acc, "cache hits + misses == accesses");
        s["probes"] += acc;
        s["bypasses"] += st.bypasses.value();
        if (hier.levelOf(id) == 1) {
            s["l1_hits"] += hits;
            s["l1_accesses"] += acc;
        }
        if (hier.levelOf(id) == hier.levels())
            s["mem_accesses"] += misses + st.bypasses.value();
        if (counters) {
            counters->insert(counters->end(),
                             {acc, hits, misses, st.bypasses.value()});
        }
    }
}

/**
 * Runs the warm-up and the measured window of a cell on @p sim (a
 * MemorySimulator or a core), feeding it through a CountingWorkload so
 * the instructions the generator delivered are checked against the
 * budget and become the cell's instruction count. Layer sums are named
 * after @p layer ("sim", "ooo" or "cycle").
 */
template <typename Sim>
auto
runWindows(Sim &sim, WorkloadGenerator &gen, const Workload &w,
           const std::string &layer, CellTrace *trace, Checker &check,
           CellOutcome &out)
{
    const std::uint64_t warm_n = warmupOf(w.budget);
    CountingWorkload feed(gen, trace);
    std::uint64_t t0 = nowNs();
    auto warm = sim.run(feed, warm_n);
    const std::uint64_t warm_fed = feed.instructions();
    std::uint64_t t1 = nowNs();
    auto meas = sim.run(feed, w.budget);
    std::uint64_t t2 = nowNs();

    check(warm_fed == warm_n, "generator delivered the warm-up budget");
    check(feed.instructions() - warm_fed == w.budget,
          "generator delivered the measured budget");
    out.instructions = feed.instructions();
    Sums &s = out.layers;
    s[layer + "_instr"] = static_cast<double>(feed.instructions());
    if (trace) {
        trace->add("run.warmup", t0, t1);
        trace->add("run.measured", t1, t2);
        s[layer + "_ns"] = static_cast<double>(t2 - t0);
        s[layer + "_warm_ns"] = static_cast<double>(t1 - t0);
        s["gen_calls"] = static_cast<double>(feed.calls());
        s["gen_instr"] = static_cast<double>(feed.instructions());
    }
    return std::pair{std::move(warm), std::move(meas)};
}

void
runFunctionalCell(const Workload &w, const Variant &v, std::size_t app,
                  std::uint64_t seed, CellTrace *trace, bool keep,
                  CellOutcome &out)
{
    Checker check(out);

    std::uint64_t t0 = nowNs();
    const std::uint64_t c0 = threadCpuNs();
    MemorySimulator sim(v.hierarchy, v.mnm);
    SyntheticWorkload gen(cellParams(w, app, seed));
    out.setup_s = static_cast<double>(threadCpuNs() - c0) / 1e9;
    std::uint64_t t1 = nowNs();
    if (trace)
        trace->add("construct", t0, t1);

    auto [warm, meas] = runWindows(sim, gen, w, "sim", trace, check, out);

    Sums &s = out.layers;
    for (const MemSimResult *r : {&warm, &meas}) {
        check(r->requests == r->fetch_requests + r->data_requests,
              "requests == fetch_requests + data_requests");
    }
    const std::uint64_t requests = warm.requests + meas.requests;
    cacheSums(sim.hierarchy(), s, check);
    check(s["l1_accesses"] == static_cast<double>(requests),
          "every request probes level 1");
    s["requests"] = requests;
    s["sim_requests"] = requests;
    if (MnmUnit *mnm = sim.mnm()) {
        s["mnm_requests"] = requests;
        s["lookups"] = mnm->lookups();
        s["identified"] =
            warm.coverage.identified() + meas.coverage.identified();
        s["opportunities"] =
            warm.coverage.opportunities() + meas.coverage.opportunities();
        // Cumulative over both windows; checked to be 0 for sound specs.
        s["violations"] = meas.soundness_violations;
        if (v.sound) {
            check(meas.soundness_violations == 0,
                  "sound spec: soundness_violations == 0");
            check(meas.decisions.forbidden() == 0,
                  "sound spec: forbidden decision cells == 0");
        }
    }
    // writeMemSimResult encodes every counter exactly.
    out.digest = std::hash<std::string>{}(writeMemSimResult(warm) +
                                          writeMemSimResult(meas));
    if (keep) {
        out.warm = std::move(warm);
        out.measured = std::move(meas);
    }
}

template <typename Core>
void
runTimingCell(const Workload &w, const Variant &v, std::size_t app,
              std::uint64_t seed, CellTrace *trace, CellOutcome &out)
{
    Checker check(out);

    std::uint64_t t0 = nowNs();
    const std::uint64_t c0 = threadCpuNs();
    CacheHierarchy hier(v.hierarchy);
    std::unique_ptr<MnmUnit> mnm;
    if (v.mnm)
        mnm = std::make_unique<MnmUnit>(*v.mnm, hier);
    Core core(paperCpu(v.levels), hier, mnm.get());
    SyntheticWorkload gen(cellParams(w, app, seed));
    out.setup_s = static_cast<double>(threadCpuNs() - c0) / 1e9;
    std::uint64_t t1 = nowNs();
    if (trace)
        trace->add("construct", t0, t1);

    const bool ooo = v.kind == CellKind::Ooo;
    auto [warm, meas] =
        runWindows(core, gen, w, ooo ? "ooo" : "cycle", trace, check, out);

    Sums &s = out.layers;
    if (ooo)
        s["ooo_cycles"] = warm.cycles + meas.cycles;
    std::vector<std::uint64_t> counters;
    std::uint64_t requests = 0;
    for (const CpuRunStats *r : {&warm, &meas}) {
        check(r->data_accesses ==
                  r->fetch_line_accesses + r->loads + r->stores,
              "requests == fetch_requests + data_requests");
        requests += r->data_accesses;
        counters.insert(counters.end(),
                        {r->cycles, r->loads, r->stores, r->branches,
                         r->mispredicts, r->fetch_line_accesses,
                         r->data_access_cycles});
    }
    cacheSums(hier, s, check, &counters);
    check(s["l1_accesses"] == static_cast<double>(requests),
          "every request probes level 1");
    s["requests"] = requests;
    if (mnm) {
        s["mnm_requests"] = requests;
        s["lookups"] = mnm->lookups();
        s["identified"] = core.coverage().identified();
        s["opportunities"] = core.coverage().opportunities();
        s["violations"] = mnm->soundnessViolations();
        counters.insert(counters.end(),
                        {core.coverage().identified(),
                         core.coverage().opportunities()});
        if (v.sound) {
            std::uint64_t forbidden = 0;
            for (std::uint32_t l = 0; l < mnm->violationLevels(); ++l)
                forbidden += mnm->violationsAtLevel(l);
            check(mnm->soundnessViolations() == 0,
                  "sound spec: soundness_violations == 0");
            check(forbidden == 0,
                  "sound spec: forbidden decision cells == 0");
        }
    }
    out.digest = digestOf(counters);
}

} // anonymous namespace

std::optional<Workload>
makeWorkload(const std::string &name, unsigned nproc)
{
    Workload w;
    w.name = name;
    w.apps = specAllNames();
    nproc = std::max(1u, nproc);
    if (name == "functional_fast") {
        for (const char *config : {"RMNM_2048_4", "SMNM_13x2", "TMNM_12x3",
                                   "CMNM_8_10", "HMNM2", "HMNM4",
                                   "Perfect"}) {
            w.variants.push_back(
                functional(config, 5, mnmSpecByName(config)));
        }
        w.variants.push_back(functional("HMNM4@7", 7, makeHmnmSpec(4)));
        w.budget = functional_fast_budget;
        w.workers = 2;
    } else if (name == "timing_cores") {
        for (const char *config :
             {"", "TMNM_12x3", "CMNM_8_10", "HMNM2", "HMNM4", "Perfect"})
            w.variants.push_back(timing(CellKind::Ooo, config));
        for (const char *config : {"", "HMNM4", "Perfect"})
            w.variants.push_back(timing(CellKind::Cycle, config));
        w.budget = timing_cores_budget;
        w.workers = 4;
    } else if (name == "functional_fallback") {
        for (int levels : {2, 3, 5, 7}) {
            w.variants.push_back(functional(
                "none@" + std::to_string(levels), levels, std::nullopt));
        }
        Variant inc_h = functional("HMNM4@inclusive", 5, makeHmnmSpec(4));
        inc_h.hierarchy.inclusion = InclusionPolicy::Inclusive;
        w.variants.push_back(inc_h);
        Variant inc_t = functional("TMNM_12x3@inclusive", 5,
                                   mnmSpecByName("TMNM_12x3"));
        inc_t.hierarchy.inclusion = InclusionPolicy::Inclusive;
        w.variants.push_back(inc_t);
        Variant reset = functional(
            "CMNM_4_10@paper-reset", 5,
            makeUniformSpec(CmnmSpec{4, 10, 3, CmnmMaskPolicy::PaperReset}));
        reset.sound = false;
        w.variants.push_back(reset);
        w.budget = functional_fallback_budget;
        w.workers = 2;
    } else {
        return std::nullopt;
    }
    // A functional cell's overlap pipeline runs a producer thread beside
    // its worker whenever the host has two hardware threads.
    const bool functional_grid =
        w.variants.front().kind == CellKind::Functional;
    if (functional_grid && overlapFromEnv() &&
        std::thread::hardware_concurrency() >= 2)
        w.threads_per_worker = 2;
    w.workers = std::clamp(nproc / w.threads_per_worker, 1u, w.workers);
    return w;
}

SyntheticParams
cellParams(const Workload &w, std::size_t app, std::uint64_t seed)
{
    SyntheticParams p = specWorkloadParams(w.apps[app]);
    p.seed = splitmix64(seed * 0x100000001B3ull + app);
    return p;
}

void
addSums(Sums &into, const Sums &from)
{
    for (const auto &[name, value] : from)
        into[name] += value;
}

CellOutcome
runCell(const Workload &w, std::size_t cell, std::uint64_t seed,
        CellTrace *trace, bool keep_results)
{
    const Variant &v = w.variantOf(cell);
    const std::size_t app = w.appOf(cell);
    CellOutcome out;
    std::uint64_t t0 = nowNs();
    const std::uint64_t c0 = threadCpuNs();
    switch (v.kind) {
      case CellKind::Functional:
        runFunctionalCell(w, v, app, seed, trace, keep_results, out);
        break;
      case CellKind::Ooo:
        runTimingCell<OooCore>(w, v, app, seed, trace, out);
        break;
      case CellKind::Cycle:
        runTimingCell<CycleOooCore>(w, v, app, seed, trace, out);
        break;
    }
    out.cpu_s = static_cast<double>(threadCpuNs() - c0) / 1e9;
    std::uint64_t t1 = nowNs();
    if (trace) {
        trace->add("cell", t0, t1);
        out.layers["cell_ns"] = static_cast<double>(t1 - t0);
        out.layers["gen_ns"] = trace->genNs();
    }
    out.ran = true;
    return out;
}

std::vector<std::string>
referenceMismatches(const Workload &w, std::size_t cell,
                    std::uint64_t seed, const CellOutcome &fast)
{
    const Variant &v = w.variantOf(cell);
    MemorySimulator sim(v.hierarchy, v.mnm);
    sim.setReferenceKernel(true);
    sim.setReferenceFeed(true);
    SyntheticWorkload gen(cellParams(w, w.appOf(cell), seed));
    MemSimResult warm = sim.run(gen, warmupOf(w.budget));
    MemSimResult meas = sim.run(gen, w.budget);

    if (!fast.warm || !fast.measured)
        return {"fast-path results were not kept"};
    std::vector<std::string> mismatches;
    auto compare = [&](const char *window, const MemSimResult &a,
                       const MemSimResult &b) {
        const std::string x = writeMemSimResult(a);
        const std::string y = writeMemSimResult(b);
        if (x == y)
            return;
        std::size_t at = 0;
        while (at < x.size() && at < y.size() && x[at] == y[at])
            ++at;
        mismatches.push_back(std::string(window) + " window differs at '" +
                             y.substr(at > 40 ? at - 40 : 0, 60) + "'");
    };
    compare("warm-up", *fast.warm, warm);
    compare("measured", *fast.measured, meas);
    return mismatches;
}

Sums
layerReplay(const Workload &w, std::uint64_t seed,
            std::uint64_t instructions)
{
    // Per-interval cost of reading the clock twice, subtracted from
    // every timed call below.
    std::vector<std::uint64_t> gaps(2001);
    for (std::uint64_t &g : gaps) {
        std::uint64_t a = nowNs();
        g = nowNs() - a;
    }
    std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2,
                     gaps.end());
    const double timer_ns = static_cast<double>(gaps[gaps.size() / 2]);
    auto net = [&](std::uint64_t a, std::uint64_t b) {
        return std::max(0.0, static_cast<double>(b - a) - timer_ns);
    };

    // Plain locals on the timed path; no map lookup between two clock
    // reads.
    double verdict_ns = 0, access_ns = 0;
    std::uint64_t verdicts = 0, accesses = 0;
    Sums s;
    const std::size_t napps = w.apps.size();
    for (std::size_t vi = 0; vi < w.variants.size(); ++vi) {
        const Variant &v = w.variants[vi];
        for (std::size_t app : {vi % napps, (vi + napps / 2) % napps}) {
            std::uint64_t t0 = nowNs();
            CacheHierarchy hier(v.hierarchy);
            std::uint64_t t1 = nowNs();
            std::unique_ptr<MnmUnit> mnm;
            if (v.mnm)
                mnm = std::make_unique<MnmUnit>(*v.mnm, hier);
            std::uint64_t t2 = nowNs();
            SyntheticWorkload gen(cellParams(w, app, seed));
            std::uint64_t t3 = nowNs();
            s["hierarchy_ns"] += static_cast<double>(t1 - t0);
            s["hierarchies"] += 1;
            if (mnm) {
                s["mnm_ns"] += static_cast<double>(t2 - t1);
                s["mnms"] += 1;
            }
            s["workload_ns"] += static_cast<double>(t3 - t2);
            s["workloads"] += 1;

            auto access = [&](AccessType type, Addr addr) {
                BypassMask mask;
                std::uint64_t a = nowNs();
                if (mnm)
                    mask = mnm->computeBypass(type, addr);
                std::uint64_t b = nowNs();
                AccessResult r = hier.access(type, addr, mask);
                std::uint64_t c = nowNs();
                if (mnm) {
                    mnm->applyPlacementCosts(r);
                    verdict_ns += net(a, b);
                    ++verdicts;
                }
                access_ns += net(b, c);
                ++accesses;
            };
            const Cache &l1i = hier.cacheAt(1, AccessType::InstFetch);
            Addr cur_line = invalid_addr;
            Instruction inst;
            for (std::uint64_t i = 0; i < instructions; ++i) {
                gen.next(inst);
                Addr line = l1i.blockAddr(inst.pc);
                if (line != cur_line) {
                    cur_line = line;
                    access(AccessType::InstFetch, inst.pc);
                }
                if (inst.isMem()) {
                    access(inst.cls == InstClass::Load ? AccessType::Load
                                                       : AccessType::Store,
                           inst.mem_addr);
                }
            }
        }
    }
    s["verdict_ns"] = verdict_ns;
    s["verdicts"] = static_cast<double>(verdicts);
    s["access_ns"] = access_ns;
    s["accesses"] = static_cast<double>(accesses);
    return s;
}

} // namespace perfbench
