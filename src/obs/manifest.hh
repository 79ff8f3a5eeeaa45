/**
 * @file
 * Machine-readable run telemetry: the MNM_STATS_JSON run manifest and
 * the MNM_TRACE_FILE Chrome timeline.
 *
 * Every bench harness and example calls initRunTelemetry() once (the
 * ExperimentOptions::fromEnv() path does it automatically); that reads
 * the two knobs and registers a process-exit hook, so whatever the
 * binary folded into globalStats()/globalTrace() lands on disk without
 * each main() carrying serialization code. With both knobs unset this
 * layer is inert: nothing is written and stdout is untouched, which
 * preserves the byte-identical-output guarantee.
 *
 * The manifest schema ("mnm-run-manifest-v2"):
 *   {
 *     "schema": "mnm-run-manifest-v2",
 *     "meta":    { "git_describe": ..., "run": ... },
 *     "config":  { "instructions": ..., "jobs": ..., "apps": [...] },
 *     "metrics": { ...nested globalStats() tree... }
 *   }
 * v2 adds the "metrics.prof" subtree when MNM_PROF is active: per-phase
 * {share,ticks,transitions} from obs/phase_profiler, plus
 * per-cell attribution under "metrics.prof.cell.<label>.<app>" for
 * sweeps. Consumers comparing manifests across job counts must ignore
 * "meta", "config.jobs"/"config.progress" and the "metrics.runner" and
 * "metrics.prof" subtrees (wall-clock telemetry); tools/
 * extract_results.py --diff does exactly that.
 *
 * initRunTelemetry() also resolves the profiling knob (MNM_PROF, see
 * obs/phase_profiler.hh), whose totals land in the manifest.
 */

#ifndef MNM_OBS_MANIFEST_HH
#define MNM_OBS_MANIFEST_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace mnm
{

/**
 * Parse MNM_STATS_JSON / MNM_TRACE_FILE and register the exit-time
 * writer (first call only). @p run_name is recorded in the manifest's
 * meta block; later calls may refine it (setRunName) but never re-read
 * the environment.
 */
void initRunTelemetry(const std::string &run_name = "");

/** Record the harness/figure name for the manifest meta block. */
void setRunName(const std::string &run_name);

/** Echo the experiment configuration into the manifest. @p jobs is
 *  the MNM_JOBS worker-process count. */
void setRunConfig(std::uint64_t instructions,
                  const std::vector<std::string> &apps, unsigned jobs);

/** True when MNM_STATS_JSON was set (after initRunTelemetry). */
bool statsJsonEnabled();

/** True when MNM_TRACE_FILE was set (after initRunTelemetry). */
bool traceFileEnabled();

/** The git description baked in at configure time ("unknown" without
 *  git). */
const char *gitDescribe();

/** Serialize the manifest document to @p out. */
void writeRunManifest(std::ostream &out);

/**
 * Write the configured artifacts now (also runs at exit). Safe to call
 * with the knobs unset -- it does nothing. Used by tests and by
 * harnesses that want the files before process teardown.
 */
void writeRunArtifacts();

/** Test hook: override the output paths without touching the
 *  environment. Empty string disables that artifact. */
void setRunArtifactPathsForTest(const std::string &stats_path,
                                const std::string &trace_path);

} // namespace mnm

#endif // MNM_OBS_MANIFEST_HH
