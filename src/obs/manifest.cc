#include "obs/manifest.hh"

#include <cstdlib>
#include <fstream>
#include <mutex>

#include "obs/json.hh"
#include "obs/phase_profiler.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

#ifndef MNM_GIT_DESCRIBE
#define MNM_GIT_DESCRIBE "unknown"
#endif

namespace mnm
{

namespace
{

/** Everything the exit-time writer needs, set up by initRunTelemetry. */
struct RunInfo
{
    bool initialized = false;
    std::string run_name;
    std::string stats_path;
    std::string trace_path;

    bool have_config = false;
    std::uint64_t instructions = 0;
    std::vector<std::string> apps;
    unsigned jobs = 0;
};

std::mutex &
runInfoMutex()
{
    static std::mutex mutex;
    return mutex;
}

RunInfo &
runInfo()
{
    static RunInfo info;
    return info;
}

void
writeArtifactsAtExit()
{
    writeRunArtifacts();
}

} // anonymous namespace

void
initRunTelemetry(const std::string &run_name)
{
    std::scoped_lock lock(runInfoMutex());
    RunInfo &info = runInfo();
    if (!info.initialized) {
        info.initialized = true;
        // The profiling knob resolves here too, so a malformed MNM_PROF
        // dies at startup and every harness that records telemetry also
        // attributes it.
        initPhaseProfiler();
        if (const char *env = std::getenv("MNM_STATS_JSON"))
            info.stats_path = env;
        if (const char *env = std::getenv("MNM_TRACE_FILE"))
            info.trace_path = env;
        if (!info.stats_path.empty() || !info.trace_path.empty()) {
            // Force-construct the singletons the exit hook reads NOW:
            // function-local statics are destroyed in reverse
            // construction order, interleaved with atexit handlers, so
            // anything first touched after this registration would be
            // gone by the time the hook runs.
            globalStats();
            globalTrace();
            std::atexit(writeArtifactsAtExit);
        }
    }
    if (!run_name.empty() && info.run_name.empty())
        info.run_name = run_name;
}

void
setRunName(const std::string &run_name)
{
    std::scoped_lock lock(runInfoMutex());
    runInfo().run_name = run_name;
}

void
setRunConfig(std::uint64_t instructions,
             const std::vector<std::string> &apps, unsigned jobs)
{
    std::scoped_lock lock(runInfoMutex());
    RunInfo &info = runInfo();
    info.have_config = true;
    info.instructions = instructions;
    info.apps = apps;
    info.jobs = jobs;
}

bool
statsJsonEnabled()
{
    std::scoped_lock lock(runInfoMutex());
    return !runInfo().stats_path.empty();
}

bool
traceFileEnabled()
{
    std::scoped_lock lock(runInfoMutex());
    return !runInfo().trace_path.empty();
}

const char *
gitDescribe()
{
    return MNM_GIT_DESCRIBE;
}

void
writeRunManifest(std::ostream &out)
{
    RunInfo info;
    {
        std::scoped_lock lock(runInfoMutex());
        info = runInfo();
    }
    // Fold the phase-attribution profile (if any) so the manifest is
    // self-contained, then serialize the metrics tree and re-indent it
    // by one level so it nests as the "metrics" member of the document.
    foldProfGlobal(globalStats());
    std::string metrics = globalStats().toJson({}, true);
    std::string indented;
    indented.reserve(metrics.size() + metrics.size() / 8);
    for (char c : metrics) {
        indented.push_back(c);
        if (c == '\n')
            indented += "  ";
    }

    JsonWriter json(out, /*pretty=*/true);
    json.beginObject();
    json.field("schema", "mnm-run-manifest-v2");
    json.key("meta");
    json.beginObject();
    json.field("git_describe", gitDescribe());
    json.field("run", info.run_name);
    json.endObject();
    json.key("config");
    json.beginObject();
    if (info.have_config) {
        json.field("instructions", info.instructions);
        json.field("jobs", info.jobs);
        json.key("apps");
        json.beginArray();
        for (const std::string &app : info.apps)
            json.value(app);
        json.endArray();
    }
    json.endObject();
    json.key("metrics");
    json.rawValue(indented);
    json.endObject();
}

void
writeRunArtifacts()
{
    RunInfo info;
    {
        std::scoped_lock lock(runInfoMutex());
        info = runInfo();
    }
    if (!info.stats_path.empty()) {
        std::ofstream out(info.stats_path,
                          std::ios::out | std::ios::trunc);
        if (!out) {
            warn("MNM_STATS_JSON: cannot open '%s' for writing",
                 info.stats_path.c_str());
        } else {
            writeRunManifest(out);
            out << "\n";
        }
    }
    if (!info.trace_path.empty()) {
        std::ofstream out(info.trace_path,
                          std::ios::out | std::ios::trunc);
        if (!out) {
            warn("MNM_TRACE_FILE: cannot open '%s' for writing",
                 info.trace_path.c_str());
        } else {
            globalTrace().write(out);
            out << "\n";
        }
    }
}

void
setRunArtifactPathsForTest(const std::string &stats_path,
                           const std::string &trace_path)
{
    std::scoped_lock lock(runInfoMutex());
    RunInfo &info = runInfo();
    info.initialized = true;
    info.stats_path = stats_path;
    info.trace_path = trace_path;
}

} // namespace mnm
