#include "sim/recovery.hh"

#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/bits.hh"
#include "util/logging.hh"

namespace mnm
{

namespace
{

// ------------------------------------------------ cell fingerprint
//
// The fingerprint hashes a canonical text encoding of the cell. The
// encoding is versioned implicitly by the journal schema tag: any
// change to what a field means must bump CheckpointJournal::schema so
// stale journals are ignored rather than misapplied.

class Fnv1a64
{
  public:
    void
    text(std::string_view s)
    {
        for (unsigned char c : s) {
            hash_ ^= c;
            hash_ *= 1099511628211ull;
        }
        sep();
    }

    void
    u64(std::uint64_t v)
    {
        char buf[24];
        auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
        (void)ec;
        text(std::string_view(buf, static_cast<std::size_t>(ptr - buf)));
    }

    void flag(bool b) { u64(b ? 1 : 0); }

    std::string
    hex() const
    {
        static const char digits[] = "0123456789abcdef";
        std::string out(16, '0');
        for (int i = 0; i < 16; ++i)
            out[i] = digits[(hash_ >> (60 - 4 * i)) & 0xf];
        return out;
    }

  private:
    void
    sep()
    {
        hash_ ^= 0x1f;
        hash_ *= 1099511628211ull;
    }

    std::uint64_t hash_ = 14695981039346656037ull;
};

void
hashCacheParams(Fnv1a64 &h, const CacheParams &p)
{
    h.text(p.name);
    h.u64(p.capacity_bytes);
    h.u64(p.associativity);
    h.u64(p.block_bytes);
    h.u64(p.hit_latency);
    h.u64(p.miss_latency);
    h.u64(static_cast<std::uint64_t>(p.policy));
}

void
hashFilterSpec(Fnv1a64 &h, const FilterSpec &spec)
{
    if (const auto *s = std::get_if<SmnmSpec>(&spec)) {
        h.text("smnm");
        h.u64(s->sum_width);
        h.u64(s->replication);
        h.u64(static_cast<std::uint64_t>(s->mode));
    } else if (const auto *t = std::get_if<TmnmSpec>(&spec)) {
        h.text("tmnm");
        h.u64(t->index_bits);
        h.u64(t->replication);
        h.u64(t->counter_bits);
    } else {
        const auto &c = std::get<CmnmSpec>(spec);
        h.text("cmnm");
        h.u64(c.num_registers);
        h.u64(c.table_index_bits);
        h.u64(c.counter_bits);
        h.u64(static_cast<std::uint64_t>(c.policy));
    }
}

// -------------------------------------------- result (de)serializer

/** A record's per-level coverage arrays hold levels 0..15 (their
 *  original shape) and grow only to reach a deeper level's counts. */
constexpr std::uint32_t min_level_entries = 16;

/** Add @p object's identified_at/unidentified_at arrays to @p coverage;
 *  false unless both hold the same 16 to max_levels integers. */
bool
readCoverageLevels(const JsonValue &object, CoverageTracker &coverage)
{
    const JsonValue *id = object.find("identified_at");
    const JsonValue *un = object.find("unidentified_at");
    if (!id || !un || !id->isArray() || !un->isArray())
        return false;
    const std::vector<JsonValue> &ids = id->asArray();
    const std::vector<JsonValue> &uns = un->asArray();
    if (ids.size() != uns.size() || ids.size() < min_level_entries ||
        ids.size() > CoverageTracker::max_levels)
        return false;
    for (std::uint32_t l = 0; l < ids.size(); ++l) {
        if (!ids[l].isInteger() || !uns[l].isInteger())
            return false;
        coverage.add(l, ids[l].asU64(), uns[l].asU64());
    }
    return true;
}

/** Fetch a required exact-integer member into @p out. */
bool
need(const JsonValue &object, const std::string &key, std::uint64_t &out)
{
    std::optional<std::uint64_t> v = object.getU64(key);
    if (!v)
        return false;
    out = *v;
    return true;
}

/** Fetch a required numeric member into @p out. */
bool
need(const JsonValue &object, const std::string &key, double &out)
{
    std::optional<double> v = object.getDouble(key);
    if (!v)
        return false;
    out = *v;
    return true;
}

// ------------------------------------------------- CRC record envelope

/** 8 lower-case hex digits of @p crc. */
std::string
crcHex(std::uint32_t crc)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(8, '0');
    for (int i = 0; i < 8; ++i)
        out[i] = digits[(crc >> (28 - 4 * i)) & 0xf];
    return out;
}

/** The byte prefix every enveloped record line starts with. */
constexpr std::string_view envelope_prefix = "{\"crc\":\"";
/** ...followed by 8 hex digits, then this, then the rec text, then
 *  the closing '}'. */
constexpr std::string_view envelope_mid = "\",\"rec\":";

/**
 * Split an enveloped line into its CRC field and the exact rec text
 * the CRC was computed over. Returns false for any line that is not
 * shaped like an envelope (torn, foreign, or pre-v2).
 */
bool
splitEnvelope(std::string_view line, std::string_view &crc_out,
              std::string_view &rec_out)
{
    const std::size_t fixed = envelope_prefix.size() + 8 +
                              envelope_mid.size() + 1;
    if (line.size() <= fixed ||
        line.substr(0, envelope_prefix.size()) != envelope_prefix ||
        line.substr(envelope_prefix.size() + 8, envelope_mid.size()) !=
            envelope_mid ||
        line.back() != '}') {
        return false;
    }
    crc_out = line.substr(envelope_prefix.size(), 8);
    const std::size_t rec_begin =
        envelope_prefix.size() + 8 + envelope_mid.size();
    rec_out = line.substr(rec_begin, line.size() - rec_begin - 1);
    return true;
}

} // anonymous namespace

std::string
cellFingerprint(const SweepCell &cell)
{
    Fnv1a64 h;
    h.text("cell");
    h.text(cell.app);
    h.text(cell.label);
    h.u64(cell.instructions);
    // Hashed only off the functional warm default, so every functional
    // cell keeps the fingerprint it had before cells carried a model.
    if (cell.model != CellModel::Functional || !cell.warm) {
        h.text("model");
        h.u64(static_cast<std::uint64_t>(cell.model));
        h.flag(cell.warm);
    }

    const HierarchyParams &hp = cell.hierarchy;
    h.u64(hp.levels.size());
    for (const LevelParams &level : hp.levels) {
        h.flag(level.split);
        hashCacheParams(h, level.data);
        if (level.split)
            hashCacheParams(h, level.instr);
    }
    h.u64(hp.memory_latency);
    h.u64(static_cast<std::uint64_t>(hp.inclusion));
    h.flag(hp.model_writebacks);

    if (!cell.mnm) {
        h.text("no-mnm");
        return h.hex();
    }
    const MnmSpec &spec = *cell.mnm;
    h.text(spec.name);
    h.u64(static_cast<std::uint64_t>(spec.placement));
    h.u64(spec.delay);
    h.flag(spec.perfect);
    h.flag(spec.oracle_check);
    if (spec.rmnm) {
        h.text("rmnm");
        h.u64(spec.rmnm->entries);
        h.u64(spec.rmnm->associativity);
    } else {
        h.text("no-rmnm");
    }
    h.u64(spec.level_filters.size());
    for (const LevelFilters &lf : spec.level_filters) {
        h.u64(lf.min_level);
        h.u64(lf.max_level);
        h.u64(lf.filters.size());
        for (const FilterSpec &fs : lf.filters)
            hashFilterSpec(h, fs);
    }
    return h.hex();
}

std::string
writeMemSimResult(const MemSimResult &result, bool with_work)
{
    std::ostringstream out;
    {
        JsonWriter json(out, /*pretty=*/false);
        json.beginObject();
        json.field("instructions", result.instructions);
        json.field("requests", result.requests);
        json.field("data_requests", result.data_requests);
        json.field("fetch_requests", result.fetch_requests);
        json.field("total_access_cycles", result.total_access_cycles);
        json.field("miss_cycles", result.miss_cycles);
        json.field("memory_accesses", result.memory_accesses);

        json.key("energy");
        json.beginObject();
        json.field("probe_hit_pj", result.energy.probe_hit_pj);
        json.field("probe_miss_pj", result.energy.probe_miss_pj);
        json.field("fill_pj", result.energy.fill_pj);
        json.field("writeback_pj", result.energy.writeback_pj);
        json.field("mnm_pj", result.energy.mnm_pj);
        json.endObject();

        json.key("coverage");
        json.beginObject();
        json.field("identified", result.coverage.identified());
        json.field("unidentified", result.coverage.unidentified());
        const CoverageTracker &cov = result.coverage;
        std::uint32_t entries = min_level_entries;
        for (std::uint32_t l = entries; l < cov.max_levels; ++l) {
            if (cov.identifiedAt(l) || cov.unidentifiedAt(l))
                entries = l + 1;
        }
        json.key("identified_at");
        json.beginArray();
        for (std::uint32_t l = 0; l < entries; ++l)
            json.value(cov.identifiedAt(l));
        json.endArray();
        json.key("unidentified_at");
        json.beginArray();
        for (std::uint32_t l = 0; l < entries; ++l)
            json.value(cov.unidentifiedAt(l));
        json.endArray();
        json.endObject();

        json.key("decisions");
        json.beginArray();
        for (std::uint32_t l = 0; l < DecisionMatrix::max_levels; ++l) {
            const DecisionMatrix::Cells &cells = result.decisions.at(l);
            if (cells.decisions() == 0)
                continue;
            json.beginObject();
            json.field("level", l);
            json.field("predicted_miss_actual_miss",
                       cells.predicted_miss_actual_miss);
            json.field("maybe_actual_miss", cells.maybe_actual_miss);
            json.field("maybe_actual_hit", cells.maybe_actual_hit);
            json.field("predicted_miss_actual_hit",
                       cells.predicted_miss_actual_hit);
            json.endObject();
        }
        json.endArray();

        json.field("soundness_violations", result.soundness_violations);
        json.field("filter_anomalies", result.filter_anomalies);
        json.field("mnm_storage_bits", result.mnm_storage_bits);

        json.key("caches");
        json.beginArray();
        for (const CacheSnapshot &snap : result.caches) {
            json.beginObject();
            json.field("name", snap.name);
            json.field("level", snap.level);
            json.field("accesses", snap.accesses);
            json.field("hits", snap.hits);
            json.field("mru_hits", snap.mru_hits);
            json.field("misses", snap.misses);
            json.field("bypasses", snap.bypasses);
            json.field("hit_rate", snap.hit_rate);
            json.endObject();
        }
        json.endArray();

        if (with_work) {
            json.key("work");
            json.beginObject();
            json.field("verdicts", result.verdicts);
            json.field("feed_events", result.feed_events);
            json.endObject();
        }

        // Timing cells only: functional records stay byte-identical.
        if (result.cpu != CpuRunStats{}) {
            const CpuRunStats &cpu = result.cpu;
            json.key("cpu");
            json.beginObject();
            json.field("instructions", cpu.instructions);
            json.field("cycles", cpu.cycles);
            json.field("loads", cpu.loads);
            json.field("stores", cpu.stores);
            json.field("branches", cpu.branches);
            json.field("mispredicts", cpu.mispredicts);
            json.field("fetch_line_accesses", cpu.fetch_line_accesses);
            json.field("data_access_cycles", cpu.data_access_cycles);
            json.field("data_accesses", cpu.data_accesses);
            json.endObject();
        }
        json.endObject();
    }
    return out.str();
}

std::optional<MemSimResult>
readMemSimResult(const JsonValue &value)
{
    if (!value.isObject())
        return std::nullopt;
    MemSimResult result;
    if (!need(value, "instructions", result.instructions) ||
        !need(value, "requests", result.requests) ||
        !need(value, "data_requests", result.data_requests) ||
        !need(value, "fetch_requests", result.fetch_requests) ||
        !need(value, "total_access_cycles", result.total_access_cycles) ||
        !need(value, "miss_cycles", result.miss_cycles) ||
        !need(value, "memory_accesses", result.memory_accesses) ||
        !need(value, "soundness_violations",
              result.soundness_violations) ||
        !need(value, "filter_anomalies", result.filter_anomalies) ||
        !need(value, "mnm_storage_bits", result.mnm_storage_bits)) {
        return std::nullopt;
    }

    const JsonValue *energy = value.find("energy");
    if (!energy || !energy->isObject() ||
        !need(*energy, "probe_hit_pj", result.energy.probe_hit_pj) ||
        !need(*energy, "probe_miss_pj", result.energy.probe_miss_pj) ||
        !need(*energy, "fill_pj", result.energy.fill_pj) ||
        !need(*energy, "writeback_pj", result.energy.writeback_pj) ||
        !need(*energy, "mnm_pj", result.energy.mnm_pj)) {
        return std::nullopt;
    }

    const JsonValue *coverage = value.find("coverage");
    std::uint64_t identified = 0, unidentified = 0;
    if (!coverage || !coverage->isObject() ||
        !need(*coverage, "identified", identified) ||
        !need(*coverage, "unidentified", unidentified) ||
        !readCoverageLevels(*coverage, result.coverage)) {
        return std::nullopt;
    }
    // The totals are sums of the levels; a record whose totals disagree
    // (a writer that dropped deep levels) is not replayed.
    if (result.coverage.identified() != identified ||
        result.coverage.unidentified() != unidentified) {
        return std::nullopt;
    }

    const JsonValue *decisions = value.find("decisions");
    if (!decisions || !decisions->isArray())
        return std::nullopt;
    for (const JsonValue &entry : decisions->asArray()) {
        std::uint64_t level = 0;
        DecisionMatrix::Cells cells;
        if (!entry.isObject() || !need(entry, "level", level) ||
            level >= DecisionMatrix::max_levels ||
            !need(entry, "predicted_miss_actual_miss",
                  cells.predicted_miss_actual_miss) ||
            !need(entry, "maybe_actual_miss", cells.maybe_actual_miss) ||
            !need(entry, "maybe_actual_hit", cells.maybe_actual_hit) ||
            !need(entry, "predicted_miss_actual_hit",
                  cells.predicted_miss_actual_hit)) {
            return std::nullopt;
        }
        result.decisions.add(static_cast<std::uint32_t>(level), cells);
    }

    const JsonValue *caches = value.find("caches");
    if (!caches || !caches->isArray())
        return std::nullopt;
    for (const JsonValue &entry : caches->asArray()) {
        CacheSnapshot snap;
        std::optional<std::string> name = entry.getString("name");
        std::uint64_t level = 0;
        if (!entry.isObject() || !name || !need(entry, "level", level) ||
            !need(entry, "accesses", snap.accesses) ||
            !need(entry, "hits", snap.hits) ||
            !need(entry, "mru_hits", snap.mru_hits) ||
            !need(entry, "misses", snap.misses) ||
            !need(entry, "bypasses", snap.bypasses) ||
            !need(entry, "hit_rate", snap.hit_rate)) {
            return std::nullopt;
        }
        snap.name = *name;
        snap.level = static_cast<std::uint32_t>(level);
        result.caches.push_back(std::move(snap));
    }

    const JsonValue *work = value.find("work");
    if (!work || !work->isObject() ||
        !need(*work, "verdicts", result.verdicts) ||
        !need(*work, "feed_events", result.feed_events)) {
        return std::nullopt;
    }

    if (const JsonValue *cpu = value.find("cpu")) {
        CpuRunStats &c = result.cpu;
        if (!cpu->isObject() || !need(*cpu, "instructions", c.instructions) ||
            !need(*cpu, "cycles", c.cycles) ||
            !need(*cpu, "loads", c.loads) ||
            !need(*cpu, "stores", c.stores) ||
            !need(*cpu, "branches", c.branches) ||
            !need(*cpu, "mispredicts", c.mispredicts) ||
            !need(*cpu, "fetch_line_accesses", c.fetch_line_accesses) ||
            !need(*cpu, "data_access_cycles", c.data_access_cycles) ||
            !need(*cpu, "data_accesses", c.data_accesses)) {
            return std::nullopt;
        }
    }
    return result;
}

std::optional<MemSimResult>
readMemSimResult(std::string_view text)
{
    std::optional<JsonValue> value = parseJson(text);
    if (!value)
        return std::nullopt;
    return readMemSimResult(*value);
}

// ------------------------------------------------ checkpoint journal

CheckpointJournal::Replay
CheckpointJournal::load(const std::string &path)
{
    Replay replay;
    std::ifstream in(path);
    if (!in.is_open())
        return replay; // no journal yet: nothing to replay

    std::string line;
    bool first = true;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (first) {
            first = false;
            // Header line. A wrong or unreadable schema tag means the
            // journal is from an incompatible writer: replay nothing.
            std::optional<JsonValue> value = parseJson(line);
            if (!value || !value->isObject() ||
                value->getString("schema") != std::optional<std::string>(
                                                  schema)) {
                warn("checkpoint journal %s has an unrecognized header; "
                     "ignoring it and starting fresh",
                     path.c_str());
                return Replay{};
            }
            continue;
        }

        // Envelope check first: the CRC is computed over the exact
        // rec bytes as written, so it must be verified on the raw
        // text, before any JSON round trip.
        std::string_view crc_text, rec_text;
        if (!splitEnvelope(line, crc_text, rec_text)) {
            ++replay.skipped; // torn tail / partial write
            continue;
        }
        if (crcHex(crc32(rec_text)) != crc_text) {
            ++replay.corrupt; // parses fine, but the bytes changed
            continue;
        }
        std::optional<JsonValue> rec = parseJson(rec_text);
        if (!rec || !rec->isObject()) {
            ++replay.skipped;
            continue;
        }

        std::optional<std::string> type = rec->getString("type");
        std::optional<std::string> fp = rec->getString("fp");
        if (type == std::optional<std::string>("result")) {
            const JsonValue *payload = rec->find("result");
            // Records written before the work counters existed are
            // not replayed: their cells re-run.
            std::optional<MemSimResult> result =
                payload ? readMemSimResult(*payload) : std::nullopt;
            if (!fp || !result) {
                ++replay.skipped;
                continue;
            }
            replay.entries.insert_or_assign(*fp, std::move(*result));
        } else if (type == std::optional<std::string>("lease")) {
            if (!fp) {
                ++replay.skipped;
                continue;
            }
            ++replay.leases[*fp];
        } else if (type == std::optional<std::string>("respawn")) {
            ++replay.respawns;
        } else if (type == std::optional<std::string>("poison")) {
            if (!fp) {
                ++replay.skipped;
                continue;
            }
            unsigned crashes = static_cast<unsigned>(
                rec->getU64("crashes").value_or(0));
            replay.poisoned.insert_or_assign(*fp, crashes);
        } else {
            ++replay.skipped; // record type from a future writer
        }
    }
    return replay;
}

CheckpointJournal::CheckpointJournal(const std::string &path)
    : path_(path)
{
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
    if (fd_ < 0) {
        throw std::runtime_error("cannot open checkpoint journal '" +
                                 path + "' for appending");
    }
    off_t size = ::lseek(fd_, 0, SEEK_END);
    if (size == 0) {
        std::string header =
            std::string("{\"schema\":\"") + schema + "\"}\n";
        if (::write(fd_, header.data(), header.size()) !=
                static_cast<ssize_t>(header.size()) ||
            ::fsync(fd_) != 0) {
            ::close(fd_);
            fd_ = -1;
            throw std::runtime_error(
                "cannot initialize checkpoint journal '" + path + "'");
        }
    }
}

CheckpointJournal::~CheckpointJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
CheckpointJournal::append(const std::string &fingerprint,
                          const MemSimResult &result)
{
    appendRecord("{\"type\":\"result\",\"fp\":" +
                 JsonWriter::quoted(fingerprint) +
                 ",\"result\":" +
                 writeMemSimResult(result, /*with_work=*/true) + "}");
}

void
CheckpointJournal::appendLease(const std::string &fingerprint,
                               unsigned worker, unsigned seq)
{
    appendRecord("{\"type\":\"lease\",\"fp\":" +
                 JsonWriter::quoted(fingerprint) +
                 ",\"worker\":" + std::to_string(worker) +
                 ",\"seq\":" + std::to_string(seq) + "}");
}

void
CheckpointJournal::appendRespawn(unsigned worker, unsigned spawns)
{
    appendRecord("{\"type\":\"respawn\",\"worker\":" +
                 std::to_string(worker) +
                 ",\"spawns\":" + std::to_string(spawns) + "}");
}

void
CheckpointJournal::appendPoison(const std::string &fingerprint,
                                unsigned crashes)
{
    appendRecord("{\"type\":\"poison\",\"fp\":" +
                 JsonWriter::quoted(fingerprint) +
                 ",\"crashes\":" + std::to_string(crashes) + "}");
}

void
CheckpointJournal::appendRecord(const std::string &rec_text)
{
    std::string line;
    line.reserve(rec_text.size() + envelope_prefix.size() +
                 envelope_mid.size() + 10);
    line += envelope_prefix;
    line += crcHex(crc32(rec_text));
    line += envelope_mid;
    line += rec_text;
    line += "}\n";
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0 || write_failed_)
        return;
    // One write per record: O_APPEND makes the line land atomically at
    // the tail even with a concurrent writer, and a crash mid-write
    // leaves at most one torn line for load() to skip.
    std::size_t done = 0;
    while (done < line.size()) {
        ssize_t n = ::write(fd_, line.data() + done, line.size() - done);
        if (n < 0) {
            write_failed_ = true;
            warn("checkpoint journal %s: write failed; checkpointing "
                 "disabled for the rest of this run",
                 path_.c_str());
            return;
        }
        done += static_cast<std::size_t>(n);
    }
    if (::fsync(fd_) != 0) {
        write_failed_ = true;
        warn("checkpoint journal %s: fsync failed; checkpointing "
             "disabled for the rest of this run",
             path_.c_str());
    }
}

} // namespace mnm
