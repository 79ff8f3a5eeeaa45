#!/usr/bin/env python3
"""Split a bench_output.txt into per-experiment CSV files.

The bench binaries print aligned tables of the form

    == <title> ==
    app   col1  col2
    -----------------
    gzip  1.0   2.0
    ...

This tool parses every such table and writes one CSV per table into an
output directory, named from a slug of the title -- handy for feeding
gnuplot/matplotlib when regenerating the paper's figures.

usage: tools/extract_results.py bench_output.txt [outdir]
       tools/extract_results.py --stats run.json bench_output.txt [outdir]
       tools/extract_results.py --diff a.json b.json
       tools/extract_results.py --journal checkpoint.jsonl
       tools/extract_results.py --perf [--baseline BENCH_kernel.json] \
                                [--require-same-cells] file...
       tools/extract_results.py --perf --baseline BENCH_kernel.json \
                                --update-baseline [--force] new.json
       tools/extract_results.py --prof run.json...

With --stats, every extracted coverage table is cross-checked against
the MNM_STATS_JSON run manifest: each printed percentage must match the
coverage derived from the manifest's per-level decision confusion
matrix (predicted_miss_actual_miss over all actual misses) to within
rounding of the printed precision. Any mismatch -- or a manifest that
covers none of the printed cells -- is a failure. "<failed>" gap
markers (cells whose simulation crashed or timed out) are skipped and
reported, never treated as mismatches.

With --diff, two run manifests are compared for metric equality while
ignoring the fields that legitimately differ between runs: "meta",
"config.jobs" (the worker-process count), "config.progress", and the
"metrics.runner" and "metrics.prof" wall-clock subtrees. Used by CI to
prove sweeps fold identical statistics at any MNM_JOBS.

With --prof, each input's phase-attribution profile (the metrics.prof
subtree a run records under MNM_PROF=time|hw, or the per-cell "prof"
share blocks in a kernel-bench summary) is printed as per-phase
cycle/share tables: the process-wide totals, then each attributed cell
(sweep cells and bench (config, backend) cells alike). Hardware
columns (instr, llc_miss) print "-" when the run fell back to time
mode. An input without any profile is an error -- it means the run was
made without MNM_PROF.

With --journal, an MNM_CHECKPOINT journal is summarized: schema,
completed-cell count, total journaled instructions, and any torn or
foreign lines (reported, never fatal -- a truncated tail is exactly
what the journal is designed to survive). v2 journals additionally
carry per-record CRC-32 envelopes and the process-pool's operational
records; for those the tool verifies every CRC and summarizes leases
issued, re-issued cells, leased-but-uncommitted cells (the ones a
resuming run re-executes), worker respawns, poisoned cells, and any
corrupt (bit-flipped) records.

With --perf, each input is either a kernel-bench summary (schema
mnm-kernel-bench-v1 or -v2, written by bench_kernel_throughput under
MNM_BENCH_JSON) or an MNM_STATS_JSON run manifest. Summaries print
their per-cell instructions/sec (v2 cells are "config[backend]"); with
--baseline, each cell shared with the committed baseline is compared
and any throughput drop beyond 20% fails the run (CI's Release-build
regression gate). --require-same-cells additionally fails when the
baseline's cell set differs from the run's -- the staleness check CI
runs so a schema or config change cannot quietly dodge the gate.
Manifests print every per-cell metrics.runner.*.instr_per_sec gauge;
manifests from older schema revisions simply have none, which is
reported but never an error. When a gated cell regresses and the run
(and ideally the baseline) carries per-cell "prof" phase shares, the
failure is attributed: the phase whose share of the cell's time moved
most against the baseline is named (or, with a prof-less baseline, the
run's top phases are listed) -- so a ratchet trip ships a pointer at
the guilty stage, not just a ratio.

With --perf --update-baseline, the ratchet: the given summary replaces
the committed baseline file, printing every cell's delta. Lowering any
cell (or dropping one) is refused unless --force is also passed -- the
baseline only moves up by default, so a regression can only be
baselined deliberately.

Truncated or malformed JSON inputs are reported as such with a
non-zero exit; the tool never dies with a traceback on a partial file.
"""

import json
import os
import re
import sys
import zlib

#: Printed tables round to 1 decimal; allow half a ULP of that plus
#: float noise.
TOLERANCE = 0.05 + 1e-9

#: Manifest fields that legitimately differ between comparable runs.
#: metrics.prof is wall-clock-derived phase attribution (obs/
#: phase_profiler), exactly as wall-clocky as metrics.runner.
DIFF_IGNORED = ("meta", "config.jobs", "config.progress",
                "metrics.runner", "metrics.prof")


#: Gap marker printed by util/table.hh for failed sweep cells.
FAILED_CELL = "<failed>"


def load_json(path, what):
    """Parse a JSON document, returning None (with a report on stderr)
    for a missing, truncated, or otherwise malformed file."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as err:
        print(f"cannot read {what} {path}: {err}", file=sys.stderr)
    except json.JSONDecodeError as err:
        print(f"{what} {path} is truncated or malformed "
              f"(line {err.lineno}: {err.msg}); was the run killed "
              f"mid-write?", file=sys.stderr)
    return None


def slugify(title: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9]+", "_", title).strip("_").lower()
    return slug[:80] or "table"


def split_row(line: str):
    # Columns are separated by runs of >= 2 spaces.
    return [cell.strip() for cell in re.split(r"\s{2,}", line.strip())
            if cell.strip()]


def parse_tables(lines):
    """Yield (title, header, rows) for every printed table."""
    i = 0
    while i < len(lines):
        match = re.match(r"^== (.*) ==$", lines[i])
        if not match:
            i += 1
            continue
        title = match.group(1)
        header = None
        rows = []
        i += 1
        while i < len(lines):
            line = lines[i]
            if not line.strip() or line.startswith("== "):
                break
            if re.fullmatch(r"-+", line.strip()):
                i += 1
                continue
            cells = split_row(line)
            if header is None:
                header = cells
            elif len(cells) == len(header):
                rows.append(cells)
            i += 1
        if header and rows:
            yield title, header, rows


def derived_coverage_pct(confusion):
    """Coverage [%] from a per-level confusion subtree, exactly as
    DecisionMatrix::coverage() computes it: identified misses over all
    actual misses, summed across levels."""
    identified = 0
    actual_misses = 0
    for cells in confusion.values():
        pm_am = cells["predicted_miss_actual_miss"]
        identified += pm_am
        actual_misses += pm_am + cells["maybe_actual_miss"]
    return 100.0 * identified / actual_misses if actual_misses else 0.0


def cross_check(tables, manifest):
    """Compare printed coverage cells against the manifest. Returns
    (cells checked, failed-gap cells skipped, mismatch descriptions)."""
    sweep = manifest.get("metrics", {}).get("sweep", {})
    checked = 0
    gaps = 0
    mismatches = []
    for title, header, rows in tables:
        if "coverage" not in title.lower():
            continue
        for row in rows:
            app = row[0]
            for config, printed in zip(header[1:], row[1:]):
                if printed == FAILED_CELL:
                    # A crashed/timed-out cell: the bench printed a gap
                    # and the manifest holds no sweep metrics for it.
                    gaps += 1
                    continue
                entry = sweep.get(config, {}).get(app, {})
                confusion = entry.get("confusion")
                if confusion is None:
                    continue
                want = derived_coverage_pct(confusion)
                got = float(printed)
                checked += 1
                if abs(got - want) > TOLERANCE:
                    mismatches.append(
                        f"{title}: {app}/{config}: printed {got} "
                        f"but manifest derives {want:.6f}")
    return checked, gaps, mismatches


def strip_ignored(manifest):
    doc = json.loads(json.dumps(manifest))  # deep copy
    for dotted in DIFF_IGNORED:
        node = doc
        *parents, leaf = dotted.split(".")
        for segment in parents:
            node = node.get(segment, {})
        node.pop(leaf, None)
    return doc


def diff_values(a, b, path, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                out.append(f"{path}.{key}: only in second manifest")
            elif key not in b:
                out.append(f"{path}.{key}: only in first manifest")
            else:
                diff_values(a[key], b[key], f"{path}.{key}", out)
    elif a != b:
        out.append(f"{path}: {a!r} != {b!r}")


def run_diff(path_a, path_b) -> int:
    a = load_json(path_a, "manifest")
    b = load_json(path_b, "manifest")
    if a is None or b is None:
        return 1
    a = strip_ignored(a)
    b = strip_ignored(b)
    differences = []
    diff_values(a, b, "", differences)
    if differences:
        print(f"{path_a} and {path_b} differ "
              f"(ignoring {', '.join(DIFF_IGNORED)}):", file=sys.stderr)
        for line in differences:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"{path_a} and {path_b} are equivalent "
          f"(ignoring {', '.join(DIFF_IGNORED)})")
    return 0


#: Schema tags written by bench_kernel_throughput under MNM_BENCH_JSON.
#: v1 keyed cells by config alone; v2 adds a backend dimension.
KERNEL_BENCH_SCHEMAS = ("mnm-kernel-bench-v1", "mnm-kernel-bench-v2")

#: CI's Release-job gate: a config may lose at most this fraction of
#: its committed-baseline throughput before the run fails.
PERF_REGRESSION_LIMIT = 0.20


def perf_configs(doc):
    """{cell: instr_per_sec} from a kernel-bench summary, skipping
    malformed or non-positive cells rather than dying on them. v1 cells
    are keyed by config name; v2 cells by "config[backend]". The two
    key spaces never collide, so a schema change between a committed
    baseline and a fresh run shows up as fully-disjoint cell sets --
    exactly what --require-same-cells exists to catch."""
    out = {}
    for name, cell in doc.get("configs", {}).items():
        if not isinstance(cell, dict):
            continue
        if doc.get("schema") == "mnm-kernel-bench-v1":
            ips = cell.get("instr_per_sec")
            if isinstance(ips, (int, float)) and ips > 0:
                out[name] = float(ips)
            continue
        for backend, inner in cell.items():
            ips = (inner.get("instr_per_sec")
                   if isinstance(inner, dict) else None)
            if isinstance(ips, (int, float)) and ips > 0:
                out[f"{name}[{backend}]"] = float(ips)
    return out


def manifest_throughput(doc):
    """Flattened per-cell instr_per_sec gauges from a run manifest's
    metrics.runner subtree. Manifests from schema revisions that
    predate the gauge simply yield nothing."""
    rows = []

    def walk(node, path):
        if isinstance(node, dict):
            for key in sorted(node):
                walk(node[key], path + [key])
        elif (path and path[-1] == "instr_per_sec"
              and isinstance(node, (int, float))):
            rows.append((".".join(path[:-1]), float(node)))

    walk(doc.get("metrics", {}).get("runner", {}), [])
    return rows


def perf_prof_shares(doc):
    """{cell: {phase: share}} from a kernel-bench summary's optional
    per-cell "prof" blocks (written when the bench ran under MNM_PROF).
    Cells without a block are simply absent."""
    out = {}
    if doc.get("schema") != "mnm-kernel-bench-v2":
        return out
    for name, cell in doc.get("configs", {}).items():
        if not isinstance(cell, dict):
            continue
        for backend, inner in cell.items():
            prof = (inner.get("prof")
                    if isinstance(inner, dict) else None)
            if isinstance(prof, dict) and prof:
                out[f"{name}[{backend}]"] = {
                    p: float(s) for p, s in prof.items()
                    if isinstance(s, (int, float))}
    return out


def attribute_regression(name, run_prof_shares, base_prof_shares):
    """Attribution lines for one regressed cell: the phase whose share
    moved most vs the baseline, or the run's top phases when the
    baseline has no profile. Empty when the run has none either."""
    shares = run_prof_shares.get(name)
    if not shares:
        return []
    base = base_prof_shares.get(name)
    if base:
        moved = max(set(shares) | set(base),
                    key=lambda p: abs(shares.get(p, 0.0)
                                      - base.get(p, 0.0)))
        before = base.get(moved, 0.0)
        after = shares.get(moved, 0.0)
        return [f"    prof: '{moved}' share moved most: "
                f"{before:.1%} -> {after:.1%} ({after - before:+.1%})"]
    top = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
    listed = ", ".join(f"{p} {s:.1%}" for p, s in top)
    return [f"    prof: no baseline shares; this run's top phases: "
            f"{listed}"]


#: Phase order matching obs/phase_profiler.hh's Phase enum; unknown
#: phases sort after these, alphabetically.
PROF_PHASE_ORDER = ("run", "batch_gen", "l1_peek", "verdict",
                    "hier_walk", "update_feed", "cold_account",
                    "feed_drain", "gen_overlap")


def prof_phase_rows(node):
    """[(phase, counters-dict)] for one attributed entity: the dict
    children of @p node that look like phase leaves (have a numeric
    "cycles"), in enum order."""
    rows = []
    for name, child in node.items():
        if (isinstance(child, dict)
                and isinstance(child.get("cycles"), (int, float))):
            rows.append((name, child))
    order = {p: i for i, p in enumerate(PROF_PHASE_ORDER)}
    rows.sort(key=lambda kv: (order.get(kv[0], len(order)), kv[0]))
    return rows


def print_prof_table(title, rows, hw):
    """One per-phase attribution table. @p hw switches the hardware
    columns (instr, llc_miss) from "-" placeholders to numbers."""
    print(f"  {title}")
    print(f"    {'phase':<14} {'cycles':>16} {'share':>7} "
          f"{'instr':>16} {'llc_miss':>12}")
    for phase, c in rows:
        share = c.get("share", 0.0)
        instr = f"{c['instr']:16.0f}" if hw and "instr" in c else (
            f"{'-':>16}")
        llc = f"{c['llc_miss']:12.0f}" if hw and "llc_miss" in c else (
            f"{'-':>12}")
        print(f"    {phase:<14} {c.get('cycles', 0):16.0f} "
              f"{share:7.1%} {instr} {llc}")


def run_prof(paths) -> int:
    """Print per-phase attribution tables for each input (run manifest
    or kernel-bench summary). An input without a profile fails: asking
    for attribution a run never collected deserves a loud answer."""
    status = 0
    for path in paths:
        doc = load_json(path, "prof input")
        if doc is None:
            return 1
        if doc.get("schema") in KERNEL_BENCH_SCHEMAS:
            cells = perf_prof_shares(doc)
            if not cells:
                print(f"{path}: kernel-bench summary carries no prof "
                      f"blocks (re-run bench_kernel_throughput under "
                      f"MNM_PROF=time or hw)", file=sys.stderr)
                status = 1
                continue
            print(f"{path}: kernel bench, per-cell phase shares")
            for name in sorted(cells):
                listed = "  ".join(
                    f"{p} {s:7.1%}" for p, s in sorted(
                        cells[name].items(), key=lambda kv: -kv[1]))
                print(f"  {name:<28} {listed}")
            continue
        prof = doc.get("metrics", {}).get("prof")
        if not isinstance(prof, dict) or not prof:
            print(f"{path}: no metrics.prof subtree (was the run made "
                  f"with MNM_PROF=time or hw?)", file=sys.stderr)
            status = 1
            continue
        hw = prof.get("mode") == 2
        mode = {1: "time", 2: "hw"}.get(prof.get("mode"), "?")
        line = f"{path}: phase attribution, MNM_PROF={mode}"
        if prof.get("hw_fallback"):
            line += " (hw requested, fell back to time)"
        if isinstance(prof.get("tick_hz"), (int, float)):
            line += f", tick {prof['tick_hz'] / 1e9:.2f} GHz"
        print(line)
        totals = prof_phase_rows(prof)
        if totals:
            print_prof_table("process totals", totals, hw)
        for group in ("cell", "worker"):
            tree = prof.get(group)
            if not isinstance(tree, dict):
                continue
            # cell nests label.app; worker nests w<k> directly.
            for label in sorted(tree):
                node = tree[label]
                rows = prof_phase_rows(node)
                if rows:
                    print_prof_table(f"{group} {label}", rows, hw)
                    continue
                for app in sorted(node):
                    rows = prof_phase_rows(node[app])
                    if rows:
                        print_prof_table(f"{group} {label}.{app}",
                                         rows, hw)
        if not totals:
            print(f"{path}: metrics.prof holds no phase leaves",
                  file=sys.stderr)
            status = 1
    return status


def update_baseline(baseline_path, new_path, force) -> int:
    """The perf ratchet: install @p new_path as the committed baseline
    at @p baseline_path. Prints the per-cell delta. Refuses to LOWER any
    shared cell (or drop cells) without --force -- the baseline only
    ratchets upward; lowering it means accepting a regression, which
    must be a deliberate, visible act."""
    new_doc = load_json(new_path, "new baseline")
    if new_doc is None:
        return 1
    if new_doc.get("schema") not in KERNEL_BENCH_SCHEMAS:
        print(f"{new_path} is not a kernel-bench summary",
              file=sys.stderr)
        return 1
    new_cells = perf_configs(new_doc)
    if not new_cells:
        print(f"{new_path} holds no usable cells", file=sys.stderr)
        return 1

    old_cells = {}
    if os.path.exists(baseline_path):
        old_doc = load_json(baseline_path, "baseline")
        if old_doc is None:
            return 1
        old_cells = perf_configs(old_doc)

    lowered = []
    for name in sorted(set(new_cells) | set(old_cells)):
        if name not in old_cells:
            print(f"  {name:<28} {new_cells[name]:14.0f} instr/sec  "
                  f"(new cell)")
        elif name not in new_cells:
            print(f"  {name:<28} dropped (baseline had "
                  f"{old_cells[name]:.0f} instr/sec)")
            lowered.append(name)
        else:
            ratio = new_cells[name] / old_cells[name]
            print(f"  {name:<28} {old_cells[name]:14.0f} -> "
                  f"{new_cells[name]:14.0f} instr/sec  ({ratio:.2f}x)")
            if ratio < 1.0:
                lowered.append(name)
    if lowered and not force:
        print(f"refusing to lower the baseline for: "
              f"{', '.join(lowered)} (pass --force to accept the "
              f"regression deliberately)", file=sys.stderr)
        return 1

    # The committed baseline carries a "reference" block (recording
    # conditions, provenance) that bench runs do not emit; carry it
    # forward so a ratchet never silently drops the methodology note.
    if "reference" not in new_doc and old_cells:
        reference = old_doc.get("reference")
        if reference is not None:
            new_doc["reference"] = reference
    with open(baseline_path, "w", encoding="utf-8") as f:
        json.dump(new_doc, f, indent=2)
        f.write("\n")
    print(f"baseline {baseline_path} updated from {new_path}"
          + (" (--force)" if lowered else ""))
    return 0


def run_perf(baseline_path, paths, require_same_cells=False) -> int:
    """Print throughput summaries; gate against the baseline if given.
    Returns non-zero on unreadable inputs, a gated regression, or --
    under --require-same-cells -- a baseline whose cell set no longer
    matches what the bench produces (a stale committed baseline)."""
    baseline = None
    baseline_prof = {}
    if baseline_path is not None:
        doc = load_json(baseline_path, "baseline")
        if doc is None:
            return 1
        baseline = perf_configs(doc)
        baseline_prof = perf_prof_shares(doc)
        if not baseline:
            print(f"baseline {baseline_path} holds no usable configs",
                  file=sys.stderr)
            return 1

    status = 0
    for path in paths:
        doc = load_json(path, "perf input")
        if doc is None:
            return 1
        if doc.get("schema") in KERNEL_BENCH_SCHEMAS:
            configs = perf_configs(doc)
            run_prof_shares = perf_prof_shares(doc)
            # Gap-to-floor: every MNM cell as a fraction of the bare
            # hierarchy ("off") cell measured by the same run, so the
            # "NN% of the no-MNM floor" number in the ROADMAP is
            # computed, never hand-derived from two lines of output.
            floor = configs.get("off[n/a]", configs.get("off"))
            print(f"{path}: kernel bench, app {doc.get('app', '?')}, "
                  f"{doc.get('instructions', '?')} instructions/config")
            for name, ips in configs.items():
                line = f"  {name:<28} {ips:14.0f} instr/sec"
                if floor and not name.startswith("off"):
                    line += f"  {ips / floor:6.1%} of floor"
                extra = []
                if baseline is not None and name in baseline:
                    ratio = ips / baseline[name]
                    line += f"  ({ratio:.2f}x of baseline)"
                    if ratio < 1.0 - PERF_REGRESSION_LIMIT:
                        line += "  REGRESSION"
                        status = 1
                        extra = attribute_regression(
                            name, run_prof_shares, baseline_prof)
                elif baseline is not None:
                    line += "  (no baseline entry)"
                print(line)
                for attribution in extra:
                    print(attribution)
            if baseline is not None and require_same_cells and \
                    set(baseline) != set(configs):
                print(f"STALE baseline {baseline_path}: cells "
                      f"{sorted(set(baseline) ^ set(configs))} differ "
                      f"between baseline and this run -- re-measure and "
                      f"commit via --update-baseline", file=sys.stderr)
                status = 1
            if baseline is not None:
                for name in sorted(set(baseline) - set(configs)):
                    # A vanished config is suspicious but not gated
                    # (unless --require-same-cells): baselines may carry
                    # configs a trimmed run skips.
                    print(f"  {name:<28} missing from this run "
                          f"(baseline has it)", file=sys.stderr)
        elif "metrics" in doc:
            rows = manifest_throughput(doc)
            if rows:
                print(f"{path}: {len(rows)} per-cell throughput "
                      f"gauges")
                for cell, ips in rows:
                    print(f"  {cell:<40} {ips:14.0f} instr/sec")
            else:
                print(f"{path}: no per-cell instr_per_sec gauges "
                      f"(manifest predates the field); nothing to "
                      f"print")
        else:
            print(f"{path}: neither a kernel-bench summary nor a run "
                  f"manifest", file=sys.stderr)
            return 1
    if baseline is not None and status:
        print(f"throughput regression beyond "
              f"{PERF_REGRESSION_LIMIT:.0%} of {baseline_path}",
              file=sys.stderr)
    return status


#: Schema tags written by sim/recovery.cc (CheckpointJournal::schema).
#: v1 wrote bare result records; v2 wraps every record in a CRC-32
#: envelope and adds the process-pool's lease/respawn/poison records.
JOURNAL_SCHEMA_V1 = "mnm-checkpoint-v1"
JOURNAL_SCHEMA_V2 = "mnm-checkpoint-v2"

#: The v2 record envelope: {"crc":"<8hex>","rec":{...}}. Group 2 is
#: the exact text the CRC was computed over.
ENVELOPE_RE = re.compile(r'^\{"crc":"([0-9a-f]{8})","rec":(.*)\}$')


def summarize_v1(lines):
    """(entries, counters) from a v1 journal body: bare result records,
    anything else counts as torn."""
    entries = {}
    torn = 0
    for line in lines:
        try:
            record = json.loads(line)
            fingerprint = record["fp"]
            result = record["result"]
            result["instructions"]
        except (json.JSONDecodeError, KeyError, TypeError):
            torn += 1
            continue
        entries[fingerprint] = result
    return entries, {"torn": torn}


def summarize_v2(lines):
    """(entries, counters) from a v2 journal body. Every line must be a
    CRC envelope; the CRC is re-verified over the exact rec text, so a
    single flipped bit lands in "corrupt" rather than replaying a
    damaged result. Operational records (lease/respawn/poison) are
    folded into the counters."""
    entries = {}
    leases = {}
    counters = {"torn": 0, "corrupt": 0, "respawns": 0}
    poisoned = {}
    for line in lines:
        match = ENVELOPE_RE.match(line)
        if not match:
            counters["torn"] += 1
            continue
        crc_text, rec_text = match.groups()
        if f"{zlib.crc32(rec_text.encode('utf-8')) & 0xffffffff:08x}" \
                != crc_text:
            counters["corrupt"] += 1
            continue
        try:
            record = json.loads(rec_text)
            kind = record["type"]
        except (json.JSONDecodeError, KeyError, TypeError):
            counters["torn"] += 1
            continue
        if kind == "result":
            try:
                fingerprint = record["fp"]
                result = record["result"]
                result["instructions"]
            except (KeyError, TypeError):
                counters["torn"] += 1
                continue
            entries[fingerprint] = result
        elif kind == "lease":
            fp = record.get("fp")
            if fp is not None:
                leases[fp] = leases.get(fp, 0) + 1
        elif kind == "respawn":
            counters["respawns"] += 1
        elif kind == "poison":
            fp = record.get("fp")
            if fp is not None:
                poisoned[fp] = record.get("crashes", 0)
        else:
            counters["torn"] += 1
    counters["leases"] = sum(leases.values())
    counters["leased_cells"] = len(leases)
    counters["reissues"] = sum(n - 1 for n in leases.values() if n > 1)
    counters["uncommitted"] = sum(
        1 for fp in leases
        if fp not in entries and fp not in poisoned)
    counters["poisoned"] = len(poisoned)
    return entries, counters


def run_journal(path) -> int:
    """Summarize an MNM_CHECKPOINT journal: completed cells, journaled
    instructions, torn lines -- and, for v2, the lease/respawn/poison
    story of a process-pool run. Mirrors CheckpointJournal::load's
    tolerance -- a torn tail is reported, not fatal."""
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as err:
        print(f"cannot read journal {path}: {err}", file=sys.stderr)
        return 1
    lines = [line for line in lines if line.strip()]
    if not lines:
        print(f"{path}: empty journal (no header, nothing to replay)")
        return 0

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError:
        header = None
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema not in (JOURNAL_SCHEMA_V1, JOURNAL_SCHEMA_V2):
        print(f"{path}: unrecognized header schema {schema!r} "
              f"(expected {JOURNAL_SCHEMA_V1!r} or "
              f"{JOURNAL_SCHEMA_V2!r}); a resuming run would ignore "
              f"this journal and start fresh", file=sys.stderr)
        return 1

    if schema == JOURNAL_SCHEMA_V1:
        entries, counters = summarize_v1(lines[1:])
    else:
        entries, counters = summarize_v2(lines[1:])
    total_instructions = sum(r.get("instructions", 0)
                             for r in entries.values())
    violations = sum(1 for r in entries.values()
                     if r.get("soundness_violations", 0))
    print(f"{path}: schema {schema}, {len(entries)} completed cells, "
          f"{total_instructions} instructions journaled")
    if violations:
        print(f"  {violations} cells recorded soundness violations")
    if schema == JOURNAL_SCHEMA_V2:
        print(f"  {counters['leases']} leases issued over "
              f"{counters['leased_cells']} cells; "
              f"{counters['reissues']} re-issues after worker deaths")
        if counters["uncommitted"]:
            print(f"  {counters['uncommitted']} leased-but-uncommitted "
                  f"cells (a resuming run re-executes exactly these)")
        if counters["respawns"]:
            print(f"  {counters['respawns']} worker respawns")
        if counters["poisoned"]:
            print(f"  {counters['poisoned']} poisoned cells (rendered "
                  f"as {FAILED_CELL}; re-runs skip nothing -- poison "
                  f"records are advisory, the cells simply fail again)")
        if counters["corrupt"]:
            print(f"  {counters['corrupt']} corrupt records (CRC "
                  f"mismatch -- bit rot or a torn write mid-record); "
                  f"a resuming run re-runs those cells")
    if counters["torn"]:
        print(f"  {counters['torn']} torn/foreign lines skipped "
              f"(a resuming run skips them too and re-runs those cells)")
    return 0


def main() -> int:
    args = sys.argv[1:]
    if args[:1] == ["--diff"]:
        if len(args) != 3:
            print(__doc__, file=sys.stderr)
            return 1
        return run_diff(args[1], args[2])
    if args[:1] == ["--journal"]:
        if len(args) != 2:
            print(__doc__, file=sys.stderr)
            return 1
        return run_journal(args[1])
    if args[:1] == ["--prof"]:
        if len(args) < 2:
            print(__doc__, file=sys.stderr)
            return 1
        return run_prof(args[1:])
    if args[:1] == ["--perf"]:
        args = args[1:]
        baseline = None
        update = False
        force = False
        require_same_cells = False
        while args and args[0].startswith("--"):
            if args[0] == "--baseline" and len(args) >= 2:
                baseline = args[1]
                args = args[2:]
            elif args[0] == "--update-baseline":
                update = True
                args = args[1:]
            elif args[0] == "--force":
                force = True
                args = args[1:]
            elif args[0] == "--require-same-cells":
                require_same_cells = True
                args = args[1:]
            else:
                print(__doc__, file=sys.stderr)
                return 1
        if not args or (update and
                        (baseline is None or len(args) != 1)):
            print(__doc__, file=sys.stderr)
            return 1
        if update:
            return update_baseline(baseline, args[0], force)
        return run_perf(baseline, args, require_same_cells)

    stats_path = None
    if args[:1] == ["--stats"]:
        if len(args) < 3:
            print(__doc__, file=sys.stderr)
            return 1
        stats_path = args[1]
        args = args[2:]
    if not args:
        print(__doc__, file=sys.stderr)
        return 1
    path = args[0]
    outdir = args[1] if len(args) > 1 else "results"
    os.makedirs(outdir, exist_ok=True)

    with open(path, encoding="utf-8", errors="replace") as f:
        lines = f.read().splitlines()

    tables = list(parse_tables(lines))
    written = 0
    for title, header, rows in tables:
        out_path = os.path.join(outdir, slugify(title) + ".csv")
        with open(out_path, "w", encoding="utf-8") as out:
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(",".join(row) + "\n")
        written += 1
        print(f"wrote {out_path} ({len(rows)} rows)")
    print(f"{written} tables extracted")

    if stats_path is not None:
        manifest = load_json(stats_path, "manifest")
        if manifest is None:
            return 1
        checked, gaps, mismatches = cross_check(tables, manifest)
        for line in mismatches:
            print(f"MISMATCH {line}", file=sys.stderr)
        if mismatches:
            return 1
        if gaps:
            print(f"stats cross-check: {gaps} {FAILED_CELL} gap cells "
                  f"skipped", file=sys.stderr)
        if checked == 0:
            print("stats cross-check matched no table cells -- "
                  "is this a coverage figure with MNM_STATS_JSON set?",
                  file=sys.stderr)
            return 1
        print(f"stats cross-check: {checked} cells match {stats_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
