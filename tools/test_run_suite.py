#!/usr/bin/env python3
"""Checks of the suite gates' arithmetic (tools/run_suite.py), of
extract_results.py's journal summary and refusals (journals a resuming
run ignores, options it does not know), and of the environment-knob
inventory: the MNM_* names src/ reads with getenv (one site each), the
names ExperimentOptions::fromEnv accepts, src/sim/experiment.hh's knob
comment and README's knob block are one and the same set. Runs under
ctest; no bench is run.

usage: python3 tools/test_run_suite.py
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
import unittest
import zlib
from unittest import mock

# Import the tools from beside this file without leaving a bytecode
# cache in the source tree.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import extract_results  # noqa: E402
import run_suite  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BASE = [40.0, 41.0, 39.5, 40.5, 42.0, 40.2, 39.8, 41.5, 40.8, 39.9]


def record(work_by_bench, instructions="default", apps="all"):
    return {"schema": run_suite.RECORD_SCHEMA,
            "instructions": instructions, "apps": apps,
            "benches": [{"bench": b, "work": dict(w)}
                        for b, w in work_by_bench.items()]}


WORK = {
    "fig14_hmnm_coverage": {"instructions": 1100, "l1_probes": 900,
                            "probes": 120, "bypasses": 40,
                            "verdicts": 160, "feed_events": 300},
    "fig15_exec_reduction": {"instructions": 2200, "l1_probes": 1800,
                             "probes": 200, "bypasses": 70,
                             "verdicts": 210, "feed_events": 500},
}


class PairedGateTest(unittest.TestCase):
    def test_identical_samples_pass(self):
        verdict = run_suite.paired_verdict(BASE, list(BASE))
        self.assertEqual(verdict["slower"], 0)
        self.assertFalse(verdict["fail"])

    def test_always_slower_beyond_iqr_fails(self):
        this = [b * 1.2 for b in BASE]
        verdict = run_suite.paired_verdict(BASE, this)
        self.assertEqual(verdict["slower"], 10)
        self.assertGreater(verdict["this"][1] - verdict["base"][1],
                           verdict["iqr"])
        self.assertTrue(verdict["fail"])

    def test_eight_of_ten_slower_passes(self):
        this = [b * 1.2 for b in BASE]
        this[3] = BASE[3] - 1.0
        this[7] = BASE[7] - 1.0
        verdict = run_suite.paired_verdict(BASE, this)
        self.assertEqual(verdict["slower"], 8)
        self.assertFalse(verdict["fail"])

    def test_always_slower_within_iqr_passes(self):
        this = [b + 0.1 for b in BASE]
        verdict = run_suite.paired_verdict(BASE, this)
        self.assertEqual(verdict["slower"], 10)
        self.assertLessEqual(verdict["this"][1] - verdict["base"][1],
                             verdict["iqr"])
        self.assertFalse(verdict["fail"])

    def test_pair_count_is_the_constant(self):
        self.assertEqual(run_suite.PAIRS, 10)
        self.assertEqual(run_suite.SLOWER_TO_FAIL, 9)


class WorkGateTest(unittest.TestCase):
    def test_equal_work_passes(self):
        refusal, moved = run_suite.compare_work(record(WORK), record(WORK))
        self.assertIsNone(refusal)
        self.assertEqual(moved, [])

    def test_one_counter_difference_fails_and_names_it(self):
        changed = json.loads(json.dumps(WORK))
        changed["fig15_exec_reduction"]["verdicts"] += 1
        refusal, moved = run_suite.compare_work(record(WORK),
                                                record(changed))
        self.assertIsNone(refusal)
        self.assertEqual(len(moved), 1)
        self.assertIn("fig15_exec_reduction.verdicts", moved[0])
        self.assertIn("210 -> 211", moved[0])
        self.assertIn("per instruction", moved[0])

    def test_missing_bench_is_a_difference(self):
        fewer = {"fig14_hmnm_coverage": WORK["fig14_hmnm_coverage"]}
        refusal, moved = run_suite.compare_work(record(WORK), record(fewer))
        self.assertIsNone(refusal)
        self.assertEqual(len(moved), 1)
        self.assertIn("fig15_exec_reduction", moved[0])

    def test_budget_mismatch_is_refused(self):
        refusal, moved = run_suite.compare_work(
            record(WORK), record(WORK, instructions="200000"))
        self.assertIsNotNone(refusal)
        self.assertIn("MNM_INSTRUCTIONS", refusal)
        self.assertEqual(moved, [])
        refusal, _ = run_suite.compare_work(record(WORK),
                                            record(WORK, apps="gzip"))
        self.assertIn("MNM_APPS", refusal)

    def test_record_without_work_is_refused(self):
        old = record(WORK)
        old["schema"] = "mnm-suite-v1"
        refusal, _ = run_suite.compare_work(old, record(WORK))
        self.assertIsNotNone(refusal)


class ExtractResultsTest(unittest.TestCase):
    def summarize(self, lines):
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "ckpt.jsonl")
            with open(path, "w") as f:
                f.write("\n".join(lines) + "\n")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = extract_results.run_journal(path)
            return rc, out.getvalue(), err.getvalue()

    def test_v1_journal_is_refused(self):
        rc, out, err = self.summarize([
            json.dumps({"schema": "mnm-checkpoint-v1"}),
            json.dumps({"fp": "abc", "result": {"instructions": 10}}),
        ])
        self.assertEqual(rc, 1)
        self.assertNotIn("completed cells", out)
        self.assertIn("start fresh", err)

    @staticmethod
    def envelope(record):
        rec = json.dumps(record, separators=(",", ":"))
        crc = zlib.crc32(rec.encode("utf-8")) & 0xffffffff
        return f'{{"crc":"{crc:08x}","rec":{rec}}}'

    def lease(self, fp, seq):
        return self.envelope({"type": "lease", "fp": fp, "worker": 0,
                              "seq": seq})

    def test_resumed_runs_fresh_leases_are_not_reissues(self):
        # Two runs each lease the same two cells once: seq restarts at
        # 1 in every run, so nothing was re-issued.
        header = json.dumps({"schema": "mnm-checkpoint-v2"})
        first_run = [self.lease("a", 1), self.lease("b", 1)]
        resumed = [self.lease("a", 1), self.lease("b", 1)]
        rc, out, _ = self.summarize([header] + first_run + resumed)
        self.assertEqual(rc, 0)
        self.assertIn("4 leases issued over 2 cells; 0 re-issues", out)
        # A second issue of one cell within a run is a re-issue.
        rc, out, _ = self.summarize([header] + first_run + resumed +
                                    [self.lease("a", 2)])
        self.assertEqual(rc, 0)
        self.assertIn("5 leases issued over 2 cells; 1 re-issues", out)

    def test_v2_journal_is_summarized(self):
        rc, out, _ = self.summarize(
            [json.dumps({"schema": "mnm-checkpoint-v2"})])
        self.assertEqual(rc, 0)
        self.assertIn("0 completed cells", out)

    def test_unknown_option_is_refused(self):
        err = io.StringIO()
        argv = ["extract_results.py", "--perf", "summary.json"]
        with mock.patch.object(sys, "argv", argv), \
                contextlib.redirect_stderr(err):
            self.assertEqual(extract_results.main(), 1)
        self.assertIn("unknown option --perf", err.getvalue())


def getenv_sites():
    """Every getenv("MNM_...") call in src/, one name per call site."""
    sites = []
    for root, _, files in os.walk(os.path.join(REPO, "src")):
        for name in files:
            if name.endswith((".cc", ".hh")):
                with open(os.path.join(root, name)) as f:
                    sites += re.findall(
                        r'getenv\("(MNM_[A-Z0-9_]+)"\)', f.read())
    return sites


def source_knobs():
    """Every MNM_* name src/ reads with getenv("...")."""
    return set(getenv_sites())


def accepted_knobs():
    """The known_knobs list ExperimentOptions::fromEnv accepts."""
    with open(os.path.join(REPO, "src", "sim", "experiment.cc")) as f:
        text = f.read()
    block = text.split("known_knobs[] = {", 1)[1].split("};", 1)[0]
    return re.findall(r'"(MNM_[A-Z0-9_]+)"', block)


def experiment_hh_knobs():
    """The knob names listed in src/sim/experiment.hh's file comment."""
    with open(os.path.join(REPO, "src", "sim", "experiment.hh")) as f:
        comment = f.read().split("*/", 1)[0]
    return set(re.findall(r"^ \*   (MNM_[A-Z0-9_]+)\s", comment, re.M))


def readme_knobs():
    """The knob names set in README's "Environment knobs" block."""
    with open(os.path.join(REPO, "README.md")) as f:
        text = f.read()
    block = text.split("Environment knobs", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    return set(re.findall(r"^(MNM_[A-Z0-9_]+)=", block, re.M))


class KnobInventoryTest(unittest.TestCase):
    def test_source_reads_knobs(self):
        self.assertIn("MNM_JOBS", source_knobs())

    def test_experiment_hh_lists_every_knob(self):
        missing = source_knobs() - experiment_hh_knobs()
        self.assertEqual(missing, set(),
                         "read in src/ but not in experiment.hh's knob "
                         "comment")

    def test_readme_lists_every_knob(self):
        missing = source_knobs() - readme_knobs()
        self.assertEqual(missing, set(),
                         "read in src/ but not in README's knob block")

    def test_every_documented_knob_is_read(self):
        self.assertEqual(experiment_hh_knobs() - source_knobs(), set(),
                         "in experiment.hh's knob comment but never read")
        self.assertEqual(readme_knobs() - source_knobs(), set(),
                         "in README's knob block but never read")

    def test_from_env_accepts_exactly_the_read_knobs(self):
        accepted = accepted_knobs()
        self.assertEqual(len(accepted), len(set(accepted)),
                         "known_knobs lists a name twice")
        self.assertEqual(set(accepted), source_knobs())

    def test_each_knob_has_one_reader(self):
        sites = getenv_sites()
        repeated = {n for n in sites if sites.count(n) > 1}
        self.assertEqual(repeated, set(),
                         "read by more than one getenv() in src/")


if __name__ == "__main__":
    unittest.main()
