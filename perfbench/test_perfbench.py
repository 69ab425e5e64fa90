"""Tests of the benchmark's own logic: span arithmetic, ratios, oracles,
tracing hygiene, and the shape of BENCHMARK.json."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent


def span(name, start, end, parent=-1, overhead=0.0):
    return [name, start, end, parent, "job", overhead]


class TestSpanArithmetic:
    def test_self_time_subtracts_children_and_overhead(self):
        spans = [
            span("root", 0.0, 10.0, overhead=0.5),
            span("a", 1.0, 4.0, parent=0),
            span("a.inner", 2.0, 3.0, parent=1),
            span("b", 5.0, 6.0, parent=0),
        ]
        assert tracer.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.0])

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 5.0, parent=0),
            span("b", 4.0, 6.0, parent=0),
            span("c", 9.0, 12.0, parent=0),
        ]
        assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_inclusive_time_counts_recursion_once(self):
        spans = [
            span("f", 0.0, 4.0),
            span("f", 1.0, 3.0, parent=0),
            span("g", 1.5, 2.0, parent=1),
            span("f", 5.0, 6.0),
        ]
        assert tracer.inclusive_times(spans) == pytest.approx({"f": 5.0, "g": 0.5})

    def test_layer_metrics_sum_calls_and_self_time_over_jobs(self):
        doc = {"spans": [span("preh.find_generic", 0.0, 3.0),
                         span("exact_linalg.rank", 1.0, 2.0, parent=0)],
               "counters": {}}
        out = tracer.layer_metrics([doc, doc])
        assert out["preh.find_generic.calls"] == 2
        assert out["preh.find_generic.self_s"] == pytest.approx(4.0)
        assert out["exact_linalg.rank.self_s"] == pytest.approx(2.0)
        assert out["preh.self_s"] == pytest.approx(4.0)
        assert out["exact_linalg.self_s"] == pytest.approx(2.0)


class TestRatios:
    def test_yields_from_counters(self):
        docs = [{"spans": [], "counters": {"graded.candidates": 12,
                                           "graded.candidates_produced": 3,
                                           "preh.generic_candidates": 13,
                                           "preh.generic_found": 1,
                                           "exact_linalg.max_entry_bits": 9}},
                {"spans": [], "counters": {"graded.candidates": 8,
                                           "graded.candidates_produced": 2,
                                           "preh.generic_candidates": 7,
                                           "preh.generic_found": 1,
                                           "exact_linalg.max_entry_bits": 4}}]
        out = tracer.layer_metrics(docs)
        assert out["graded.candidate_yield"] == pytest.approx(5 / 20)
        assert out["preh.generic_yield"] == pytest.approx(2 / 20)
        assert out["exact_linalg.max_entry_bits"] == 9

    def test_empty_denominator_gives_zero(self):
        out = tracer.layer_metrics([{"spans": [], "counters": {}}])
        assert out["graded.candidate_yield"] == 0.0
        assert out["preh.generic_yield"] == 0.0

    def test_graded_candidates_counted_from_extend(self):
        from pentads import extend, resolve
        t = tracer.Tracer("job")
        g = extend(resolve("gl2_trace").build(), 3)  # dims 1, 2, 4, 2, 1
        t._count_graded("graded.extend", None, g)
        # per side: 2*2 candidates give dim U_2 = 1, 2*1 give dim U_3 = 0
        assert t.counters["graded.candidates"] == 12
        assert t.counters["graded.candidates_produced"] == 2

    def test_entry_bits(self):
        from fractions import Fraction
        assert tracer.entry_bits(-8) == 4
        assert tracer.entry_bits(Fraction(3, 1024)) == 11
        assert tracer.entry_bits(0) == 0


def _graded_dims_stdout(dims: tuple) -> bytes:
    return json.dumps({"dims": workloads.symmetric_dims(dims), "minimal": True,
                       "grading_checked": True}).encode()


class FakeRunner(run.Runner):
    """Returns canned stdout instead of starting a process."""

    def __init__(self, outputs):  # no probe, no processes
        self.outputs = outputs

    def spawn(self, argv, name):
        return self.outputs[name]


class TestOracles:
    def test_corrupted_output_counts_as_failed_and_run_continues(self):
        jobs = workloads.pass_jobs(workloads.WORKLOADS["graded"], random.Random(0), "w")
        jobs = [job for job in jobs if job.kind == "cli"]
        outputs = {}
        for job, (ex, k, dims) in zip(jobs, workloads.GRADED_DIMS):
            if job.label == "matrix_space_example(3)@2":
                dims = (25, 18, 154)  # one dimension off
            outputs[job.label] = (0, 0.1, 20.0, 0.04, _graded_dims_stdout(dims))
        wall, records = run.run_pass(jobs, FakeRunner(outputs).run)
        assert [r.label for r in records] == [j.label for j in jobs]
        failed = [r for r in records if r.error is not None]
        assert [r.label for r in failed] == ["matrix_space_example(3)@2"]
        assert "dims" in failed[0].error

    @pytest.mark.parametrize("rc, stdout, reason", [
        (1, b"{}", "exit code 1"),
        (0, b"not json", "unreadable output"),
        (0, b"{\"dims\": {}}", "dims"),
        (0, b"[]", "unreadable output"),
    ])
    def test_bad_outputs_are_failures_not_crashes(self, rc, stdout, reason):
        job = workloads.pass_jobs(workloads.WORKLOADS["graded"], random.Random(0), "w")[0]
        assert reason in job.verdict(rc, stdout)

    def test_regularity_oracles(self):
        msx = workloads.pass_jobs(workloads.WORKLOADS["regularity-msx"], random.Random(0), "w")
        good = {"outcome": "NotRegular", "witness": {"clause": "module_partner_kernel"},
                "ranks": {"dual_partner_injectivity": [12, 12]}, "verified": True}
        assert msx[0].verdict(0, json.dumps(good).encode()) is None
        assert msx[0].verdict(0, json.dumps({**good, "verified": False}).encode())
        assert msx[1].verdict(0, json.dumps(good).encode())  # n=3 needs rank 18

    def test_traced_stdout_must_match(self):
        plain = [run.JobRecord("a", 0, 1.0, 1.0, 0.04, b"x", None)]
        traced = [run.JobRecord("a", 0, 1.0, 1.0, 0.04, b"y", None)]
        run.compare_traced(plain, traced)
        assert traced[0].error is not None

    def test_degree_triples_match_the_stated_counts(self):
        assert len(child.degree_triples(2)) == 15
        assert len(child.degree_triples(3)) == 34


class TestTracing:
    def test_install_patches_every_namespace_and_uninstall_restores(self):
        from pentads import exact_linalg, graded, preh
        import pentads
        rank, rsb = exact_linalg.rank, exact_linalg.row_space_basis
        t = tracer.Tracer("job")
        t.install()
        try:
            assert preh.rank is not rank and preh.rank is exact_linalg.rank
            assert graded.row_space_basis is not rsb
            assert pentads.rank is preh.rank
            verdict = pentads.decide_regularity(pentads.resolve("gl1_so_vector(3)").build())
        finally:
            t.uninstall()
        assert preh.rank is rank and pentads.rank is rank
        assert graded.row_space_basis is rsb
        assert verdict.outcome == "Regular"
        names = [s[0] for s in t.spans]
        fg = names.index("preh.find_generic")
        assert t.spans[t.spans[fg][3]][0] == "preh.decide_regularity"
        assert t.counters["preh.generic_candidates"] == 1
        assert t.counters["exact_linalg.cells"] > 0

    def test_untraced_code_never_imports_the_tracer(self):
        code = ("import sys; import run, workloads, child; "
                "print('tracer' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=str(HERE)))
        assert out.stdout.strip() == "False", out.stderr

    def test_traced_cli_job_prints_the_same_bytes(self, tmp_path):
        job = workloads.Job("gl1_scalar", "cli", ("graded-dims", "--example", "gl1_scalar",
                                                  "--max-degree", "2"), lambda doc: None)
        runner = run.Runner(tmp_path, deadline=run.perf_counter() + 60)
        plain = runner.run(job)
        traced = runner.run(job, tmp_path / "trace.json")
        assert plain.rc == traced.rc == 0
        assert plain.stdout == traced.stdout
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert doc["spans"][0][0] == "cli.main"


class TestBenchmarkFile:
    def test_metric_names_match_the_code(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
        assert ({m["name"]: m["unit"] for m in bench["per_layer"]}
                == {**tracer.metric_units(), "trace.overhead": "ratio"})
        assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)

    def test_run_without_sources_fails_without_a_result(self, tmp_path):
        shutil.copytree(HERE, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "graded",
                              "--seed", "0", "--seconds", "1", "--trace", "0"],
                             cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert out.returncode != 0
        assert "correct" not in out.stdout
