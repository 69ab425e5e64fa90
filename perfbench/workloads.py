"""The benchmark's workloads: job lists made from a seed, and their oracles.

Every job runs in its own fresh process.  A CLI job is ``pentads ARGS``; a
library job is ``child.py brackets ...``.  Each job carries an oracle that
reads the job's stdout and returns None when it is right, or the reason it
is not.  Oracles are closed forms, never a stored earlier output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from child import input_file


@dataclass(frozen=True)
class Job:
    label: str
    kind: str  # "cli" or "brackets"
    args: tuple[str, ...]
    check: Callable[[dict], str | None]

    def verdict(self, rc: int, stdout: bytes) -> str | None:
        """None when the job exited 0 and its output passes the oracle."""
        if rc != 0:
            return f"exit code {rc}"
        try:
            return self.check(json.loads(stdout))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: tuple[str, ...]  # catalog examples written as pentad files at set-up
    jobs: Callable  # (job seeds, workdir) -> list[Job]
    seeds_per_pass: int
    top: str  # label of the largest (longest-running) rung
    small: str  # label of the smallest rung


def _expect(cond: bool, what: str) -> str | None:
    return None if cond else what


def _not_regular(m: int):
    def check(doc: dict) -> str | None:
        return (_expect(doc["outcome"] == "NotRegular", f"outcome {doc['outcome']}")
                or _expect(doc["witness"]["clause"] == "module_partner_kernel",
                           f"clause {doc['witness']['clause']}")
                or _expect(doc["ranks"]["dual_partner_injectivity"] == [m, m],
                           f"dual ranks {doc['ranks']['dual_partner_injectivity']}")
                or _expect(doc["verified"] is True, "certificate not verified"))
    return check


def _regular(m: int):
    def check(doc: dict) -> str | None:
        return (_expect(doc["outcome"] == "Regular", f"outcome {doc['outcome']}")
                or _expect(doc["ranks"] == {"dual_partner_injectivity": [m, m],
                                            "module_partner_injectivity": [m, m]},
                           f"ranks {doc['ranks']}")
                or _expect(doc["verified"] is True, "certificate not verified"))
    return check


def symmetric_dims(by_degree: tuple[int, ...]) -> dict[str, int]:
    """{"-k": .., "k": ..} from (dim U_0, dim U_1, ..., dim U_top)."""
    out = {}
    for k, n in enumerate(by_degree):
        out[str(k)] = out[str(-k)] = n
    return out


def _graded_dims(dims: dict[str, int]):
    def check(doc: dict) -> str | None:
        return (_expect(doc["dims"] == dims, f"dims {doc['dims']}")
                or _expect(doc["minimal"] is True, "not minimal")
                or _expect(doc["grading_checked"] is True, "grading not checked"))
    return check


def _brackets(dims: dict[str, int], triples: int):
    def check(doc: dict) -> str | None:
        return (_expect(doc["dims"] == dims, f"dims {doc['dims']}")
                or _expect(doc["triples"] == triples, f"{doc['triples']} triples")
                or _expect(not doc["jacobi_failures"],
                           f"Jacobi fails on {doc['jacobi_failures']}")
                or _expect(not doc["antisymmetry_failures"],
                           f"antisymmetry fails on {doc['antisymmetry_failures']}"))
    return check


MSX = {2: 12, 3: 18, 4: 24, 5: 30}  # n -> module dimension m of matrix_space_example(n)
SO = (8, 10, 12)
GRADED_DIMS = (
    ("matrix_space_example(2)", 3, (14, 12, 66, 572)),
    ("matrix_space_example(3)", 2, (25, 18, 153)),
    ("gl1_so_vector(5)", 3, (11, 5, 10, 40)),
    ("gl1_so_vector(4)", 4, (7, 4, 6, 20, 60)),
)
BRACKETS = (
    ("matrix_space_example(2)", 2, (14, 12, 66), 15),
    ("gl1_so_vector(4)", 3, (7, 4, 6, 20), 34),
)


def _msx_jobs(seeds, workdir):
    return [Job(f"matrix_space_example({n})", "cli",
                ("regularity", "--verify-certificate", "--seed", str(seed),
                 "--example", f"matrix_space_example({n})"), _not_regular(m))
            for (n, m), seed in zip(MSX.items(), seeds)]


def _so_jobs(seeds, workdir):
    return [Job(f"gl1_so_vector({m})", "cli",
                ("regularity", "--verify-certificate", "--seed", str(seed),
                 "--pentad", input_file(workdir, f"gl1_so_vector({m})")), _regular(m))
            for m, seed in zip(SO, seeds)]


def _graded_jobs(seeds, workdir):
    dims_jobs = [Job(f"{ex}@{k}", "cli",
                     ("graded-dims", "--example", ex, "--max-degree", str(k)),
                     _graded_dims(symmetric_dims(dims)))
                 for ex, k, dims in GRADED_DIMS]
    bracket_jobs = [Job(f"brackets:{ex}@{k}", "brackets", (ex, str(k), str(seed)),
                        _brackets(symmetric_dims(dims), triples))
                    for (ex, k, dims, triples), seed in zip(BRACKETS, seeds)]
    return dims_jobs + bracket_jobs


WORKLOADS = {w.name: w for w in (
    Workload("regularity-msx",
             "no unit vector is generic, so find_generic and Phi evaluation dominate",
             (), _msx_jobs, len(MSX),
             "matrix_space_example(5)", "matrix_space_example(2)"),
    Workload("regularity-so",
             "the first unit vector is generic, so pentad-file load and validation dominate",
             tuple(f"gl1_so_vector({m})" for m in SO), _so_jobs, len(SO),
             "gl1_so_vector(12)", "gl1_so_vector(8)"),
    Workload("graded",
             "graded construction (extend, check_grading) and cold-memo bracket queries; "
             "never touches preh",
             (), _graded_jobs, len(BRACKETS),
             "brackets:matrix_space_example(2)@2", "gl1_so_vector(5)@3"),
)}


def pass_jobs(workload: Workload, rng, workdir: str, small_repeats: int = 1) -> list[Job]:
    """One pass's job list; the seeds it passes on come from the run's rng.

    The smallest rung runs small_repeats times, first: a job that short is
    mostly process start-up, so it needs more samples than the others.
    """
    seeds = [rng.randrange(2 ** 31) for _ in range(workload.seeds_per_pass)]
    jobs = workload.jobs(seeds, workdir)
    small = next(job for job in jobs if job.label == workload.small)
    return [small] * (small_repeats - 1) + jobs
