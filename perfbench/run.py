"""The pentads benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs a closed loop: each job starts only after the previous one
has finished, in a fresh process (``python3 -m pentads.cli ...``, or a fresh
interpreter running ``child.py`` for the library workload).  Passes over the
workload's job list repeat while the next one fits in S seconds (there is
always at least one); the end-to-end times are medians over the run, in
reference seconds (see probe.py).  The run and its children stay on one
core, which the speed probe shares.  Every job's stdout goes through a
closed-form oracle; a job that fails it counts as failed and the run goes
on.

With ``--trace 1`` the run makes one untraced pass and then the same pass
again with every job traced from outside the program (see tracer.py), checks
that each traced job printed exactly the bytes of its untraced twin, and
reports the per-layer metrics and the tracing overhead instead.

The program is taken from ``src/`` next to this directory.  Stdout lists
the run's metadata, every job, and every metric with its unit; its last line
is the JSON result.  The same record, with the stdout sha256 of every job,
is written to ``.perfbench/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from probe import SAMPLE_PERIOD_S, probe_once, reference_seconds
from workloads import WORKLOADS, Job, pass_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
# An untraced run sets up at least MIN_SETUPS times and until SETUP_BUDGET_S
# have gone by; setup_s is the median.
MIN_SETUPS = 3
SETUP_BUDGET_S = 2.0
SMALL_REPEATS = 3  # runs of the smallest rung per untraced pass
DEADLINE_S = 170.0  # a run must end within 180 s, so no job runs past this

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "top_job_s": "s",
                    "small_job_s": "s", "peak_rss_mb": "MB"}


@dataclass
class JobRecord:
    label: str
    rc: int
    wall_s: float
    rss_mb: float
    probe_s: float
    stdout: bytes
    error: str | None

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


class Runner:
    """Starts one child at a time and reaps it with its resource usage and
    the speed probe's readings before, during and after it."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.last_probe = probe_once()

    def argv(self, job: Job, trace_path: Path | None) -> list[str]:
        if job.kind == "cli" and trace_path is None:
            return [sys.executable, "-m", "pentads.cli", *job.args]
        if job.kind == "cli":
            return [sys.executable, str(CHILD), "cli", str(trace_path), job.label,
                    "--", *job.args]
        extra = [] if trace_path is None else [str(trace_path), job.label]
        return [sys.executable, str(CHILD), "brackets", *job.args, *extra]

    def spawn(self, argv: list[str], name: str) -> tuple[int, float, float, float, bytes]:
        """(exit code, wall seconds with the probe's pauses left out, peak RSS
        in MB, median probe reading, stdout) of one child."""
        out_path = self.workdir / f"{name}.out"
        timeout = max(1.0, self.deadline - perf_counter())
        readings = [self.last_probe]
        paused = 0.0
        with open(out_path, "wb") as out, open(self.workdir / f"{name}.err", "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            exited = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(exited, select.POLLIN)
                while not poller.poll(SAMPLE_PERIOD_S * 1000):
                    os.kill(proc.pid, signal.SIGSTOP)
                    stopped = perf_counter()
                    readings.append(probe_once())
                    os.kill(proc.pid, signal.SIGCONT)
                    paused += perf_counter() - stopped
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                os.close(exited)
            wall = perf_counter() - start - paused
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.last_probe = probe_once()
        readings.append(self.last_probe)
        return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
                statistics.median(readings), out_path.read_bytes())

    def run(self, job: Job, trace_path: Path | None = None) -> JobRecord:
        name = job.label + (".traced" if trace_path else "")
        rc, wall, rss, probe_s, stdout = self.spawn(self.argv(job, trace_path), name)
        return JobRecord(job.label, rc, wall, rss, probe_s, stdout, job.verdict(rc, stdout))


def run_pass(jobs: list[Job], run_job) -> tuple[float, list[JobRecord]]:
    """Closed loop over one pass; returns its wall time (the jobs' own, so
    probes and oracle checks between them stay out) and the job records."""
    records = [run_job(job) for job in jobs]
    return sum(r.wall_s for r in records), records


def git_revision(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def untraced_metrics(workload, setups, passes, scaled: bool = True) -> dict[str, float]:
    """End-to-end metrics of a run: medians of its samples, each sample in
    reference seconds when scaled (see probe.py), else as timed."""
    def seconds(wall_s: float, probe_s: float) -> float:
        return reference_seconds(wall_s, probe_s) if scaled else wall_s

    def job_seconds(label: str) -> float:
        return statistics.median(seconds(r.wall_s, r.probe_s)
                                 for _, recs in passes for r in recs if r.label == label)

    return {
        "setup_s": statistics.median(seconds(w, p) for w, p in setups),
        "wall_s": statistics.median(sum(seconds(r.wall_s, r.probe_s) for r in recs)
                                    for _, recs in passes),
        "top_job_s": job_seconds(workload.top),
        "small_job_s": job_seconds(workload.small),
        "peak_rss_mb": max(r.rss_mb for _, recs in passes for r in recs),
    }


def compare_traced(plain: list[JobRecord], traced: list[JobRecord]) -> None:
    """A traced job whose stdout differs from its untraced twin fails."""
    for p, t in zip(plain, traced):
        if t.error is None and t.stdout != p.stdout:
            t.error = "traced stdout differs from the untraced run"


def measure(args, workload, workdir: Path, runner: Runner, deadline: float) -> int:
    """Set up, run the passes, check and report; returns the exit code."""
    meta = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_revision": git_revision(ROOT),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_start": list(os.getloadavg())}

    setup_argv = [sys.executable, str(CHILD), "setup", str(workdir), *workload.inputs]
    setups: list[tuple[float, float]] = []  # (wall, probe around it)
    while not setups or (args.trace == 0 and (len(setups) < MIN_SETUPS
                                              or sum(w for w, _ in setups) < SETUP_BUDGET_S)):
        rc, wall, _, probe_s, _ = runner.spawn(setup_argv, "setup")
        if rc != 0:
            print(f"set-up failed with exit code {rc}; see {workdir}/setup.err",
                  file=sys.stderr)
            return 1
        setups.append((wall, probe_s))

    rng = random.Random(args.seed)
    passes: list[tuple[float, list[JobRecord]]] = []
    inclusive: dict[str, dict[str, float]] = {}  # job -> span name -> seconds
    if args.trace == 0:
        start = perf_counter()
        while True:
            pass_start = perf_counter()
            jobs = pass_jobs(workload, rng, str(workdir), SMALL_REPEATS)
            passes.append(run_pass(jobs, runner.run))
            now = perf_counter()
            # another pass only if one as long as the last still fits in S
            if now + (now - pass_start) > min(start + args.seconds, deadline):
                break
        meta["as_timed"] = untraced_metrics(workload, setups, passes, scaled=False)
        metrics = untraced_metrics(workload, setups, passes)
        units = dict(END_TO_END_UNITS)
    else:
        import tracer
        jobs = pass_jobs(workload, rng, str(workdir))
        passes.append(run_pass(jobs, runner.run))
        paths = {job.label: workdir / f"{job.label}.trace.json" for job in jobs}
        passes.append(run_pass(jobs, lambda job: runner.run(job, paths[job.label])))
        compare_traced(passes[0][1], passes[1][1])
        traces = []
        for rec in passes[1][1]:
            try:
                traces.append(json.loads(paths[rec.label].read_text()))
            except (OSError, ValueError) as exc:
                rec.error = rec.error or f"no trace: {exc}"
        metrics = tracer.layer_metrics(traces)
        metrics["trace.overhead"] = passes[1][0] / passes[0][0]
        units = {**tracer.metric_units(), "trace.overhead": "ratio"}
        for doc in traces:
            times = tracer.inclusive_times(doc["spans"])
            inclusive[doc["job"]] = dict(sorted(times.items(), key=lambda kv: -kv[1]))

    records = [r for _, recs in passes for r in recs]
    failed = sum(r.error is not None for r in records)
    meta["loadavg_end"] = list(os.getloadavg())
    report = {
        "meta": meta,
        "fail_rate": failed / len(records),
        "setup_walls_s": setups,
        "jobs": [{"pass": i, "label": r.label, "exit": r.rc, "wall_s": r.wall_s,
                  "probe_s": r.probe_s, "rss_mb": r.rss_mb, "stdout_sha256": r.sha256,
                  "error": r.error}
                 for i, (_, recs) in enumerate(passes) for r in recs],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "inclusive_s": inclusive,
    }
    record_path = ROOT / ".perfbench" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(report, indent=2) + "\n")

    for key, value in meta.items():
        print(f"# {key}: {value}")
    for job in report["jobs"]:
        print(f"# pass {job['pass']} {job['label']:<36} exit {job['exit']} "
              f"{job['wall_s']:8.3f} s {job['rss_mb']:7.1f} MB "
              f"sha256 {job['stdout_sha256'][:16]} {job['error'] or 'ok'}")
    for label, times in inclusive.items():
        top = [f"{name} {t:.3f} s" for name, t in times.items() if name != "cli.main"][:4]
        print(f"# inclusive {label}: " + ", ".join(top))
    for name, m in report["metrics"].items():
        print(f"{name:<44} {m['value']:>16.6f} {m['unit']}")
    # fail_rate is 0 on a good run, so it travels as attempted/failed in the
    # result line rather than as a metric
    print(f"{'fail_rate':<44} {report['fail_rate']:>16.6f} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": report["metrics"]}))
    return 0



def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pentads" / "__init__.py").is_file():
        print(f"no pentads sources under {SRC}", file=sys.stderr)
        return 2

    # The speed probe must share a core with the jobs to see what they see.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = perf_counter() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    return measure(args, workload, workdir, Runner(workdir, deadline), deadline)


if __name__ == "__main__":
    sys.exit(main())
