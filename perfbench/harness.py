"""Runs a workload's passes, accounts for failures and computes the metrics.

A pass runs every job of the workload once, in order, in this process.
Each job runs under its own time limit; an exception, a timeout or a failed
output check marks the job failed and the benchmark carries on. Output
checks run after the pass, outside the timed region.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import NULL, Tracer
from workloads import CheckFailed

JOB_LIMIT_S = 120.0  # a job slower than this counts as timed out


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_limited(fn, limit: float):
    """Calls fn under a wall-clock limit; returns (output, error kind or None)."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return fn(), None
    except JobTimeout:
        return None, "timeout"
    except CheckFailed as e:
        return None, f"check: {e}"
    except Exception as e:  # a failed job is recorded and the run goes on
        return None, "".join(traceback.format_exception_only(type(e), e)).strip()[:200]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class JobRecord:
    job: str
    pass_no: int
    traced: bool
    start: float
    end: float
    relative: float           # wall time over the mean of the reference loops around it
    error: str | None = None  # exception, "timeout" or "check: ..."


def reference_s(n: int = 60_000) -> float:
    """Times a fixed pure-Python loop of tuple hashing and set and dict updates.

    On a shared 2-vCPU virtual machine (Intel Xeon, Python 3.11) the speed
    of pure-Python code changes by up to a third within a minute, and from
    one second to the next. Run between jobs, the loop tracks that speed, so
    a job's time over the loop times around it varies far less than the
    job's time. The loop uses no ptmc code and
    little memory, so a change to ptmc moves neither its time nor the peak
    resident set size.
    """
    start = time.perf_counter()
    seen: set = set()
    counts: dict = {}
    for i in range(n):
        t = (i % 61, i % 59)
        if t not in seen:
            seen.add(t)
        counts[t] = counts.get(t, 0) + 1
    return time.perf_counter() - start


def run_pass(jobs, tr, pass_no: int, deadline: float) -> tuple[list[JobRecord], list]:
    """Runs each job once, timed, with the reference loop between jobs.

    Returns the records and the outputs.
    """
    traced = tr is not NULL
    records, outputs = [], []
    if traced:
        tr.pass_no = pass_no
        tr.install()
    try:
        reference = reference_s()
        for job in jobs:
            def body(job=job):
                with tr.span("job"):
                    return job.run()
            if traced:
                tr.job = job.id
            limit = min(JOB_LIMIT_S, deadline - time.perf_counter())
            start = time.perf_counter()
            output, error = run_limited(body, limit) if limit > 0 else (None, "timeout")
            end = time.perf_counter()
            after = reference_s()
            records.append(JobRecord(job.id, pass_no, traced, start, end,
                                     2 * (end - start) / (reference + after), error))
            outputs.append(output)
            reference = after
    finally:
        if traced:
            tr.restore()
    return records, outputs


def check_pass(jobs, records: list[JobRecord], outputs: list) -> None:
    """Checks the output of every job that ran; a failed check fails the job."""
    for job, record, output in zip(jobs, records, outputs):
        if record.error is None:
            _, record.error = run_limited(lambda: job.check(output), JOB_LIMIT_S)


@dataclass
class Measurement:
    records: list[JobRecord]
    walls: list[float]         # untraced passes, sum of the jobs' wall times
    traced_walls: list[float]
    tracer: Tracer | None
    traced_passes: list[int]
    relative_walls: list[float]  # untraced passes, sum of the jobs' relative times
    peak_rss_mib: float          # after the passes, before the deep instance
    probe: str | None            # outcome kind or error of the deep instance

    @property
    def failed(self) -> int:
        return sum(r.error is not None for r in self.records)


def measure(workload, inputs: dict, seconds: float, trace: bool, deadline: float,
            before_pass=lambda: None) -> Measurement:
    """Repeats passes for `seconds`; with trace, alternates untraced and traced passes.

    before_pass runs ahead of each pass, outside its timed region.
    """
    tracer = Tracer() if trace else None
    job_lists = {False: workload.jobs(inputs, NULL)}
    if trace:
        job_lists[True] = workload.jobs(inputs, tracer)
    records: list[JobRecord] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    traced_passes = []
    relative_walls = []
    start = time.perf_counter()
    pass_no = 0
    while True:
        traced = trace and pass_no % 2 == 1
        before_pass()
        recs, outputs = run_pass(job_lists[traced], tracer if traced else NULL, pass_no, deadline)
        check_pass(job_lists[traced], recs, outputs)
        records += recs
        walls[traced].append(sum(r.end - r.start for r in recs))
        if traced:
            traced_passes.append(pass_no)
        else:
            relative_walls.append(sum(r.relative for r in recs))
        pass_no += 1
        now = time.perf_counter()
        if now >= deadline or (now - start >= seconds and (not trace or pass_no >= 2)):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe = None
    deep = getattr(workload, "probe", None)
    fn = deep(inputs) if deep else None
    if fn is not None:
        outcome, error = run_limited(fn, max(1.0, min(JOB_LIMIT_S, deadline - time.perf_counter())))
        probe = error or outcome.kind
    return Measurement(records, walls[False], walls[True], tracer, traced_passes,
                       relative_walls, peak_rss_mib, probe)


def end_to_end(m: Measurement, setup_s: float) -> dict[str, float]:
    attempted = len(m.records)
    return {
        "setup_s": setup_s,
        "wall_rel": statistics.median(m.relative_walls),
        "peak_rss_mib": m.peak_rss_mib,
        "ok_share": (attempted - m.failed) / attempted,
    }


def per_layer(m: Measurement) -> dict[str, float]:
    out = m.tracer.layer_metrics(m.traced_passes)
    out["cover.deep_instance.failed"] = int(m.probe is not None and m.probe != "solution")
    out["trace.overhead_s"] = statistics.median(m.traced_walls) - statistics.median(m.walls)
    return out


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def context(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """What makes two results comparable field by field."""
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": git_commit(root), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg())}
