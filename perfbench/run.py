"""ptmc benchmark: four workloads, timed end to end and traced per module.

One workload, one fresh process:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints a summary, writes ``perfbench/.out/NAME-sN-tT.json`` (context, passes,
job records, metrics; with ``--trace 1`` also the spans) and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones, from traced passes alternating with untraced ones.

Every workload, each in its own process, with and without tracing:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

The exit code is 0 only when every job ran and passed its output check.
Seed 7340 is held out: it was never used while the benchmark was written,
so a claimed gain can be re-checked on it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0   # the whole process, set-up included, ends well within 180 s
CHILD_LIMIT_S = 180.0
WORKLOAD_NAMES = ["torus-build", "torus-verify", "hive-cover", "compound-growth"]


def _import_ptmc() -> bool:
    """Imports ptmc from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import ptmc
    except ImportError:
        return False
    return Path(ptmc.__file__).resolve().is_relative_to(SRC)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload, traced and not")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p


def _workdir(workload: str, seed: int) -> Path:
    return OUT / f"work-{workload}-s{seed}"


def _setup_seconds(workload: str, seed: int) -> float:
    """Times a fresh process from spawn until its inputs are ready."""
    spawned = time.time()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - spawned


def run_one(args) -> int:
    started = time.perf_counter()
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup(args.seed, _workdir(args.workload, args.seed))
        print(time.time(), flush=True)
        return 0
    if args.seconds is None:
        print("error: --seconds is required", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    setup_samples: list[float] = []
    wanted = 0 if args.trace else SETUP_SAMPLES

    def sample_setup():
        # one sample before each pass, so the median spans the run's machine states
        if len(setup_samples) < wanted:
            setup_samples.append(_setup_seconds(args.workload, args.seed))

    inputs = workload.setup(args.seed, _workdir(args.workload, args.seed))
    m = harness.measure(workload, inputs, args.seconds, bool(args.trace),
                        deadline=started + RUN_LIMIT_S, before_pass=sample_setup)
    while len(setup_samples) < wanted:
        sample_setup()
    if args.trace:
        metrics = harness.per_layer(m)
        units = {}
    else:
        metrics = harness.end_to_end(m, statistics.median(setup_samples))
        units = {"setup_s": "s", "wall_rel": "ratio", "peak_rss_mib": "MiB", "ok_share": "share"}
    result = {"correct": m.failed == 0, "attempted": len(m.records), "failed": m.failed,
              "metrics": {k: {"value": v, "unit": units.get(k, _layer_unit(k))}
                          for k, v in metrics.items()}}
    detail = {"context": harness.context(ROOT, args.workload, args.seed, args.seconds,
                                         bool(args.trace)),
              "setup_samples_s": setup_samples, "untraced_walls_s": m.walls,
              "traced_walls_s": m.traced_walls, "relative_walls": m.relative_walls,
              "deep_instance": m.probe,
              "jobs": [asdict(r) for r in m.records], "result": result}
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(OUT / f"{stem}.json", "w") as f:
        json.dump(detail, f, indent=1)
    if m.tracer is not None:
        m.tracer.dump(OUT / f"{stem}-spans.jsonl")
    for r in m.records:
        if r.error:
            print(f"FAILED {r.job} (pass {r.pass_no}): {r.error}")
    print(f"{args.workload} seed={args.seed} wall_s={statistics.median(m.walls):.4f}"
          f" passes={len(m.walls)} untraced"
          f" + {len(m.traced_walls)} traced, jobs={len(m.records)} failed={m.failed}"
          f" deep_instance={m.probe}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _layer_unit(name: str) -> str:
    if name.endswith("nodes_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("tile_yield"):
        return "share"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced; one summary."""
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ok = True
    rows = []
    for name in WORKLOAD_NAMES:
        row = {"workload": name}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=CHILD_LIMIT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            if not lines or not lines[-1].startswith("{"):
                continue
            result = json.loads(lines[-1])
            row[f"trace{trace}"] = result
            if trace == 0:
                row["failed_share"] = result["failed"] / result["attempted"]
                detail = json.loads((OUT / f"{name}-s{args.seed}-t0.json").read_text())
                row["deep_instance"] = detail["deep_instance"]
                row["wall_s"] = statistics.median(detail["untraced_walls_s"])
                row["passes"] = len(detail["untraced_walls_s"])
            else:
                row["search_nodes"] = result["metrics"]["cover.search.nodes"]["value"]
        rows.append(row)
    columns = [("setup_s", ".4f"), ("wall_s", ".4f"), ("passes", "d"), ("wall_rel", ".3f"),
               ("search_nodes", ".0f"), ("peak_rss_mib", ".1f"), ("failed_share", ".4f")]
    print(f"{'workload':16}" + "".join(f" {key:>12}" for key, _ in columns))
    for row in rows:
        e2e = row.get("trace0", {}).get("metrics", {})
        cells = []
        for key, fmt in columns:
            v = e2e[key]["value"] if key in e2e else row.get(key)
            cells.append(format(v, fmt).rjust(12) if v is not None else "-".rjust(12))
        print(f"{row['workload']:16} " + " ".join(cells))
    print("units: setup_s s, wall_s s (median over passes), wall_rel ratio (pass time over"
          " reference loop time), search_nodes count, peak_rss_mib MiB,"
          " failed_share share of attempted jobs")
    for row in rows:
        layers = row.get("trace1", {}).get("metrics", {})
        top = sorted(((v["value"], k) for k, v in layers.items()
                      if k.endswith(".self_s") and not k.startswith("job.")), reverse=True)[:3]
        overhead = layers.get("trace.overhead_s", {}).get("value")
        print(f"{row['workload']}: largest self time "
              + ", ".join(f"{k} {v:.3f} s" for v, k in top)
              + (f"; trace.overhead_s {overhead:.3f}" if overhead is not None else ""))
    for row in rows:
        if row.get("deep_instance"):
            print(f"{row['workload']}: deep instance (EDS of the 75x75 torus): {row['deep_instance']}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"summary-s{args.seed}.json", "w") as f:
        json.dump(rows, f, indent=1)
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        print("error: give --workload or --all", file=sys.stderr)
        return 2
    if not _import_ptmc():
        print(f"error: no ptmc package under {SRC}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
