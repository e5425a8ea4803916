"""Command-line front end: verify, construct, search, gamma, export, survey.

Every run prints a short human summary and assembles a machine-readable
run report (stable field order; identical inputs give identical reports up
to the trailing timing block). The report goes to --out when given, else
to stdout. Artifact files (code sets, graph renderings, solutions) are
written to --emit.

Exit codes: 0 success / verification pass, 1 verification failure or
failed construction goal, 2 usage error or bad input, 3 search timeout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import codes as codes_mod
from . import constructions as cons
from . import cover as cover_mod
from . import gamma2
from .codes import CodeSet, KappaAssignment, MissingRadiusError, code_from_json, code_to_json
from .graphs import Graph, grid_graph, lattice_graph
from .metric import Ambient

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _digest(parts: list) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _report(args, verdicts: dict, counts: dict, artifacts: list[str],
            inputs: dict, started: float) -> dict:
    # the subcommand and its parsed options, without the output paths
    options = sorted((k, v) for k, v in vars(args).items()
                     if k not in ("out", "emit", "fn", "_argv"))
    return {
        "command": args._argv,
        "inputs": {"digest": _digest(options), **inputs},
        "verdicts": verdicts,
        "counts": counts,
        "artifacts": artifacts,
        "timings": {"seconds": round(time.monotonic() - started, 6)},
    }


def _write_report(args, report: dict) -> None:
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _emit(args, text: str, artifacts: list[str]) -> None:
    if args.emit:
        with open(args.emit, "w") as f:
            f.write(text if text.endswith("\n") else text + "\n")
        artifacts.append(args.emit)
    else:
        print(text)


def _read_json(path: str, parse):
    """Load a JSON input file and parse the document with `parse`.

    A document of the wrong shape (a missing key, a list where an object
    belongs, an edge to an unknown vertex) is bad input, a ValueError,
    like a file that is not JSON at all.
    """
    with open(path) as f:
        doc = json.load(f)
    try:
        return parse(doc)
    except MissingRadiusError:
        raise
    except (KeyError, TypeError, AttributeError) as e:
        raise ValueError(f"{path}: malformed document ({type(e).__name__}: {e})") from e


def _load_graph(path: str) -> Graph:
    return _read_json(path, gamma2.graph_from_json)


def _code_or_vertex_ids(doc):
    """A code file with an ambient as a CodeSet, else its vertex id list."""
    if "ambient" in doc:
        return code_from_json(doc)[0]
    return [str(v) for v in doc["vertices"]]


def _report_verdict(rep: codes_mod.VerifyReport) -> dict:
    out = {"passed": rep.passed}
    if not rep.passed:
        out["failure"] = rep.kind
        out["witness"] = [list(w) if isinstance(w, tuple) else str(w) for w in rep.witness]
    if rep.independent is not None:
        out["independent"] = rep.independent
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> tuple[int, dict, dict, list]:
    if args.what == "ptmc":
        def parse(doc):
            if args.t is not None:
                doc.pop("kappa", None)  # --t replaces the map, so it is never resolved
            return code_from_json(doc)

        code, kappa = _read_json(args.code, parse)
        if args.t is not None:
            kappa = KappaAssignment.uniform(args.t)
        if kappa is None:
            raise ValueError("code file carries no radius map; pass --t")
        rep = codes_mod.verify_kappa_ptmc(code, kappa)
        counts = {"vertices": code.ambient.vertex_count(), "code": len(code),
                  "components": len(codes_mod.components_of(code))}
    else:
        # a code file with an ambient is checked on its own lattice graph;
        # a bare {"vertices": [ids]} list is checked against --graph
        code = _read_json(args.code, _code_or_vertex_ids)
        if isinstance(code, CodeSet):
            g = lattice_graph(code.ambient)
            s = list(code.vertices)
        elif args.graph:
            g = _load_graph(args.graph)
            s = code
            missing = [v for v in s if v not in g]
            if missing:
                raise ValueError(f"vertex {missing[0]!r} not in graph")
        else:
            raise ValueError("vertex-list codes need --graph")
        check = codes_mod.verify_pds if args.what == "pds" else codes_mod.verify_non_isolated_pds
        rep = check(s, g)
        counts = {"graph_vertices": len(g), "code": len(s)}
    verdict = _report_verdict(rep)
    print(f"verify {args.what}: {'pass' if rep.passed else 'FAIL (' + str(rep.kind) + ')'}")
    return (EXIT_PASS if rep.passed else EXIT_FAIL), verdict, counts, []


def cmd_construct(args) -> tuple[int, dict, dict, list]:
    artifacts: list[str] = []
    if args.family == "box":
        if args.c is None or args.k is None:
            raise ValueError("construct box needs --c and --k")
        code, kappa = cons.build_box_code(args.c, args.k)
        rep = codes_mod.verify_kappa_ptmc(code, kappa)
        sep = cons.min_component_separation(code)
        verdicts = {"verified": rep.passed, "separation": sep}
        counts = {"vertices": code.ambient.vertex_count(), "code": len(code),
                  "components": len(codes_mod.components_of(code))}
        _emit(args, json.dumps(code_to_json(code, kappa), indent=2), artifacts)
        ok = rep.passed and sep == 3
        return (EXIT_PASS if ok else EXIT_FAIL), verdicts, counts, artifacts
    if args.family == "square-singleton":
        template = cons.square_singleton_template()
    else:
        template = cons.cube_singleton_template(args.n)
    build = cons.build_by_template(template, budget=args.budget, seed=args.seed)
    counts = {"nodes": build.nodes, "fr_volume": template.fr_volume,
              "fr_count": template.fr_count}
    if build.kind == "timeout":
        print("construct: timed out")
        return EXIT_TIMEOUT, {"outcome": "timeout"}, counts, []
    if build.kind == "infeasible":
        print("construct: proven infeasible")
        return EXIT_FAIL, {"outcome": "infeasible"}, counts, []
    rep = codes_mod.verify_kappa_ptmc(build.code, build.kappa)
    verdicts = {"outcome": "solution", "verified": rep.passed}
    counts["code"] = len(build.code)
    counts["components"] = len(codes_mod.components_of(build.code))
    _emit(args, json.dumps(code_to_json(build.code, build.kappa), indent=2), artifacts)
    print(f"construct {args.family}: solution, verified={rep.passed}")
    return (EXIT_PASS if rep.passed else EXIT_FAIL), verdicts, counts, artifacts


def cmd_search(args) -> tuple[int, dict, dict, list]:
    artifacts: list[str] = []
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"--limit must be at least 1, got {args.limit}")
    if args.instance:
        inst = _read_json(args.instance, cover_mod.instance_from_json)
    elif args.grid:
        m, n = args.grid
        inst = cover_mod.eds_instance(grid_graph(m, n))
    elif args.torus:
        inst = cover_mod.eds_instance(lattice_graph(Ambient.torus(*args.torus)))
    elif args.graph:
        inst = cover_mod.eds_instance(_load_graph(args.graph))
    else:
        raise ValueError("search needs --instance, --grid, --torus or --graph")
    counts = {"cells": len(inst.universe), "tiles": len(inst.tiles)}
    if args.enumerate:
        res = cover_mod.enumerate_covers(inst, limit=args.limit, budget=args.budget)
        counts["solutions"] = len(res.solutions)
        counts["nodes"] = res.nodes
        verdicts = {"exhaustive": res.exhaustive}
        _emit(args, json.dumps({"solutions": [list(s) for s in res.solutions],
                                "exhaustive": res.exhaustive}, indent=2), artifacts)
        done = res.exhaustive or (args.limit is not None and len(res.solutions) >= args.limit)
        code = EXIT_PASS if done else EXIT_TIMEOUT
        return code, verdicts, counts, artifacts
    out = cover_mod.solve(inst, budget=args.budget)
    counts["nodes"] = out.nodes
    verdicts = {"outcome": out.kind}
    if out.kind == "solution":
        _emit(args, json.dumps({"tiles": list(out.tiles)}, indent=2), artifacts)
    print(f"search: {out.kind}")
    if out.kind == "timeout":
        return EXIT_TIMEOUT, verdicts, counts, artifacts
    return EXIT_PASS, verdicts, counts, artifacts


def cmd_gamma(args) -> tuple[int, dict, dict, list]:
    artifacts: list[str] = []
    h = gamma2.build_hive()
    if args.action == "count-2ptmc":
        count = gamma2.enumerate_hive_2ptmc(h)
        verdicts = {"count": count}
        counts = {"count": count}
        if args.complete:
            total, exhaustive, nodes = gamma2.enumerate_hive_2ptmc_complete(
                h, budget=args.budget)
            verdicts["complete_count"] = total
            verdicts["complete_exhaustive"] = exhaustive
            counts["complete_count"] = total
            counts["complete_nodes"] = nodes
            print(f"isolated radius-2 codes of the hive: {count} "
                  f"(totality run: {total}, exhaustive={exhaustive})")
            if not exhaustive:
                return EXIT_TIMEOUT, verdicts, counts, []
            return (EXIT_PASS if total == count else EXIT_FAIL), verdicts, counts, []
        print(f"isolated radius-2 codes of the hive: {count}")
        return EXIT_PASS, verdicts, counts, []
    if args.action == "no-isolated-pds":
        out = gamma2.no_isolated_pds(h, budget=args.budget)
        print(f"hive efficient dominating set search: {out.kind}")
        verdicts = {"outcome": out.kind}
        counts = {"nodes": out.nodes}
        if out.kind == "timeout":
            return EXIT_TIMEOUT, verdicts, counts, []
        return (EXIT_PASS if out.kind == "infeasible" else EXIT_FAIL), verdicts, counts, []
    if args.action == "non-isolated-pds":
        s = gamma2.hive_non_isolated_pds()
        g = gamma2.hive_graph(h)
        rep = codes_mod.verify_non_isolated_pds(s, g)
        iso = codes_mod.verify_pds(s, g)
        verdicts = {"non_isolated_pass": rep.passed, "isolated_pass": iso.passed}
        _emit(args, json.dumps({"vertices": [str(v) for v in s]}, indent=2), artifacts)
        print(f"18-vertex set: non-isolated={rep.passed}, isolated={iso.passed}")
        ok = rep.passed and not iso.passed
        return (EXIT_PASS if ok else EXIT_FAIL), verdicts, {"size": len(s)}, artifacts
    if args.action == "extend":
        rc = gamma2.extend_2ptmc(args.level, seed=args.seed)
        verdicts = {"interior_verified": rc.passed}
        counts = {"centers": len(rc.centers), "interior": rc.interior_size,
                  "boundary_unverified": rc.boundary_size}
        _emit(args, json.dumps({"centers": [str(c) for c in rc.centers],
                                "level": rc.level, "seed": rc.seed}, indent=2), artifacts)
        print(f"extend level={args.level}: interior partition "
              f"{'pass' if rc.passed else 'FAIL'} ({rc.interior_size} vertices)")
        return (EXIT_PASS if rc.passed else EXIT_FAIL), verdicts, counts, artifacts
    if args.action == "stats":
        region = gamma2.build_region(args.level)
        interior = region.interior()
        degs = sorted({region.graph.degree(v) for v in interior})
        owners = sorted({len(set(gamma2.containing_tersquares(v))) for v in interior})
        counts = {
            "hive_members": len(h.members),
            "hive_vertices": len(gamma2.hive_vertices(h)),
            "region_level": args.level,
            "region_tersquares": len(region.members),
            "region_vertices": len(region.graph),
            "interior_vertices": len(interior),
            "interior_degrees": degs,
            "interior_containing_tersquares": owners,
        }
        ok = (counts["hive_members"] == 16 and counts["hive_vertices"] == 81
              and degs in ([], [8]) and owners in ([], [4]))
        print(f"hive: {counts['hive_members']} tersquares, {counts['hive_vertices']} vertices; "
              f"region L={args.level}: {counts['region_tersquares']} tersquares, "
              f"interior degrees {degs}")
        return (EXIT_PASS if ok else EXIT_FAIL), {"structure_ok": ok}, counts, []
    raise AssertionError(args.action)


def cmd_export(args) -> tuple[int, dict, dict, list]:
    artifacts: list[str] = []
    text = gamma2.export_graph(args.target, args.format, level=args.level)
    _emit(args, text, artifacts)
    counts = {"bytes": len(text)}
    return EXIT_PASS, {"format": args.format}, counts, artifacts


def cmd_survey(args) -> tuple[int, dict, dict, list]:
    table = cover_mod.grid_eds_survey(args.max_side, budget=args.budget)
    rows = []
    only44 = True
    for (m, n), row in sorted(table.items()):
        rows.append({"m": m, "n": n, **row})
        if row["exists"] and (m, n) != (4, 4):
            only44 = False
        print(f"P{m} x P{n}: exists={row['exists']} count={row['count']}")
    counts = {"grids": len(rows), "table": rows}
    if not all(row["exhaustive"] for row in rows):
        # a grid that timed out proves nothing either way
        print("survey: timed out")
        return EXIT_TIMEOUT, {"exists_only_at_4x4": None}, counts, []
    verdicts = {"exists_only_at_4x4": only44 and table.get((4, 4), {}).get("exists", False)}
    return (EXIT_PASS if verdicts["exists_only_at_4x4"] else EXIT_FAIL), verdicts, counts, []


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the run report JSON here (default: stdout)")
    common.add_argument("--emit", help="write the produced artifact (code, graph, solution) here")
    p = argparse.ArgumentParser(prog="ptmc",
                                description="perfect truncated-metric code toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("verify", help="check codes and dominating sets", parents=[common])
    v.add_argument("what", choices=["ptmc", "pds", "nipds"])
    v.add_argument("--code", required=True, help="code set JSON file")
    v.add_argument("--t", type=int, help="uniform radius overriding the file's map")
    v.add_argument("--graph", help="graph JSON file (default: the code's lattice)")
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("construct", help="build codes, by formula or by search", parents=[common])
    c.add_argument("family", choices=["box", "square-singleton", "cube-singleton"])
    c.add_argument("--c", type=_ints, help="box extents parameter, comma separated")
    c.add_argument("--k", type=_ints, help="cells per axis, comma separated")
    c.add_argument("--n", type=int, default=4, help="dimension for cube-singleton")
    c.add_argument("--budget", type=float, help="search budget in seconds")
    c.add_argument("--seed", type=int, help="shuffle candidate order deterministically")
    c.set_defaults(fn=cmd_construct)

    s = sub.add_parser("search", help="exact cover and efficient domination", parents=[common])
    s.add_argument("--instance", help="exact cover instance JSON")
    s.add_argument("--grid", type=_ints, help="EDS of the m,n grid graph")
    s.add_argument("--torus", type=_ints, help="EDS of the toroidal grid a,b,...")
    s.add_argument("--graph", help="EDS of a graph JSON file")
    s.add_argument("--enumerate", action="store_true", help="find all solutions")
    s.add_argument("--limit", type=int, help="stop after this many solutions")
    s.add_argument("--budget", type=float, help="seconds before timing out")
    s.set_defaults(fn=cmd_search)

    g = sub.add_parser("gamma", help="ternary square compound computations", parents=[common])
    g.add_argument("action", choices=["count-2ptmc", "no-isolated-pds",
                                      "non-isolated-pds", "extend", "stats"])
    g.add_argument("--level", type=int, default=4, help="region level")
    g.add_argument("--seed", type=int, help="seed for extension choices")
    g.add_argument("--budget", type=float, help="seconds before timing out")
    g.add_argument("--complete", action="store_true",
                   help="count-2ptmc: also run the exhaustive totality check")
    g.set_defaults(fn=cmd_gamma)

    e = sub.add_parser("export", help="render the hive or a region", parents=[common])
    e.add_argument("target", choices=["hive", "region"])
    e.add_argument("--level", type=int, default=2, help="region level")
    e.add_argument("--format", choices=["dot", "json"], default="dot")
    e.set_defaults(fn=cmd_export)

    y = sub.add_parser("survey", help="grid efficient-domination survey", parents=[common])
    y.add_argument("--max-side", type=int, default=7)
    y.add_argument("--budget", type=float)
    y.set_defaults(fn=cmd_survey)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    args._argv = argv
    started = time.monotonic()
    # ValueError covers JSONDecodeError, malformed documents and
    # DimensionMismatch; RuntimeError is a bug
    try:
        code, verdicts, counts, artifacts = args.fn(args)
        inputs = {}
        for key in ("code", "graph", "instance"):
            path = getattr(args, key, None)
            if path:
                inputs[key] = path
        report = _report(args, verdicts, counts, artifacts, inputs, started)
        _write_report(args, report)
    except (OSError, ValueError, MissingRadiusError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
