"""Command-line front end: verify, construct, search, gamma, export, survey.

verify, construct, gamma and export take a leaf command (`verify ptmc`,
`gamma stats`, ...). Each leaf accepts only the options its handler reads,
after the leaf's name, and its parser's defaults name that handler.

Every run prints a short human summary and assembles a machine-readable
run report (stable field order; identical inputs give identical reports up
to the trailing timing block). The report goes to --out when given, else
to stdout. Leaves that produce an artifact (code sets, graph renderings,
solutions) write it to --emit.

Exit codes: 0 success / verification pass, 1 verification failure or
failed construction goal, 2 usage error or bad input, 3 search timeout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import cache, partial

from . import codes as codes_mod
from . import constructions as cons
from . import cover as cover_mod
from . import gamma2
from .codes import CodeSet, KappaAssignment, code_from_json, code_to_json
from .graphs import Graph, _array, _str_id, grid_graph, lattice_graph
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


def _at_least(low: int, what: str, value) -> None:
    """Refuse an option value below low, or a tuple of values with one
    below; `what` names the option in the one-line error."""
    if min(value if isinstance(value, tuple) else (value,)) < low:
        raise ValueError(f"{what} must be at least {low}, got {value}")


def _digest(parts: list) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _report(args, verdicts: dict, counts: dict, artifacts: list[str],
            inputs: dict, started: float) -> dict:
    # the command path and the options its leaf reads, without the output paths
    options = sorted((k, v) for k, v in vars(args).items()
                     if k not in ("out", "emit", "fn", "_argv", "_deadline"))
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


def _emit(args, text: str) -> list[str]:
    """Write text to --emit, else print it; return the report's artifacts,
    [the --emit path] or []."""
    if args.emit:
        with open(args.emit, "w") as f:
            f.write(text if text.endswith("\n") else text + "\n")
        return [args.emit]
    print(text)
    return []


def _read_json(path: str, parse):
    """Load a JSON input file and parse the document with `parse`.

    A document of the wrong shape (a missing key, a list where an object
    belongs, an edge to an unknown vertex) is bad input, a ValueError,
    like a file that is not JSON at all or nests too deeply to parse.
    """
    with open(path) as f:
        try:
            doc = json.load(f)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    try:
        return parse(doc)
    except (KeyError, TypeError, AttributeError) as e:
        raise ValueError(f"{path}: malformed document ({type(e).__name__}: {e})") from e


def _load_graph(path: str) -> Graph:
    return _read_json(path, gamma2.graph_from_json)


def _code_or_vertex_ids(doc):
    """A code file with an ambient as a CodeSet, else its vertex id list."""
    if "ambient" in doc:
        return code_from_json(doc)[0]
    return [_str_id(v) for v in _array(doc["vertices"])]


def _verify_outcome(args, rep: codes_mod.VerifyReport,
                    counts: dict) -> tuple[int, dict, dict, list]:
    verdict = {"passed": rep.passed}
    if not rep.passed:
        verdict["failure"] = rep.kind
        verdict["witness"] = [list(w) if isinstance(w, tuple) else str(w) for w in rep.witness]
    if rep.independent is not None:
        verdict["independent"] = rep.independent
    print(f"verify {args.what}: {'pass' if rep.passed else 'FAIL (' + str(rep.kind) + ')'}")
    return (EXIT_PASS if rep.passed else EXIT_FAIL), verdict, counts, []


# ---------------------------------------------------------------------------
# subcommands: one handler per leaf command, reading only the leaf's options
# ---------------------------------------------------------------------------

def cmd_verify_ptmc(args) -> tuple[int, dict, dict, list]:
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
              "components": codes_mod.component_count(code)}
    return _verify_outcome(args, rep, counts)


def cmd_verify_domination(check, args) -> tuple[int, dict, dict, list]:
    # a code file with an ambient is checked on its own lattice graph;
    # a bare {"vertices": [ids]} list is checked against --graph
    code = _read_json(args.code, _code_or_vertex_ids)
    if isinstance(code, CodeSet):
        if args.graph is not None:
            raise ValueError(f"{args.code} has an ambient and is checked on its lattice "
                             "graph; --graph is for vertex-list codes")
        g = lattice_graph(code.ambient)
        s = list(code.vertices)
    elif args.graph:
        g = _load_graph(args.graph)
        s = code
    else:
        raise ValueError("vertex-list codes need --graph")
    return _verify_outcome(args, check(s, g), {"graph_vertices": len(g), "code": len(set(s))})


def cmd_construct_box(args) -> tuple[int, dict, dict, list]:
    if len(args.c) != len(args.k):
        raise ValueError(f"--c and --k need equal lengths, got {len(args.c)} and {len(args.k)}")
    _at_least(2, "--c values", args.c)
    _at_least(1, "--k values", args.k)
    code, kappa = cons.build_box_code(args.c, args.k)
    rep = codes_mod.verify_kappa_ptmc(code, kappa)
    sep = cons.min_component_separation(code)
    verdicts = {"verified": rep.passed, "separation": sep}
    counts = {"vertices": code.ambient.vertex_count(), "code": len(code),
              "components": codes_mod.component_count(code)}
    emitted = _emit(args, json.dumps(code_to_json(code, kappa), indent=2))
    ok = rep.passed and sep == 3
    return (EXIT_PASS if ok else EXIT_FAIL), verdicts, counts, emitted


def cmd_construct_square(args) -> tuple[int, dict, dict, list]:
    return _construct_by_template(args, cons.square_singleton_template())


def cmd_construct_cube(args) -> tuple[int, dict, dict, list]:
    _at_least(3, "--n", args.n)
    return _construct_by_template(args, cons.cube_singleton_template(args.n))


def _construct_by_template(args, template: cons.TemplateSpec) -> tuple[int, dict, dict, list]:
    build = cons.build_by_template(template, deadline=args._deadline, seed=args.seed)
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
    counts["components"] = codes_mod.component_count(build.code)
    emitted = _emit(args, json.dumps(code_to_json(build.code, build.kappa), indent=2))
    print(f"construct {args.family}: solution, verified={rep.passed}")
    return (EXIT_PASS if rep.passed else EXIT_FAIL), verdicts, counts, emitted


def cmd_search(args) -> tuple[int, dict, dict, list]:
    if args.limit is not None and not args.enumerate:
        raise ValueError("--limit needs --enumerate")
    if args.limit is not None:
        _at_least(1, "--limit", args.limit)
    # the parser lets exactly one source through
    if args.instance is not None:
        universe, tiles = _read_json(args.instance, cover_mod.instance_from_json)
        counts = {"cells": len(universe), "tiles": len(tiles)}
        build = partial(cover_mod.ExactCoverInstance, universe, tiles)
    else:
        if args.grid is not None:
            if len(args.grid) != 2:
                raise ValueError(f"--grid takes two values m,n, got {len(args.grid)}")
            _at_least(1, "--grid values", args.grid)
            g = grid_graph(*args.grid)
        elif args.torus is not None:
            _at_least(1, "--torus moduli", args.torus)
            g = lattice_graph(Ambient.torus(*args.torus))
        else:
            g = _load_graph(args.graph)
        counts = {"cells": len(g), "tiles": len(g)}
        build = partial(cover_mod.eds_instance, g)
    try:
        inst = build(deadline=args._deadline)
    except cover_mod.OutOfTime:
        inst = None  # the budget ended the build: a search that made no node
    if args.enumerate:
        res = (cover_mod.EnumerateOutcome((), False, 0) if inst is None else
               cover_mod.enumerate_covers(inst, limit=args.limit, deadline=args._deadline))
        counts["solutions"] = len(res.solutions)
        counts["nodes"] = res.nodes
        verdicts = {"exhaustive": res.exhaustive}
        emitted = _emit(args, json.dumps({"solutions": [list(s) for s in res.solutions],
                                          "exhaustive": res.exhaustive}, indent=2))
        done = res.exhaustive or (args.limit is not None and len(res.solutions) >= args.limit)
        return (EXIT_PASS if done else EXIT_TIMEOUT), verdicts, counts, emitted
    out = (cover_mod.CoverOutcome("timeout", None, 0) if inst is None else
           cover_mod.solve(inst, deadline=args._deadline))
    counts["nodes"] = out.nodes
    emitted = (_emit(args, json.dumps({"tiles": list(out.tiles)}, indent=2))
               if out.kind == "solution" else [])
    print(f"search: {out.kind}")
    code = EXIT_TIMEOUT if out.kind == "timeout" else EXIT_PASS
    return code, {"outcome": out.kind}, counts, emitted


def cmd_gamma_count(args) -> tuple[int, dict, dict, list]:
    if args.budget is not None and not args.complete:
        raise ValueError("--budget needs --complete")
    h = gamma2.build_hive()
    count = gamma2.enumerate_hive_2ptmc(h)
    verdicts = {"count": count}
    counts = {"count": count}
    if args.complete:
        total, exhaustive, nodes = gamma2.enumerate_hive_2ptmc_complete(h, args._deadline)
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


def cmd_gamma_no_isolated(args) -> tuple[int, dict, dict, list]:
    out = gamma2.no_isolated_pds(gamma2.build_hive(), deadline=args._deadline)
    print(f"hive efficient dominating set search: {out.kind}")
    verdicts = {"outcome": out.kind}
    counts = {"nodes": out.nodes}
    if out.kind == "timeout":
        return EXIT_TIMEOUT, verdicts, counts, []
    return (EXIT_PASS if out.kind == "infeasible" else EXIT_FAIL), verdicts, counts, []


def cmd_gamma_non_isolated(args) -> tuple[int, dict, dict, list]:
    s = gamma2.hive_non_isolated_pds()
    g = gamma2.hive_graph(gamma2.build_hive())
    rep = codes_mod.verify_non_isolated_pds(s, g)
    iso = codes_mod.verify_pds(s, g)
    verdicts = {"non_isolated_pass": rep.passed, "isolated_pass": iso.passed}
    emitted = _emit(args, json.dumps({"vertices": [str(v) for v in s]}, indent=2))
    print(f"18-vertex set: non-isolated={rep.passed}, isolated={iso.passed}")
    ok = rep.passed and not iso.passed
    return (EXIT_PASS if ok else EXIT_FAIL), verdicts, {"size": len(s)}, emitted


def cmd_gamma_extend(args) -> tuple[int, dict, dict, list]:
    _at_least(2, "--level", args.level)
    rc = gamma2.extend_2ptmc(args.level, seed=args.seed)
    verdicts = {"interior_verified": rc.passed}
    counts = {"centers": len(rc.centers), "interior": rc.interior_size,
              "boundary_unverified": rc.boundary_size}
    emitted = _emit(args, json.dumps({"centers": [str(c) for c in rc.centers],
                                      "level": rc.level, "seed": rc.seed}, indent=2))
    print(f"extend level={args.level}: interior partition "
          f"{'pass' if rc.passed else 'FAIL'} ({rc.interior_size} vertices)")
    return (EXIT_PASS if rc.passed else EXIT_FAIL), verdicts, counts, emitted


def cmd_gamma_stats(args) -> tuple[int, dict, dict, list]:
    _at_least(0, "--level", args.level)
    h = gamma2.build_hive()
    region = gamma2.build_region(args.level)
    interior = region.interior()
    degs = sorted(set(region.interior_degrees()))
    owners = sorted({len(set(gamma2.containing_tersquares(v))) for v in interior})
    counts = {
        "hive_members": len(h.members),
        "hive_vertices": len(gamma2.hive_vertices(h)),
        "region_level": args.level,
        "region_tersquares": len(region.members),
        "region_vertices": len(region.vertices),
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


def cmd_export_hive(args) -> tuple[int, dict, dict, list]:
    return _export(args, gamma2.export_graph("hive", args.format))


def cmd_export_region(args) -> tuple[int, dict, dict, list]:
    _at_least(0, "--level", args.level)
    return _export(args, gamma2.export_graph("region", args.format, level=args.level))


def _export(args, text: str) -> tuple[int, dict, dict, list]:
    return EXIT_PASS, {"format": args.format}, {"bytes": len(text)}, _emit(args, text)


def cmd_survey(args) -> tuple[int, dict, dict, list]:
    # the survey's verdict is about 4 x 4, which a smaller side never searches
    _at_least(4, "--max-side", args.max_side)
    table = cover_mod.grid_eds_survey(args.max_side, deadline=args._deadline)
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
    """The command tree; options go after the leaf command that reads them."""
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the run report JSON here (default: stdout)")
    emit = argparse.ArgumentParser(add_help=False, parents=[out])
    emit.add_argument("--emit", help="write the produced artifact (code, graph, solution) here")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=float, help="seconds the whole command may take")

    def leaf(group, name, fn, *shared, **kw):
        p = group.add_parser(name, parents=list(shared), **kw)
        p.set_defaults(fn=fn)
        return p

    p = argparse.ArgumentParser(prog="ptmc",
                                description="perfect truncated-metric code toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("verify", help="check codes and dominating sets")
    v = v.add_subparsers(dest="what", required=True)
    x = leaf(v, "ptmc", cmd_verify_ptmc, out)
    x.add_argument("--code", required=True, help="code set JSON file")
    x.add_argument("--t", type=int, help="uniform radius overriding the file's map")
    for what, check in (("pds", codes_mod.verify_pds),
                        ("nipds", codes_mod.verify_non_isolated_pds)):
        x = leaf(v, what, partial(cmd_verify_domination, check), out)
        x.add_argument("--code", required=True,
                       help="code set JSON file, or a {\"vertices\": [ids]} list")
        x.add_argument("--graph", help="graph JSON file for a vertex-id list")

    c = sub.add_parser("construct", help="build codes, by formula or by search")
    c = c.add_subparsers(dest="family", required=True)
    x = leaf(c, "box", cmd_construct_box, emit)
    x.add_argument("--c", type=_ints, required=True, help="box extents parameter, comma separated")
    x.add_argument("--k", type=_ints, required=True, help="cells per axis, comma separated")
    template = argparse.ArgumentParser(add_help=False, parents=[emit, budget])
    template.add_argument("--seed", type=int, help="shuffle candidate order deterministically")
    leaf(c, "square-singleton", cmd_construct_square, template)
    x = leaf(c, "cube-singleton", cmd_construct_cube, template)
    x.add_argument("--n", type=int, default=4, help="dimension")

    s = leaf(sub, "search", cmd_search, emit, budget,
             help="exact cover and efficient domination")
    source = s.add_mutually_exclusive_group(required=True)
    source.add_argument("--instance", help="exact cover instance JSON")
    source.add_argument("--grid", type=_ints, help="EDS of the m,n grid graph")
    source.add_argument("--torus", type=_ints, help="EDS of the toroidal grid a,b,...")
    source.add_argument("--graph", help="EDS of a graph JSON file")
    s.add_argument("--enumerate", action="store_true", help="find all solutions")
    s.add_argument("--limit", type=int, help="with --enumerate: stop after this many solutions")

    g = sub.add_parser("gamma", help="ternary square compound computations")
    g = g.add_subparsers(dest="action", required=True)
    x = leaf(g, "count-2ptmc", cmd_gamma_count, out, budget)
    x.add_argument("--complete", action="store_true",
                   help="also run the exhaustive totality check; --budget bounds the command")
    leaf(g, "no-isolated-pds", cmd_gamma_no_isolated, out, budget)
    leaf(g, "non-isolated-pds", cmd_gamma_non_isolated, emit)
    x = leaf(g, "extend", cmd_gamma_extend, emit)
    x.add_argument("--level", type=int, default=4, help="region level")
    x.add_argument("--seed", type=int, help="seed for extension choices")
    x = leaf(g, "stats", cmd_gamma_stats, out)
    x.add_argument("--level", type=int, default=4, help="region level")

    e = sub.add_parser("export", help="render the hive or a region")
    e = e.add_subparsers(dest="target", required=True)
    fmt = argparse.ArgumentParser(add_help=False, parents=[emit])
    fmt.add_argument("--format", choices=["dot", "json"], default="dot")
    leaf(e, "hive", cmd_export_hive, fmt)
    x = leaf(e, "region", cmd_export_region, fmt)
    x.add_argument("--level", type=int, default=2, help="region level")

    y = leaf(sub, "survey", cmd_survey, out, budget, help="grid efficient-domination survey")
    y.add_argument("--max-side", type=int, default=7)
    return p


@cache
def _parser() -> argparse.ArgumentParser:
    """The command tree that main reads, built once per process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    args._argv = argv
    started = time.monotonic()
    # ValueError covers JSONDecodeError, malformed documents and vertices
    # outside the ambient or the graph; RuntimeError is a bug
    try:
        budget = getattr(args, "budget", None)
        if budget is not None and not budget > 0:  # NaN too: it would bound nothing
            raise ValueError(f"--budget must be positive, got {budget}")
        # the command's one deadline: time.monotonic() + budget at started, as timings count
        args._deadline = None if budget is None else started + budget
        code, verdicts, counts, artifacts = args.fn(args)
        inputs = {}
        for key in ("code", "graph", "instance"):
            path = getattr(args, key, None)
            if path:
                inputs[key] = path
        report = _report(args, verdicts, counts, artifacts, inputs, started)
        _write_report(args, report)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
