"""The four benchmark workloads: seed-derived inputs, timed jobs, output checks.

Each workload has ``setup(seed, workdir, smoke=False)``, which derives every
program input from the seed, and ``jobs(inputs, tr)``, which returns the
timed jobs of one pass. A job's ``run`` drives ptmc through the public
functions the CLI subcommands call (or ``ptmc.cli.main`` itself) and returns
its output; its ``check`` inspects that output outside the timed region and
raises ``CheckFailed``. Functions are looked up as module attributes at call
time, so a traced pass sees the tracer's wrappers. ``smoke=True`` shrinks the
inputs for the harness's own tests.

Why these workloads:

* torus-build stresses ball enumeration and tiling-instance construction
  (about 97% of a template build) and bypasses the search (10-40 nodes).
* torus-verify is the read side: big code files through ``ptmc verify``,
  so ``codes`` and ``cli`` work while ``cover`` does none. It catches a
  ``truncated_ball`` change that helps many small tiling balls but hurts
  the verifier's per-component balls.
* hive-cover stresses the Algorithm X search, on hashed dataclass cells
  (hive) and tuple cells (tori); ``metric`` does no work.
* compound-growth stresses the ``gamma2`` region code: growth, interior
  scan and export; ``cover`` and ``metric`` do no work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import ptmc.cli
import ptmc.codes
import ptmc.constructions
import ptmc.cover
import ptmc.gamma2
import ptmc.graphs
from ptmc.metric import Ambient


class CheckFailed(Exception):
    """A job's output is wrong."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Job:
    id: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _rng(name: str, seed: int) -> random.Random:
    # str seeds hash with SHA-512, so the inputs do not depend on PYTHONHASHSEED
    return random.Random(f"{name}:{seed}")


def _same_code(a, b) -> bool:
    return a.ambient == b.ambient and set(a.vertices) == set(b.vertices)


# ---------------------------------------------------------------------------
# torus-build: `ptmc construct square-singleton|cube-singleton --seed s`
# ---------------------------------------------------------------------------

class TorusBuild:
    name = "torus-build"

    @staticmethod
    def setup(seed: int, workdir: Path, smoke: bool = False) -> dict:
        rng = _rng(TorusBuild.name, seed)
        square = ptmc.constructions.square_singleton_template()
        builds = [("square", square, rng.randrange(2**31)) for _ in range(1 if smoke else 8)]
        if not smoke:
            builds.append(("cube4", ptmc.constructions.cube_singleton_template(4),
                           rng.randrange(2**31)))
        return {"builds": builds, "instances": {}}

    @staticmethod
    def jobs(inputs: dict, tr) -> list[Job]:
        out = []
        for i, (label, template, shuffle) in enumerate(inputs["builds"]):
            def run(template=template, shuffle=shuffle):
                build = ptmc.constructions.build_by_template(template, seed=shuffle)
                report = ptmc.codes.verify_kappa_ptmc(build.code, build.kappa)
                components = ptmc.codes.components_of(build.code)
                with tr.span("codes.json"):
                    text = json.dumps(ptmc.codes.code_to_json(build.code, build.kappa),
                                      indent=2)
                tr.count("codes.json.bytes", len(text))
                return build, report, len(components), text

            def check(output, template=template, label=label):
                build, report, n_components, text = output
                expect(build.kind == "solution", f"build outcome {build.kind}")
                expect(report.passed, f"verify failed: {report.kind}")
                inst = inputs["instances"].get(label)
                if inst is None:
                    inst, _ = ptmc.cover.tiling_instance(
                        template.torus, [(s.name, s.vertices, s.radius) for s in template.shapes])
                    inputs["instances"][label] = inst
                expect(ptmc.cover.verify_cover(inst, build.tiles), "chosen tiles are no cover")
                expect(n_components == len(build.tiles), "one component per tile")
                code, kappa = ptmc.codes.code_from_json(json.loads(text))
                expect(_same_code(code, build.code), "JSON round trip changed the code")
                expect(kappa.by_class == build.kappa.by_class, "JSON round trip changed kappa")

            out.append(Job(f"{label}-{i}", run, check))
        return out


# ---------------------------------------------------------------------------
# torus-verify: `ptmc verify ptmc --code FILE` and `ptmc construct box`
# ---------------------------------------------------------------------------

def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = ptmc.cli.main(argv)
    return status, buf.getvalue()


def _read_json(path: Path):
    with open(path) as f:
        return json.load(f)


class TorusVerify:
    name = "torus-verify"

    @staticmethod
    def setup(seed: int, workdir: Path, smoke: bool = False) -> dict:
        """Writes box codes and inflated square-singleton codes as code files.

        Permuting fixed extents and multipliers keeps torus sizes, component
        counts and ball sizes the same for every seed: 24,000-vertex box-code
        tori and 12,960-vertex inflated tori.
        """
        rng = _rng(TorusVerify.name, seed)

        def perm(values):
            return tuple(rng.sample(values, len(values)))

        box_k, inflate, construct_k = (((1, 2, 2), (1, 1, 2), (1, 1, 2)) if smoke
                                       else ((5, 8, 10), (4, 5, 6), (2, 3, 4)))
        files = []
        for i in range(2):
            code, kappa = ptmc.constructions.build_box_code(perm((2, 3, 4)), perm(box_k))
            files.append((f"box-{i}", code, kappa))
        square = ptmc.constructions.square_singleton_template()
        for i in range(2):
            build = ptmc.constructions.build_by_template(square, seed=rng.randrange(2**31))
            code = ptmc.codes.inflate_code(build.code, perm(inflate))
            # a translation class keeps its radius under inflation
            files.append((f"inflated-{i}", code, build.kappa))
        workdir.mkdir(parents=True, exist_ok=True)
        codes = []
        for label, code, kappa in files:
            path = workdir / f"{label}.json"
            with open(path, "w") as f:
                json.dump(ptmc.codes.code_to_json(code, kappa), f)
            codes.append((label, path, code))
        return {"codes": codes, "construct": (perm((2, 3, 4)), perm(construct_k)),
                "workdir": workdir}

    @staticmethod
    def jobs(inputs: dict, tr) -> list[Job]:
        workdir = inputs["workdir"]
        out = []
        for label, path, code in inputs["codes"]:
            report_path = workdir / f"{label}.report.json"

            def run(path=path, report_path=report_path):
                return _cli(["verify", "ptmc", "--code", str(path), "--out", str(report_path)])

            def check(output, path=path, code=code, report_path=report_path):
                status, printed = output
                report = _read_json(report_path)
                expect(status == 0 and report["verdicts"]["passed"],
                       f"verify exit {status}: {report['verdicts']}")
                expect(printed.startswith("verify ptmc: pass"), "summary line")
                expect(report["counts"]["vertices"] == code.ambient.vertex_count(),
                       "vertex count")
                loaded, _ = ptmc.codes.code_from_json(_read_json(path))
                expect(_same_code(loaded, code), "JSON round trip changed the code")

            out.append(Job(f"verify-{label}", run, check))

        c, k = inputs["construct"]
        emit, report_path = workdir / "construct-box.json", workdir / "construct-box.report.json"

        def run_construct():
            return _cli(["construct", "box", "--c", ",".join(map(str, c)),
                         "--k", ",".join(map(str, k)), "--emit", str(emit),
                         "--out", str(report_path)])

        def check_construct(output):
            status, _ = output
            report = _read_json(report_path)
            expect(status == 0 and report["verdicts"]["verified"], f"construct exit {status}")
            expect(report["verdicts"]["separation"] == 3,
                   f"separation {report['verdicts']['separation']}, not 3")
            loaded, _ = ptmc.codes.code_from_json(_read_json(emit))
            expected, _ = ptmc.constructions.build_box_code(c, k)
            expect(_same_code(loaded, expected), "emitted code differs from the box code")

        out.append(Job("construct-box", run_construct, check_construct))
        return out


# ---------------------------------------------------------------------------
# hive-cover: hive census, no-EDS proof, totality subtree, grid survey, torus EDS
# ---------------------------------------------------------------------------

def _reduced_word(rng: random.Random, length: int) -> tuple[int, ...]:
    word: list[int] = []
    for _ in range(length):
        word.append(rng.choice([s for s in ptmc.gamma2.LETTERS if not word or word[-1] != s]))
    return tuple(word)


class HiveCover:
    name = "hive-cover"

    @staticmethod
    def setup(seed: int, workdir: Path, smoke: bool = False) -> dict:
        """Picks the hive centre and the pinned corners of the totality subtree.

        The centre's words have a fixed length, so vertex hashing costs the
        same for every seed. The full totality run (``gamma count-2ptmc
        --complete``) takes about 35 s here, beyond one run's time, so the
        workload enumerates the subtree below ``pinned`` seed-chosen corner
        centres: the same instance and the same search, 4^(9 - pinned)
        solutions.
        """
        rng = _rng(HiveCover.name, seed)
        g = ptmc.gamma2
        centre = g.Tersquare(_reduced_word(rng, 2), _reduced_word(rng, 2))
        hive = g.build_hive(centre)
        pinned = 4 if smoke else 2
        pins = tuple(rng.choice(g.external_cycle(hive, corner))
                     for corner in rng.sample(hive.corners, pinned))
        return {"hive": hive, "pins": pins, "survey_side": 5 if smoke else 7,
                "tori": (10,) if smoke else (40, 45, 50),
                "deep": None if smoke else 75, "sample": rng.randrange(2**31)}

    @staticmethod
    def jobs(inputs: dict, tr) -> list[Job]:
        g = ptmc.gamma2
        hive, pins = inputs["hive"], inputs["pins"]
        out = [
            Job("census", lambda: g.enumerate_hive_2ptmc(hive),
                lambda n: expect(n == 4 ** 9, f"census {n}, not 262144")),
            Job("no-eds", lambda: g.no_isolated_pds(hive),
                lambda res: expect(res.kind == "infeasible", f"no-EDS outcome {res.kind}")),
        ]

        def run_totality():
            # enumerate_hive_2ptmc_complete's instance, below the pinned centres
            verts = g.hive_vertices(hive)
            balls = {v: g.restricted_ball(v, verts) for v in verts}
            covered = frozenset().union(*(balls[p] for p in pins))
            inst = ptmc.cover.ExactCoverInstance(
                tuple(v for v in verts if v not in covered),
                tuple((str(v), balls[v]) for v in verts if not balls[v] & covered))
            return ptmc.cover.enumerate_covers(inst)

        def check_totality(res):
            expected = 4 ** (9 - len(pins))
            expect(res.exhaustive, "totality subtree not exhaustive")
            expect(len(res.solutions) == expected == len(set(res.solutions)),
                   f"totality subtree has {len(res.solutions)} codes, not {expected}")
            for sol in random.Random(inputs["sample"]).sample(res.solutions, 8):
                centres = pins + tuple(g.parse_vertex_id(s) for s in sol)
                rep = g.verify_hive_selection(hive, centres)
                expect(rep.passed, f"totality solution fails: {rep.kind}")

        out.append(Job("totality-subtree", run_totality, check_totality))

        side = inputs["survey_side"]

        def check_survey(table):
            for (m, n), row in table.items():
                expect(row["exhaustive"], f"survey {m}x{n} not exhaustive")
                want = (True, 2) if (m, n) == (4, 4) else (False, 0)
                expect((row["exists"], row["count"]) == want, f"survey {m}x{n}: {row}")
            expect(len(table) == (side - 2) ** 2, "survey size")

        out.append(Job(f"survey-{side}", lambda: ptmc.cover.grid_eds_survey(side), check_survey))
        for m in inputs["tori"]:
            def run_torus(m=m):
                graph = ptmc.graphs.lattice_graph(Ambient.torus(m, m))
                inst = ptmc.cover.eds_instance(graph)
                return inst, ptmc.cover.solve(inst)

            def check_torus(output, m=m):
                inst, res = output
                expect(res.kind == "solution", f"torus {m} EDS outcome {res.kind}")
                expect(len(res.tiles) == m * m // 5, "EDS size")
                expect(ptmc.cover.verify_cover(inst, res.tiles), "EDS tiles are no cover")

            out.append(Job(f"eds-torus-{m}", run_torus, check_torus))
        return out

    @staticmethod
    def probe(inputs: dict) -> Callable[[], Any] | None:
        """The deep instance: the EDS of a torus too big for a recursive search.

        It raises RecursionError at this commit, so it runs after the timed
        passes and is reported on its own, not as a job.
        """
        m = inputs["deep"]
        if m is None:
            return None
        return lambda: ptmc.cover.solve(
            ptmc.cover.eds_instance(ptmc.graphs.lattice_graph(Ambient.torus(m, m))))


# ---------------------------------------------------------------------------
# compound-growth: `gamma extend`, `gamma stats`, `export region`
# ---------------------------------------------------------------------------

INTERIOR = {4: 153, 5: 441}  # interior vertices of the level-L region


class CompoundGrowth:
    name = "compound-growth"

    @staticmethod
    def setup(seed: int, workdir: Path, smoke: bool = False) -> dict:
        """Growth and stats at level 5, exports at levels 4 (JSON) and 5 (DOT).

        At level 6 one ``extend_2ptmc`` call takes about 6 s, so a 20 s run
        holds three passes and the machine's speed changes inside the call;
        level 5 runs the same interior-by-centres scan in about 1.4 s.
        """
        level = 4 if smoke else 5
        return {"level": level, "growth_seed": _rng(CompoundGrowth.name, seed).randrange(2**31),
                "exports": ((level - 1, "json"), (level, "dot"))}

    @staticmethod
    def jobs(inputs: dict, tr) -> list[Job]:
        g = ptmc.gamma2
        level = inputs["level"]

        def check_extend(rc):
            expect(rc.passed, f"interior partition fails at {rc.witness}")
            expect(rc.interior_size == INTERIOR[level], f"interior {rc.interior_size}")

        def run_stats():
            region = g.build_region(level)
            interior = region.interior()
            degrees = {region.graph.degree(v) for v in interior}
            owners = {len(set(g.containing_tersquares(v))) for v in interior}
            return len(interior), degrees, owners

        def check_stats(output):
            n, degrees, owners = output
            expect(n == INTERIOR[level], f"interior {n}")
            expect(degrees == {8} and owners == {4}, f"interior degrees {degrees}")

        out = [Job(f"extend-{level}", lambda: g.extend_2ptmc(level, seed=inputs["growth_seed"]),
                   check_extend),
               Job(f"stats-{level}", run_stats, check_stats)]
        for export_level, fmt in inputs["exports"]:
            def check_export(text, export_level=export_level, fmt=fmt):
                graph = g.build_region(export_level).graph
                if fmt == "json":
                    doc = json.loads(text)
                    shape = (len(doc["vertices"]), len(doc["edges"]))
                else:
                    lines = text.splitlines()
                    expect(lines[0] == "graph gamma2 {" and lines[-1] == "}", "DOT frame")
                    shape = (sum(" [" in ln for ln in lines[2:]),
                             sum(" -- " in ln for ln in lines))
                expect(shape == (len(graph), graph.edge_count()), f"{fmt} export shape {shape}")

            out.append(Job(f"export-{export_level}-{fmt}",
                           lambda export_level=export_level, fmt=fmt:
                           g.export_graph("region", fmt, level=export_level),
                           check_export))
        return out


WORKLOADS = {w.name: w for w in (TorusBuild, TorusVerify, HiveCover, CompoundGrowth)}
