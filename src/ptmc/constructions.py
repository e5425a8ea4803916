"""Constructive generators for perfect truncated-metric codes.

Two families ship here:

  * an explicit lattice construction placing an n-box of per-axis extent
    c_i - 1 inside each cell of the lattice generated by (1 + c_i) e_i;
    every vertex of the torus then falls in exactly one radius-n ball and
    distinct components sit at l1 distance exactly 3;

  * template-driven searches for the mixed two-shape codes (a square plus
    singletons in dimension 3, and their (n-1)-cube generalization), whose
    shapes, radii, multiplicities and minimal tori fully determine a finite
    exact cover problem. The search is pinned so that the tile covering the
    origin is anchored there, which breaks translation symmetry without
    losing solutions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

# components_of is called nowhere here: perfbench/spans.py wraps this binding, which a test checks
from .codes import CodeSet, KappaAssignment, components_of
from .cover import OutOfTime, solve, tiling_instance
from .metric import Ambient, Point, truncated_ball


@dataclass(frozen=True)
class TemplateShape:
    name: str
    vertices: tuple[Point, ...]
    radius: int
    multiplicity: int


@dataclass(frozen=True)
class TemplateSpec:
    """Shapes with radii and per-fundamental-region multiplicities. The
    region's volume, the sum of multiplicity x ball volume, divides the torus."""

    shapes: tuple[TemplateShape, ...]
    torus: Ambient
    fr_volume: int = field(init=False)

    def __post_init__(self) -> None:
        vol = sum(s.multiplicity * shape_ball_volume(s.vertices, s.radius)
                  for s in self.shapes)
        object.__setattr__(self, "fr_volume", vol)
        if self.torus.vertex_count() % vol != 0:
            raise ValueError("FR volume does not divide the torus size")

    @property
    def fr_count(self) -> int:
        return self.torus.vertex_count() // self.fr_volume


def shape_ball_volume(shape: tuple[Point, ...], radius: int) -> int:
    """Truncated ball cardinality of a shape, on an unclipped window."""
    return len(truncated_ball(tuple(shape), radius, Ambient.around(shape)))


# ---------------------------------------------------------------------------
# box codes: one n-box per lattice cell, radius n
# ---------------------------------------------------------------------------

def build_box_code(c: tuple[int, ...], k: tuple[int, ...]) -> tuple[CodeSet, KappaAssignment]:
    """Lattice code of n-boxes with uniform radius n on its minimal torus.

    Places the box with per-axis extents c_i - 1 at offset 1 inside each
    cell of the lattice generated by (1 + c_i) e_i, projected to the torus
    with moduli (1 + c_i) k_i. The radius-n balls are then the full cells,
    so they partition the torus by construction; callers still verify.
    """
    n = len(c)
    if len(k) != n:
        raise ValueError("c and k must have equal length")
    if any(ci < 2 for ci in c):
        raise ValueError("box construction needs c_i >= 2")
    if any(ki < 1 for ki in k):
        raise ValueError("cell multipliers k_i must be >= 1")
    torus = Ambient.torus(*((1 + ci) * ki for ci, ki in zip(c, k)))
    cells = product(*(range(ki) for ki in k))
    verts: list[Point] = []
    for cell in cells:
        base = tuple(j * (1 + ci) for j, ci in zip(cell, c))
        for off in product(*(range(1, ci) for ci in c)):
            verts.append(tuple(b + o for b, o in zip(base, off)))
    return CodeSet(torus, tuple(verts)), KappaAssignment.uniform(n)


def min_component_separation(code: CodeSet) -> int:
    """The l1 distance, on the lifted grid, from the home component (the
    component of the code's least vertex) to the nearest other component.

    The toroidal code is unrolled over a 3x3x...x3 block of torus copies so
    that wrap-around neighbors (including the code's own lattice copies
    when the torus holds a single component) are measured in Z^n, matching
    the separation claim of the box construction. The home component grows
    through code vertices, then l1 shells through the rest up to the code.
    For a box code this is the minimum over all pairs of components: its
    components are lattice translates of one another, so each sees the
    others as the home component does.
    """
    a = code.ambient
    if not a.is_torus:
        raise ValueError("separation is measured on toroidal codes")
    if not code.vertices:
        raise ValueError("separation of an empty code is undefined")
    members = set(code.vertices)
    moves = [(i, step, 3 * m) for i, m in enumerate(a.moduli) for step in (1, -1)]
    seen = {tuple(x + m for x, m in zip(code.vertices[0], a.moduli))}
    shell = list(seen)
    for d in range(max(a.moduli)):  # anything farther cannot be the minimum
        nxt = []
        for v in shell:  # at d = 0 the home component grows while walked
            for i, step, size in moves:
                x = v[i] + step
                u = v[:i] + (x,) + v[i + 1:]
                if 0 <= x < size and u not in seen:
                    seen.add(u)
                    if a.wrap(u) not in members:
                        nxt.append(u)
                    elif d:
                        return d + 1
                    else:
                        shell.append(u)
        shell = nxt
    raise ValueError("no second component within reach")


# ---------------------------------------------------------------------------
# two-shape templates
# ---------------------------------------------------------------------------

def square_singleton_template() -> TemplateSpec:
    """Radius-1 code of unit squares and singletons in dimension 3: the
    cube template at n = 3, with two squares (ball 20) and two singletons
    (ball 7) per fundamental region of volume 54, on the torus (6, 6, 3).
    """
    return cube_singleton_template(3)


def cube_singleton_template(n: int) -> TemplateSpec:
    """(n-1)-cubes of radius 1 plus singletons of radius n-2, two of each.

    At n = 3 this is the square template. The torus is (6, ..., 6, 3)
    and the fundamental region volume is 2 * |ball(cube, 1)| plus
    2 * |ball(vertex, n-2)|.
    """
    if n < 3:
        raise ValueError("cube template needs dimension >= 3")
    cube = tuple(sorted(p + (0,) for p in product((0, 1), repeat=n - 1)))
    torus = Ambient.torus(*((6,) * (n - 1) + (3,)))
    shapes = (TemplateShape("cube", cube, 1, 2),
              TemplateShape("singleton", ((0,) * n,), n - 2, 2))
    return TemplateSpec(shapes, torus)


@dataclass(frozen=True)
class TemplateBuild:
    """Outcome of a template search: solution, proven infeasible, or timeout."""

    kind: str  # solution | infeasible | timeout
    code: CodeSet | None = None
    kappa: KappaAssignment | None = None
    tiles: tuple[str, ...] | None = None
    nodes: int = 0


def build_by_template(template: TemplateSpec, deadline: float | None = None,
                      seed: int | None = None) -> TemplateBuild:
    """Search for a code realizing a template by exact cover of its torus.

    Tiles are those of tiling_instance: the truncated balls of every
    oriented, translated shape copy that does not wrap onto itself, tile r
    anchored at the vertex at position r % N of the N-vertex universe.
    Symmetry is broken by pinning: every solution has a translate in which
    the tile covering the origin, position 0, is anchored there, so the
    tiles that hold the origin but are not at a position o * N are
    dropped. The search runs on the kept tiles over the same masks. With a
    seed, the candidate order is shuffled deterministically to reach
    different solutions; without one, tiles stay in instance order. The
    deadline (a time.monotonic() value) is passed unchanged to the instance
    builder, which stops once it has passed, and then to the search.

    Each radius is keyed by the orientation that its chosen tile places.
    In an exact cover by balls of radius >= 1 no two tiles touch, so each
    placed orientation is a whole component; a kept orientation never
    wraps, as its ball does not, so the orientation, normalized by
    `shape_orientations`, is that component's class key.
    """
    a = template.torus
    try:
        inst, blocks = tiling_instance(
            a, [(s.name, s.vertices, s.radius) for s in template.shapes], deadline)
    except OutOfTime:
        return TemplateBuild("timeout")
    universe = inst.universe
    n = len(universe)
    dropped = {r for r in inst.holding(0) if r % n}
    keep = [r for r in range(len(inst.ids)) if r not in dropped]
    if seed is not None:
        random.Random(seed).shuffle(keep)
    pinned = inst.restrict(keep)
    outcome = solve(pinned, deadline=deadline)
    if outcome.kind != "solution":
        return TemplateBuild(outcome.kind, nodes=outcome.nodes)
    chosen = set(outcome.tiles)
    verts, radii = [], {}
    for r, tid in zip(keep, pinned.ids):
        if tid in chosen:
            _, radius, orient, anchor = blocks[r // n]
            shift = tuple(z - y for z, y in zip(universe[r % n], anchor))
            verts += (a.translate(p, shift) for p in orient)
            radii[orient] = radius
    code = CodeSet(a, tuple(verts))
    return TemplateBuild("solution", code, KappaAssignment(by_class=radii),
                         outcome.tiles, outcome.nodes)
