"""Reference implementations used only to cross-check the package.

Everything here is deliberately naive and independent of the main code
paths: plain window and distance scans for balls, literal subset loops
and pruned exhaustive DFS for domination, subset enumeration for exact
cover.
"""

import random
from itertools import combinations, product

from ptmc.codes import components_of
from ptmc.gamma2 import (
    GammaVertex,
    RegionCode,
    _edge_code,
    containing_tersquares,
    gamma_truncated_distance,
    local_ball,
)


def brute_rho(u, v):
    """Truncated distance on Z^n, no wrapping."""
    n = len(u)
    if any(abs(a - b) > 1 for a, b in zip(u, v)):
        return n + 1
    return sum(1 for a, b in zip(u, v) if a != b)


def brute_ball(centers, t, lo, hi):
    """Scan an explicit window for vertices within truncated distance t."""
    n = len(centers[0])
    out = []
    for p in product(range(lo, hi + 1), repeat=n):
        if min(brute_rho(p, c) for c in centers) <= t:
            out.append(p)
    return sorted(out)


def torus_rho(u, v, moduli):
    """Truncated distance on a torus: each axis moves by the shorter way round."""
    steps = [min((a - b) % m, (b - a) % m) for a, b, m in zip(u, v, moduli)]
    if any(s > 1 for s in steps):
        return len(u) + 1
    return sum(1 for s in steps if s)


def naive_components(code):
    """Vertex sets of a code's components by flood fill over all code pairs
    at torus distance one; sorted tuples, ordered by smallest vertex."""
    moduli = code.ambient.moduli
    left = set(code.vertices)
    comps = []
    while left:
        todo = [min(left)]
        comp = set(todo)
        while todo:
            v = todo.pop()
            for u in list(left - comp):
                if torus_rho(u, v, moduli) == 1:
                    comp.add(u)
                    todo.append(u)
        left -= comp
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


def naive_verify_kappa_ptmc(code, kappa):
    """(passed, kind, witness) of the PTMC check by distance scans.

    Only the class keys, for the radii, come from `components_of`. Each
    ball is a scan of every torus vertex against every center vertex; hits
    are counted per vertex; ties are found by listing the distances to
    every vertex of the covering component. Checks, in order: degenerate
    ambient, bad radius (first component outside [1, n]), overlap
    (smallest vertex covered twice), gap (smallest vertex covered by none),
    nonunique nearest (smallest vertex with two nearest vertices in its
    component).
    """
    a = code.ambient
    if a.degenerate:
        return False, "degenerate-ambient", ()
    n = a.dimension
    comps = components_of(code)
    radii = [kappa.radius_for(c.class_key) for c in comps]
    for comp, t in zip(comps, radii):
        if not 1 <= t <= n:
            return False, "bad-radius", (min(comp.vertices),)
    verts = sorted(product(*(range(m) for m in a.moduli)))
    owners = {v: [] for v in verts}
    for comp, t in zip(comps, radii):
        for v in verts:
            if min(torus_rho(v, s, a.moduli) for s in comp.vertices) <= t:
                owners[v].append(comp.vertices)
    for kind, bad in (("overlap", lambda k: k > 1), ("gap", lambda k: k == 0)):
        hit = [v for v in verts if bad(len(owners[v]))]
        if hit:
            return False, kind, (hit[0],)
    for v in verts:
        dists = [torus_rho(v, s, a.moduli) for s in owners[v][0]]
        if dists.count(min(dists)) > 1:
            return False, "nonunique-nearest", (v,)
    return True, None, ()


def naive_gamma_ball(center, vertices):
    """Compound vertices within truncated distance 2 of a center, by a
    distance scan over the given collection."""
    return frozenset(u for u in vertices if gamma_truncated_distance(u, center) <= 2)


def naive_region_interior(region):
    """A region's interior by a scan of its graph: the vertices all four of
    whose containing tersquares are region members, in vertex order."""
    members = frozenset(region.members)
    return tuple(v for v in region.graph.vertices
                 if all(t in members for t in containing_tersquares(v)))


def naive_region_code(region, seed):
    """`extend_2ptmc(region.level, seed)` from a built region.

    The same seeded edge codes; a center is a pair of chosen x- and
    y-edges, both within the level, one of whose containing tersquares is
    a region member. The interior comes from `naive_region_interior` and
    the region size from the region's graph. Ball hits are counted per
    interior vertex; the witness is the smallest vertex hit twice, else
    the smallest vertex hit by none.
    """
    level = region.level
    rng = random.Random(seed) if seed is not None else None
    dx = _edge_code(level + 3, rng)
    dy = _edge_code(level + 3, rng)
    members = frozenset(region.members)
    centers = []
    for (wx, a) in sorted(dx):
        if len(wx) > level:
            continue
        for (wy, b) in sorted(dy):
            if len(wx) + len(wy) > level:
                continue
            v = GammaVertex(wx, wy, a, b)
            if any(t in members for t in containing_tersquares(v)):
                centers.append(v)
    interior = naive_region_interior(region)
    hits = dict.fromkeys(interior, 0)
    for c in centers:
        for u in local_ball(c):
            if u in hits:
                hits[u] += 1
    bad = ([v for v in interior if hits[v] > 1] or [v for v in interior if hits[v] == 0])
    return RegionCode(level, seed, tuple(sorted(centers)), len(interior),
                      len(region.graph) - len(interior), not bad,
                      min(bad) if bad else None)


def naive_cover_solutions(universe, tiles):
    """All exact covers by literal subset enumeration over the tiles.

    tiles is a list of (tile_id, cell_set); returns a sorted list of
    sorted tile-id tuples. Exponential in the tile count by design.
    """
    want = frozenset(universe)
    sols = []
    ids = [t[0] for t in tiles]
    sets = [frozenset(t[1]) for t in tiles]
    m = len(tiles)
    for r in range(m + 1):
        for combo in combinations(range(m), r):
            total = 0
            acc = frozenset()
            ok = True
            for i in combo:
                if acc & sets[i]:
                    ok = False
                    break
                acc |= sets[i]
                total += len(sets[i])
            if ok and acc == want and total == len(want):
                sols.append(tuple(sorted(ids[i] for i in combo)))
    return sorted(sols)


def _grid_neighbors(m, n):
    verts = [(i, j) for i in range(m) for j in range(n)]
    idx = {v: k for k, v in enumerate(verts)}
    nbrs = [[] for _ in verts]
    for (i, j) in verts:
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            u = (i + di, j + dj)
            if u in idx:
                nbrs[idx[(i, j)]].append(idx[u])
    return verts, nbrs


def grid_eds_literal(m, n):
    """Literal 2^(mn) subset loop counting efficient dominating sets."""
    verts, nbrs = _grid_neighbors(m, n)
    nmask = [sum(1 << u for u in ns) for ns in nbrs]
    total = len(verts)
    count = 0
    found = []
    for s in range(1 << total):
        ok = True
        for k in range(total):
            if s >> k & 1:
                if nmask[k] & s:
                    ok = False
                    break
            elif bin(nmask[k] & s).count("1") != 1:
                ok = False
                break
        if ok:
            count += 1
            found.append(sorted(v for k, v in enumerate(verts) if s >> k & 1))
    return count, found


def grid_eds_dfs(m, n):
    """Exhaustive raster DFS over all subsets with sound pruning.

    A vertex is finalized once its whole closed neighborhood is decided;
    finalized vertices must be dominated exactly once (chosen vertices by
    themselves only, which forces independence). Covers the same space as
    the literal loop, cutting dead branches early.
    """
    verts, nbrs = _grid_neighbors(m, n)
    total = len(verts)
    final_after = [max([k] + nbrs[k]) for k in range(total)]
    finals = [[] for _ in range(total)]
    for k in range(total):
        finals[final_after[k]].append(k)
    count = 0
    chosen = [False] * total
    dom = [0] * total

    def rec(k):
        nonlocal count
        if k == total:
            count += 1
            return
        for pick in (False, True):
            chosen[k] = pick
            touched = [k] + nbrs[k] if pick else []
            for c in touched:
                dom[c] += 1
            if not any(dom[c] > 1 for c in touched):
                if all(dom[f] == 1 for f in finals[k]):
                    rec(k + 1)
            for c in touched:
                dom[c] -= 1
        chosen[k] = False

    rec(0)
    return count
