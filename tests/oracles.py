"""Reference implementations used only to cross-check the package.

Everything here is deliberately naive and independent of the main code
paths: plain window and distance scans for balls, literal subset loops
and pruned exhaustive DFS for domination, subset enumeration for exact
cover.
"""

import random
from collections import deque
from itertools import combinations, permutations, product
from operator import add, mod, sub

from ptmc.codes import CodeSet, verify_partition
from ptmc.gamma2 import (LETTERS, GammaVertex, RegionCode, Tersquare, containing_tersquares,
                         local_ball, neighbors)
from ptmc.metric import Ambient


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


def reference_wrapped_key(verts, a):
    """The fallback key of a component that wraps an axis, by sorting
    vertex tuples: the least translate that moves one of its vertices to
    the origin, and the first of verts to give it."""
    best = anchor = None
    for v in verts:
        shifted = tuple(sorted(a.wrap(tuple(map(sub, u, v))) for u in verts))
        if best is None or shifted < best:
            best, anchor = shifted, v
    return best, anchor


def reference_components(code):
    """(vertices, class key, wrapped) per component, by a BFS over vertex
    tuples that lifts each component to Z^n one tuple per step; a lift
    conflict means the component wraps an axis, and it then gets the least
    translate that moves one of its vertices to the origin as its key."""
    a = code.ambient
    n = a.dimension
    # (axis, step, modulus); a window's modulus 0 means no wrapping
    moves = [(i, step, a.moduli[i] if a.is_torus else 0) for i in range(n) for step in (1, -1)]
    member = set(code.vertices)
    seen = set()
    out = []
    for root in code.vertices:
        if root in seen:
            continue
        lift = {root: (0,) * n}
        queue = [root]
        seen.add(root)
        wrapped = False
        while queue:
            v = queue.pop()
            lv = lift[v]
            for i, step, m in moves:
                x = v[i] + step
                u = v[:i] + ((x % m if m else x),) + v[i + 1:]
                if u not in member:
                    continue
                lu = lv[:i] + (lv[i] + step,) + lv[i + 1:]
                if u in lift:
                    if lift[u] != lu:
                        wrapped = True
                    continue
                lift[u] = lu
                seen.add(u)
                queue.append(u)
        verts = tuple(sorted(lift))
        if wrapped:
            key = reference_wrapped_key(verts, a)[0]
        else:
            mins = tuple(map(min, zip(*lift.values())))
            key = tuple(sorted(tuple(map(sub, p, mins)) for p in lift.values()))
        out.append((verts, key, wrapped))
    return out


def class_components(code):
    """(vertices, class key, wrapped) per component, rebuilt from the
    code's translation classes: each class key placed at each of its
    anchors on the torus the code is checked on, moved by each multiple of
    that torus's moduli below the code's, sorted by min vertex, as
    `reference_components` lists them."""
    a, b = code.ambient, code._checked.ambient
    moves = list(product(*(range(0, m, d) for m, d in zip(a.extents, b.extents))))
    return sorted((tuple(sorted(a.wrap(tuple(x + z + c for x, z, c in zip(b.point(p), move, k)))
                                for k in key)), key, wrapped)
                  for key, (anchors, _, wrapped) in code._classes.items()
                  for p in anchors for move in moves)


def naive_verify_kappa_ptmc(code, kappa):
    """(passed, kind, witness) of the PTMC check by distance scans.

    The components and their class keys, for the radii, come from
    `reference_components`, not from the package. Each ball is a scan of
    every torus vertex against every center vertex; hits are counted per
    vertex; ties are found by listing the distances to every vertex of the
    covering component. Checks, in order: degenerate ambient, bad radius
    (first component outside [1, n]), overlap (smallest vertex covered
    twice), gap (smallest vertex covered by none), nonunique nearest
    (smallest vertex with two nearest vertices in its component).
    """
    a = code.ambient
    if a.degenerate:
        return False, "degenerate-ambient", ()
    n = a.dimension
    comps = reference_components(code)
    radii = [kappa.radius_for(key) for _, key, _ in comps]
    for (comp, _, _), t in zip(comps, radii):
        if not 1 <= t <= n:
            return False, "bad-radius", (min(comp),)
    verts = sorted(product(*(range(m) for m in a.moduli)))
    owners = {v: [] for v in verts}
    for (comp, _, _), t in zip(comps, radii):
        for v in verts:
            if min(torus_rho(v, s, a.moduli) for s in comp) <= t:
                owners[v].append(comp)
    for kind, bad in (("overlap", lambda k: k > 1), ("gap", lambda k: k == 0)):
        hit = [v for v in verts if bad(len(owners[v]))]
        if hit:
            return False, kind, (hit[0],)
    for v in verts:
        dists = [torus_rho(v, s, a.moduli) for s in owners[v][0]]
        if dists.count(min(dists)) > 1:
            return False, "nonunique-nearest", (v,)
    return True, None, ()


def naive_lattice_graph(a):
    """Grid graph of an ambient, as a dict from each vertex to the set of
    its neighbours, by stepping each vertex along each axis and wrapping
    (torus) or bounds-checking (window) the result."""
    adj = {v: set() for v in a.vertices()}
    for v in adj:
        for i in range(a.dimension):
            for step in (1, -1):
                w = list(v)
                w[i] += step
                u = a.wrap(tuple(w))
                if a.contains(u) and u != v:
                    adj[v].add(u)
    return adj


def same_graph(g, adj):
    """Whether the Graph g has the vertices and edges of the dict adj from
    each vertex to the set of its neighbours, read through g's queries by
    vertex: sorted vertices, neighbours, degrees, membership, edge count."""
    return (g.vertices == tuple(sorted(adj)) and len(g) == len(adj)
            and all(v in g and g.neighbors(v) == adj[v] and g.degree(v) == len(adj[v])
                    for v in adj)
            and g.edge_count() == sum(map(len, adj.values())) // 2)


def shuffled_adjacency(adj, rng):
    """adj with its vertices, and each one's neighbours, in a random order:
    the same graph for Graph to check and convert."""
    keys = list(adj)
    rng.shuffle(keys)
    return {v: rng.sample(sorted(adj[v]), len(adj[v])) for v in keys}


def naive_domination(s, adj, relaxed):
    """(passed, kind, witness, independent) of a PDS verifier by
    literal loops over S, on a graph given as a dict from each vertex to
    the set of its neighbours.

    A vertex outside S is dominated when exactly one vertex of S is its
    neighbour, or, if relaxed, exactly two that are joined by an edge. The
    witness is the smallest vertex that is not dominated; it is a gap with
    no neighbour in S, else an overlap. `independent` is whether no two
    vertices of S are joined by an edge, and None when relaxed. A vertex of
    S outside the graph raises ValueError, the first in the order given.
    """
    members = []
    for v in s:
        if v not in adj:
            raise ValueError(f"code vertex {v!r} not in graph")
        if v not in members:
            members.append(v)
    bad = []
    for v in adj:
        if v in members:
            continue
        doms = [u for u in members if u in adj[v]]
        if len(doms) == 1 or relaxed and len(doms) == 2 and doms[1] in adj[doms[0]]:
            continue
        bad.append((v, "overlap" if doms else "gap"))
    independent = None
    if not relaxed:
        independent = not any(w in adj[u] for u, w in combinations(members, 2))
    if not bad:
        return True, None, (), independent
    v, kind = min(bad)
    return False, kind, (v,), independent


def naive_min_component_separation(code):
    """Minimum l1 distance from the home component to any other, by lifting
    the code into a 3^n block of torus copies, finding the block's
    components and comparing every lifted vertex with every home vertex."""
    a = code.ambient
    if not a.is_torus:
        raise ValueError("separation is measured on toroidal codes")
    n = a.dimension
    lifted = set()
    for v in code.vertices:
        for z in product((0, 1, 2), repeat=n):
            lifted.add(tuple(x + zi * m for x, zi, m in zip(v, z, a.moduli)))
    window = Ambient.window(*((0, 3 * m - 1) for m in a.moduli))
    comps = reference_components(CodeSet(window, tuple(lifted)))
    center = tuple(x + m for x, m in zip(code.vertices[0], a.moduli))
    home = next(verts for verts, _, _ in comps if center in verts)
    reach = max(a.moduli)
    best = None
    for v in lifted - set(home):
        for u in home:
            d = sum(abs(x - y) for x, y in zip(u, v))
            if d <= reach and (best is None or d < best):
                best = d
    if best is None:
        raise ValueError("no second component within reach")
    return best


def naive_canonical(j, a, b):
    """The vertex labelled (a, b) in tersquare j by the pop rule: a
    trailing x-letter equal to a and a trailing y-letter equal to b are
    dropped from the address."""
    wx = j.wx[:-1] if j.wx and j.wx[-1] == a else j.wx
    wy = j.wy[:-1] if j.wy and j.wy[-1] == b else j.wy
    return GammaVertex(wx, wy, a, b)


def naive_grid(t):
    """A tersquare's nine vertices by the pop rule, keyed by local label."""
    return {(a, b): naive_canonical(t, a, b) for a in LETTERS for b in LETTERS}


def naive_neighbors(v):
    """A compound vertex's neighbours: the same-row and same-column
    vertices of each of its four tersquares, canonicalized, sorted."""
    out = set()
    for t in containing_tersquares(v):
        for a2 in LETTERS:
            if a2 != v.a:
                out.add(naive_canonical(t, a2, v.b))
        for b2 in LETTERS:
            if b2 != v.b:
                out.add(naive_canonical(t, v.a, b2))
    return tuple(sorted(out))


def naive_gamma_distance(u, v):
    """0 for equal vertices; the Hamming distance of the local labels when
    the two share a tersquare; 3 otherwise."""
    if u == v:
        return 0
    if set(containing_tersquares(u)) & set(containing_tersquares(v)):
        return (u.a != v.a) + (u.b != v.b)
    return 3


def naive_local_ball(v):
    """The vertices of the four tersquares containing v."""
    return frozenset(u for t in containing_tersquares(v) for u in naive_grid(t).values())


def naive_gamma_ball(center, vertices):
    """Compound vertices within truncated distance 2 of a center, by a
    distance scan over the given collection."""
    return frozenset(u for u in vertices if naive_gamma_distance(u, center) <= 2)


def naive_hive_vertices(h):
    """The union of the hive's 16 member tersquares' 3x3 grids, sorted."""
    return tuple(sorted({u for t in h.members for u in naive_grid(t).values()}))


def naive_external_cycle(h, corner):
    """A corner's vertices whose labels avoid, on each axis, the letter that
    glues the corner's word to the center's word; sorted. Raises ValueError
    when a word is not one letter away from the center's."""
    letters = []
    for w, c in ((corner.wx, h.center.wx), (corner.wy, h.center.wy)):
        longer, shorter = (w, c) if len(w) > len(c) else (c, w)
        if len(longer) != len(shorter) + 1 or longer[:-1] != shorter:
            raise ValueError(f"words {w} and {c} are not adjacent")
        letters.append(longer[-1])
    i, j = letters
    return tuple(sorted(naive_canonical(corner, a, b)
                        for a in LETTERS for b in LETTERS if a != i and b != j))


def naive_tersquare_graph(members):
    """Union of the member tersquares' vertices and triangle edges, as a
    dict from each vertex to the set of its neighbours: within a
    tersquare, vertices sharing a row or a column are adjacent."""
    adj = {}
    for t in members:
        grid = naive_grid(t)
        for v in grid.values():
            adj.setdefault(v, set())
        for (a1, b1), (a2, b2) in combinations(grid, 2):
            if a1 == a2 or b1 == b2:
                adj[grid[a1, b1]].add(grid[a2, b2])
                adj[grid[a2, b2]].add(grid[a1, b1])
    return adj


def naive_induced_graph(vertices):
    """The subgraph `neighbors` induces on a vertex collection, as a dict
    from each vertex to the set of its neighbours: each vertex's eight
    neighbours, built and sorted, kept when in the collection and mapped
    to its own objects."""
    own = {v: v for v in vertices}
    return {v: {own[u] for u in neighbors(v) if u in own} for v in own}


def naive_edge_numbers(vertices):
    """The numbers `_rim_positions` reads for any vertex sequence: each
    word of the vertices, the x-words and then the y-words, numbered 3k in
    order of first use, then each vertex's x- and y-edge (w, a) as the int
    3k + a, in the sequence's order."""
    base = {}
    for w in [v.wx for v in vertices] + [v.wy for v in vertices]:
        base.setdefault(w, 3 * len(base))
    return base, [base[v.wx] + v.a for v in vertices], [base[v.wy] + v.b for v in vertices]


def naive_words(length):
    """The reduced words over F3 of length at most `length`: every word of
    each length, kept when no two adjacent letters are equal."""
    return [w for n in range(length + 1) for w in product(LETTERS, repeat=n)
            if all(x != y for x, y in zip(w, w[1:]))]


def naive_tersquares(depth):
    """The set of tersquares whose two words' lengths add up to at most depth."""
    words = naive_words(depth)
    return {Tersquare(wx, wy) for wx in words for wy in words if len(wx) + len(wy) <= depth}


def naive_vertices(depth):
    """The canonical vertices (no word ends with its own label) whose
    words' lengths add up to at most depth, sorted."""
    return tuple(sorted(GammaVertex(t.wx, t.wy, a, b) for t in naive_tersquares(depth)
                        for a in LETTERS for b in LETTERS
                        if t.wx[-1:] != (a,) and t.wy[-1:] != (b,)))


def naive_edge_code(max_depth, rng):
    """`_edge_code` by a queue: a breadth-first sweep from the root in
    which each node carries the status of its incoming edge. An uncovered
    node puts one deeper edge into the code, picked by the rng or, without
    one, the least letter."""
    code = set()
    queue = deque(((s,), "uncovered") for s in LETTERS)
    while queue:
        node, status = queue.popleft()
        if len(node) > max_depth:
            continue
        deeper = [s for s in LETTERS if s != node[-1]]
        if status == "in_code":
            for s in deeper:
                queue.append((node + (s,), "covered"))
        elif status == "covered":
            for s in deeper:
                queue.append((node + (s,), "uncovered"))
        else:  # uncovered: cover the incoming edge here
            pick = rng.choice(deeper) if rng is not None else deeper[0]
            code.add((node, pick))
            for s in deeper:
                queue.append((node + (s,), "in_code" if s == pick else "covered"))
    return code


def naive_region_interior(region):
    """A region's interior by a scan of its graph: the vertices all four of
    whose containing tersquares are region members, in vertex order."""
    members = frozenset(region.members)
    return tuple(v for v in region.graph.vertices
                 if all(t in members for t in containing_tersquares(v)))


def naive_region_code(region, seed):
    """`extend_2ptmc(region.level, seed)` from a built region.

    The same seeded edge codes, swept by `naive_edge_code`; a center is a
    pair of chosen x- and y-edges, both within the level, one of whose
    containing tersquares is a region member. The interior comes from
    `naive_region_interior` and the region size from the region's graph. Ball hits are counted per
    interior vertex; the witness is the smallest vertex hit twice, else
    the smallest vertex hit by none.
    """
    level = region.level
    rng = random.Random(seed) if seed is not None else None
    dx = naive_edge_code(level + 3, rng)
    dy = naive_edge_code(level + 3, rng)
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
        for u in naive_local_ball(c):
            if u in hits:
                hits[u] += 1
    bad = ([v for v in interior if hits[v] > 1] or [v for v in interior if hits[v] == 0])
    return RegionCode(level, seed, tuple(sorted(centers)), len(interior),
                      len(region.graph) - len(interior), not bad,
                      min(bad) if bad else None)


def ball_scan_interior(level, dx, dy):
    """`extend_2ptmc`'s interior check by scanning balls: the centres are
    the pairs of edges from the axis codes dx and dy with |wx| + |wy| <=
    level, and each centre's 2-ball, cut to the interior |wx| + |wy| <=
    level - 2, is handed to `verify_partition` (overlap before gap)."""
    ys = sorted(dy)
    centers = [GammaVertex(wx, wy, a, b) for wx, a in sorted(dx) for wy, b in ys
               if len(wx) + len(wy) <= level]
    interior = naive_vertices(level - 2)
    inside = set(interior)
    return verify_partition((local_ball(c) & inside for c in centers), interior)


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


def naive_orientations(shape):
    """Distinct images of a shape under all n! coordinate permutations, each
    moved to have its coordinate-wise minimum at the origin and sorted;
    the images sorted."""
    n = len(shape[0])
    seen = set()
    for perm in permutations(range(n)):
        img = [tuple(p[perm[i]] for i in range(n)) for p in shape]
        mins = tuple(min(p[i] for p in img) for i in range(n))
        seen.add(tuple(sorted(tuple(x - m for x, m in zip(p, mins)) for p in img)))
    return sorted(seen)


def naive_tiling_masks(a, shapes, orientations):
    """A tiling instance's blocks, rows and masks, one placement at a time.

    For each shape orientation (orientations(shape) lists them) whose window
    ball does not wrap onto itself on the torus a, and each vertex z in
    lexicographic order, the window ball is moved so that its anchor (least
    coordinate sum, then least) lands on z. Returns the blocks (name,
    radius, orientation, anchor), each placement's sorted row-major
    positions, each placement's cell mask, and each cell's mask of the
    placements that hold it, every mask a sum of distinct powers of 2.
    """
    verts = list(a.vertices())
    pos = {v: k for k, v in enumerate(verts)}
    blocks, rows = [], []
    for name, shape, radius in shapes:
        for orient in orientations(shape):
            lo = min(min(p) for p in orient) - 1
            hi = max(max(p) for p in orient) + 1
            ball = brute_ball(list(orient), radius, lo, hi)
            if len({a.wrap(p) for p in ball}) < len(ball):
                continue
            anchor = min(ball, key=lambda p: (sum(p), p))
            blocks.append((name, radius, orient, anchor))
            offsets = [tuple(map(sub, p, anchor)) for p in ball]
            for z in verts:
                rows.append(sorted(pos[tuple(map(mod, map(add, d, z), a.moduli))]
                                   for d in offsets))
    holders = [[] for _ in verts]
    for r, row in enumerate(rows):
        for c in row:
            holders[c].append(r)
    cells = [sum(1 << c for c in row) for row in rows]
    return blocks, rows, cells, [sum(1 << r for r in h) for h in holders]


def reference_x(inst, limit=None):
    """Algorithm X over a dict-of-sets matrix: (solutions, exhausted, nodes).

    The branching rule `cover._run_x` must follow: the uncovered cell with
    the fewest live tiles, ties to the earliest cell in inst.universe, and
    its candidate tiles in instance order. Each tried candidate is one
    node. Solutions are sorted tile-id tuples, in the order found. Cells
    and tiles are relabelled to positions: x maps each uncovered cell to
    the set of live tiles containing it, y[i] lists tile i's cells, and
    select/deselect remove and restore the columns a tile covers.
    """
    ids = [tid for tid, _ in inst.tiles]
    pos = {c: i for i, c in enumerate(inst.universe)}
    y = [sorted(pos[c] for c in cells) for _, cells in inst.tiles]
    x = {c: set() for c in range(len(inst.universe))}
    for i, cells in enumerate(y):
        for c in cells:
            x[c].add(i)
    solutions = []
    partial = []
    stack = []  # [candidate tiles, next position, columns removed, or None]
    nodes = 0

    def select(row):
        cols = []
        for j in y[row]:
            for i in x[j]:
                for k in y[i]:
                    if k != j:
                        x[k].discard(i)
            cols.append(x.pop(j))
        return cols

    def deselect(row, cols):
        for j in reversed(y[row]):
            x[j] = cols.pop()
            for i in x[j]:
                for k in y[i]:
                    if k != j:
                        x[k].add(i)

    while True:
        if not x:
            solutions.append(tuple(sorted(ids[i] for i in partial)))
            if limit is not None and len(solutions) >= limit:
                return solutions, False, nodes
        else:
            cell = min(zip(map(len, x.values()), x))[1]
            if x[cell]:
                stack.append([sorted(x[cell]), 0, None])
        while stack:
            frame = stack[-1]
            if frame[2] is not None:
                deselect(partial.pop(), frame[2])
                frame[2] = None
            if frame[1] < len(frame[0]):
                break
            stack.pop()
        else:
            return solutions, True, nodes
        row = frame[0][frame[1]]
        frame[1] += 1
        nodes += 1
        partial.append(row)
        frame[2] = select(row)


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
