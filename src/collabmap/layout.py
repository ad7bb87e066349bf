"""Deterministic 2-D graph layout by stress minimization.

The energy model is the classic spring system over graph-theoretic ideal
distances: E = 1/2 * sum_{i<j} k_ij * (|p_i - p_j| - d_ij)^2 with spring
stiffness k_ij = K / d_ij^2. Nodes are relaxed one at a time (always the
one with the largest gradient norm) using damped 2x2 Newton steps with
backtracking, which keeps total stress non-increasing across outer
iterations. One O(n) pass over the other nodes gives a trial point's
energy, gradient and Hessian together, so each point a relaxation tries is
evaluated once. As in Kamada & Kawai's node-by-node relaxation, every node's
gradient is kept up to date after each move in O(n) rather than recomputed
in O(n^2), and the moved node keeps the exact gradient its relaxation ended
with; the kept gradients only choose the next node, while relaxing and the
stop test use the node's exact gradient, and all gradients are recomputed
from scratch every n moves to bound floating-point drift. Output is
gauge-fixed: centroid at the origin and the two farthest-apart nodes rotated
onto the horizontal axis.
"""

from __future__ import annotations

import heapq
import math
import random
from enum import Enum
from typing import NamedTuple

from collabmap.errors import DataError
from collabmap.network import connected_components

# Floor for transformed edge lengths; keeps ideal distances positive when a
# similarity of exactly 1 would otherwise produce a zero-length edge.
MIN_EDGE_LENGTH = 1e-6

_MAX_INNER_STEPS = 60


class EdgeLengthTransform(Enum):
    INVERSE_LOG_WEIGHT = "inverse_log_weight"
    ONE_MINUS_SIMILARITY = "one_minus_similarity"
    UNIT = "unit"


class DisconnectedGraphError(DataError):
    """Ideal distances need a connected graph; lay out components separately."""


class _LayoutSettings(NamedTuple):
    transform: EdgeLengthTransform = EdgeLengthTransform.INVERSE_LOG_WEIGHT
    diameter: float = 1.0
    spring_constant: float = 1.0
    max_outer_iterations: int | None = None  # None -> 200 * n
    tolerance: float = 1e-4
    seed: int = 42


class LayoutConfig(_LayoutSettings):
    """Layout settings, checked whenever one is made, ``_replace`` included."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.transform, EdgeLengthTransform):
            raise DataError(f"layout transform must be an EdgeLengthTransform, got {self.transform!r}")
        if not 0 < self.tolerance < math.inf:
            raise DataError("layout tolerance must be positive and finite")
        if not (0 < self.diameter < math.inf and 0 < self.spring_constant < math.inf):
            raise DataError("layout scale parameters must be positive and finite")
        if self.max_outer_iterations is not None:
            if type(self.max_outer_iterations) is not int:
                raise DataError("max_outer_iterations must be an integer")
            if self.max_outer_iterations < 1:
                raise DataError("max_outer_iterations must be at least 1")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Layout(NamedTuple):
    coordinates: dict[str, tuple[float, float]]
    final_stress: float
    iterations_used: int


def edge_length(weight: float, transform: EdgeLengthTransform) -> float:
    if transform is EdgeLengthTransform.INVERSE_LOG_WEIGHT:
        length = 1.0 / math.log1p(weight)
    elif transform is EdgeLengthTransform.ONE_MINUS_SIMILARITY:
        length = 1.0 - weight
    elif transform is EdgeLengthTransform.UNIT:
        length = 1.0
    else:
        raise DataError(f"layout transform must be an EdgeLengthTransform, got {transform!r}")
    return max(length, MIN_EDGE_LENGTH)


def _check_weights(edges: dict[tuple[str, str], float], transform: EdgeLengthTransform) -> None:
    """Refuse an edge weight outside the domain of the edge length transform:
    every weight must be finite, and above 0 for the inverse log."""
    low = 0.0 if transform is EdgeLengthTransform.INVERSE_LOG_WEIGHT else -math.inf
    for (a, b), w in edges.items():
        if not low < w < math.inf:
            raise DataError(f"edge {a}-{b} has weight {w!r}, outside the domain of {transform.value}")


def ideal_distances(
    nodes: list[str],
    edges: dict[tuple[str, str], float],
    cfg: LayoutConfig,
) -> list[list[float]]:
    """All-pairs shortest paths over transformed edge lengths, scaled to L.

    Raises DisconnectedGraphError when any pair is unreachable; callers
    should lay out connected components separately (``layout_components``
    does this and packs them side by side). A weight outside the domain of
    the transform is a DataError, as in ``layout_components``.
    """
    _check_weights(edges, cfg.transform)
    n = len(nodes)
    index = {c: i for i, c in enumerate(nodes)}
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (a, b), w in edges.items():
        if a not in index or b not in index:
            continue
        length = edge_length(w, cfg.transform)
        adjacency[index[a]].append((index[b], length))
        adjacency[index[b]].append((index[a], length))

    heappop, heappush, inf = heapq.heappop, heapq.heappush, math.inf
    dist = [[inf] * n for _ in range(n)]
    for source, row in enumerate(dist):
        row[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            d, u = heappop(heap)
            if d > row[u]:
                continue
            for v, length in adjacency[u]:
                nd = d + length
                if nd < row[v]:
                    row[v] = nd
                    heappush(heap, (nd, v))

    longest = 0.0
    for i, row in enumerate(dist):
        upper = row[i + 1:]
        # reachability is symmetric, so a disconnected pair shows in its upper row
        if inf in upper:
            raise DisconnectedGraphError(
                "graph is disconnected; lay out connected components separately"
            )
        if upper:
            longest = max(longest, max(upper))
        # enforce exact symmetry (summation order can differ per source)
        for j, value in enumerate(upper, i + 1):
            dist[j][i] = value
    if longest > 0:
        scale = cfg.diameter / longest
        dist = [[value * scale for value in row] for row in dist]
    return dist


# ---------------------------------------------------------------------------
# stress, gradient, Hessian: each pair's separation is inlined, and two
# coincident points are kept apart by a jitter along x
# ---------------------------------------------------------------------------

def stress(
    positions: list[tuple[float, float]],
    d: list[list[float]],
    cfg: LayoutConfig,
) -> float:
    """Total spring energy of a configuration (rigid-motion invariant)."""
    K, jitter, hypot = cfg.spring_constant, 1e-9 * cfg.diameter, math.hypot
    total = 0.0
    for i, (xi, yi) in enumerate(positions):
        for dij, (xj, yj) in zip(d[i][i + 1:], positions[i + 1:]):
            r = hypot(xi - xj, yi - yj) or jitter
            total += K / (dij * dij) * (r - dij) ** 2
    return 0.5 * total


def stress_gradient(
    positions: list[tuple[float, float]],
    d: list[list[float]],
    cfg: LayoutConfig,
) -> list[tuple[float, float]]:
    """Analytic per-node gradient of the spring energy."""
    return [_node_gradient(i, positions, d, cfg) for i in range(len(positions))]


def _node_gradient(i, positions, d, cfg):
    K, jitter, hypot = cfg.spring_constant, 1e-9 * cfg.diameter, math.hypot
    row = d[i]
    xi, yi = positions[i]
    gx = gy = 0.0
    for j, (xj, yj) in enumerate(positions):
        if j == i:
            continue
        dij = row[j]
        dx, dy = xi - xj, yi - yj
        r = hypot(dx, dy)
        if r == 0.0:
            dx, dy, r = jitter, 0.0, jitter
        factor = K / (dij * dij) * (1.0 - dij / r)
        gx += factor * dx
        gy += factor * dy
    return gx, gy


def _update_gradients(grads, m, before, positions, d, cfg) -> None:
    """Bring every other node's kept gradient up to date after node m moved
    from ``before`` to ``positions[m]``: O(n) instead of a full O(n^2)
    recompute. The caller stores g_m, which relaxing m has just computed."""
    K, jitter, hypot = cfg.spring_constant, 1e-9 * cfg.diameter, math.hypot
    bx, by = before
    ax, ay = positions[m]
    for i, (xi, yi) in enumerate(positions):
        if i == m:
            continue
        dim = d[i][m]
        k = K / (dim * dim)
        dx0, dy0 = xi - bx, yi - by
        r0 = hypot(dx0, dy0)
        if r0 == 0.0:
            dx0, dy0, r0 = jitter, 0.0, jitter
        dx1, dy1 = xi - ax, yi - ay
        r1 = hypot(dx1, dy1)
        if r1 == 0.0:
            dx1, dy1, r1 = jitter, 0.0, jitter
        f0 = k * (1.0 - dim / r0)
        f1 = k * (1.0 - dim / r1)
        gx, gy = grads[i]
        grads[i] = (gx + (f1 * dx1 - f0 * dx0), gy + (f1 * dy1 - f0 * dy0))


def _node_terms(i, p, positions, d, cfg):
    """Node i's energy, gradient and Hessian with node i placed at ``p``,
    from one pass over the other nodes: (E, gx, gy, hxx, hyy, hxy)."""
    K, jitter, hypot = cfg.spring_constant, 1e-9 * cfg.diameter, math.hypot
    row = d[i]
    px, py = p
    total = gx = gy = hxx = hyy = hxy = 0.0
    for j, (xj, yj) in enumerate(positions):
        if j == i:
            continue
        dij = row[j]
        k = K / (dij * dij)
        dx, dy = px - xj, py - yj
        r = hypot(dx, dy)
        if r == 0.0:
            dx, dy, r = jitter, 0.0, jitter
        total += k * (r - dij) ** 2
        factor = k * (1.0 - dij / r)
        gx += factor * dx
        gy += factor * dy
        r3 = r * r * r
        hxx += k * (1.0 - dij * dy * dy / r3)
        hyy += k * (1.0 - dij * dx * dx / r3)
        hxy += k * dij * dx * dy / r3
    return 0.5 * total, gx, gy, hxx, hyy, hxy


def _relax_node(i, terms, positions, d, cfg) -> tuple[float, float]:
    """Drive node i's gradient below tolerance without raising its energy,
    starting from ``terms``, its ``_node_terms`` where it stands; return the
    exact gradient at its final place. Each trial point is evaluated once,
    and an accepted point's terms start the next step."""
    before, gx, gy, hxx, hyy, hxy = terms
    for _ in range(_MAX_INNER_STEPS):
        if math.hypot(gx, gy) < cfg.tolerance:
            break
        det = hxx * hyy - hxy * hxy
        if abs(det) > 1e-12:
            step_x = (-gx * hyy + gy * hxy) / det
            step_y = (gx * hxy - gy * hxx) / det
            # Newton direction must descend; otherwise fall back to -grad
            if step_x * gx + step_y * gy >= 0.0:
                step_x, step_y = -gx, -gy
        else:
            step_x, step_y = -gx, -gy
        t = 1.0
        while t > 1e-7:
            candidate = (positions[i][0] + t * step_x, positions[i][1] + t * step_y)
            trial = _node_terms(i, candidate, positions, d, cfg)
            if trial[0] <= before:
                positions[i] = candidate
                before, gx, gy, hxx, hyy, hxy = trial
                break
            t *= 0.5
        else:
            break  # no step lowered the energy
    return gx, gy


def _initial_positions(n: int, cfg: LayoutConfig) -> list[tuple[float, float]]:
    rng = random.Random(cfg.seed)
    radius = cfg.diameter / 2.0
    positions = []
    for _ in range(n):
        r = radius * math.sqrt(rng.random())
        theta = 2.0 * math.pi * rng.random()
        positions.append((r * math.cos(theta), r * math.sin(theta)))
    return positions


def _canonical_orientation(positions: list[tuple[float, float]]) -> list[tuple[float, float]]:
    n = len(positions)
    if n == 0:
        return positions
    cx = sum(p[0] for p in positions) / n
    cy = sum(p[1] for p in positions) / n
    centered = [(x - cx, y - cy) for x, y in positions]
    if n < 2:
        return centered
    best = (0, 1)
    best_dist = -1.0
    for i, (xi, yi) in enumerate(centered):
        for j, (xj, yj) in enumerate(centered[i + 1:], i + 1):
            dx = xj - xi
            dy = yj - yi
            dist = dx * dx + dy * dy
            if dist > best_dist:
                best_dist = dist
                best = (i, j)
    i, j = best
    dx = centered[j][0] - centered[i][0]
    dy = centered[j][1] - centered[i][1]
    if dx == 0.0 and dy == 0.0:
        return centered
    theta = math.atan2(dy, dx)
    cos_t, sin_t = math.cos(-theta), math.sin(-theta)
    return [(x * cos_t - y * sin_t, x * sin_t + y * cos_t) for x, y in centered]


def minimize_stress(
    d: list[list[float]],
    cfg: LayoutConfig,
    nodes: list[str] | None = None,
) -> Layout:
    """Relax the spring system to a local energy minimum.

    Deterministic for a given (d, cfg): the seed fixes the starting disc
    placement, node selection is by largest gradient norm with index
    tie-break, and every accepted step lowers (or keeps) total stress.

    Each node's gradient is computed once and then kept up to date: when
    node m moves from p to p', every other node i adds f(i, p') - f(i, p),
    its spring force from m at the new place minus that at the old, and g_m
    is the exact gradient that relaxing m ended with. Every n moves all
    gradients are recomputed afresh. The kept gradients only choose the
    node: one ``_node_terms`` pass at its place gives its exact energy,
    gradient and Hessian, and it is relaxed from those unless that gradient
    is below tolerance; then, or when the kept ones say stop while not
    fresh, all gradients are recomputed and the choice made again. So a run
    differs from a full recompute before every move only if drift in the
    last bits flips a near-tie for the largest gradient norm.
    """
    n = len(d)
    if any(len(row) != n for row in d):
        raise DataError("ideal distance matrix must be square")
    for i, row in enumerate(d):
        for j, (dij, other) in enumerate(zip(row, d)):
            if i != j and not 0 < dij < math.inf:
                raise DataError("ideal distances must be positive and finite off the diagonal")
            if abs(dij - other[i]) > 1e-12:
                raise DataError("ideal distance matrix must be symmetric")
    if nodes is None:
        nodes = [str(i) for i in range(n)]
    if len(nodes) != n:
        raise DataError("node list does not match distance matrix size")

    positions = _initial_positions(n, cfg)
    max_outer = cfg.max_outer_iterations if cfg.max_outer_iterations is not None else 200 * max(n, 1)

    grads = stress_gradient(positions, d, cfg)
    fresh = True
    iterations = 0
    while iterations < max_outer:
        worst = -1
        worst_norm = 0.0
        for i, (gx, gy) in enumerate(grads):
            norm = math.hypot(gx, gy)
            if norm > worst_norm:
                worst_norm = norm
                worst = i
        # relaxing and stopping read the exact gradient, never the kept one
        terms = None
        if worst_norm >= cfg.tolerance:
            terms = _node_terms(worst, positions[worst], positions, d, cfg)
        if terms is None or math.hypot(terms[1], terms[2]) < cfg.tolerance:
            if fresh:
                break
            grads = stress_gradient(positions, d, cfg)
            fresh = True
            continue
        before = positions[worst]
        grads[worst] = _relax_node(worst, terms, positions, d, cfg)
        iterations += 1
        if iterations % n == 0:
            grads = stress_gradient(positions, d, cfg)
            fresh = True
        else:
            _update_gradients(grads, worst, before, positions, d, cfg)
            fresh = False

    positions = _canonical_orientation(positions)
    return Layout(
        coordinates={nodes[i]: positions[i] for i in range(n)},
        final_stress=stress(positions, d, cfg),
        iterations_used=iterations,
    )


def layout_components(
    nodes: list[str],
    edges: dict[tuple[str, str], float],
    cfg: LayoutConfig,
) -> Layout:
    """Lay out each connected component, then pack them left to right.

    Components are ordered largest first (name tie-break) and separated by
    a gap of a quarter diameter; the combined picture is recentred on its
    centroid. Every edge weight must lie in the domain of the edge length
    transform, which is checked before any component is laid out.
    """
    _check_weights(edges, cfg.transform)
    adjacency: dict[str, set[str]] = {c: set() for c in nodes}
    for a, b in edges:
        if a in adjacency and b in adjacency:
            adjacency[a].add(b)
            adjacency[b].add(a)
    components = sorted(
        (sorted(comp) for comp in connected_components(set(nodes), adjacency)),
        key=lambda comp: (-len(comp), comp[0]),
    )

    # each component's edges in one pass, in the order ``edges`` holds them
    component_of = {name: k for k, component in enumerate(components) for name in component}
    grouped: list[dict[tuple[str, str], float]] = [{} for _ in components]
    for pair, w in edges.items():
        k = component_of.get(pair[0])
        if k is not None and component_of.get(pair[1]) == k:
            grouped[k][pair] = w

    gap = 0.25 * cfg.diameter
    coordinates: dict[str, tuple[float, float]] = {}
    total_stress = 0.0
    iterations = 0
    x_cursor = 0.0
    for component, member_edges in zip(components, grouped):
        part = minimize_stress(ideal_distances(component, member_edges, cfg), cfg, nodes=component)
        xs = [p[0] for p in part.coordinates.values()]
        ys = [p[1] for p in part.coordinates.values()]
        min_x, max_x = min(xs), max(xs)
        min_y = min(ys)
        for name in component:
            x, y = part.coordinates[name]
            coordinates[name] = (x - min_x + x_cursor, y - min_y)
        x_cursor += (max_x - min_x) + gap
        total_stress += part.final_stress
        iterations += part.iterations_used

    if coordinates:
        cx = sum(p[0] for p in coordinates.values()) / len(coordinates)
        cy = sum(p[1] for p in coordinates.values()) / len(coordinates)
        coordinates = {name: (x - cx, y - cy) for name, (x, y) in coordinates.items()}
    return Layout(coordinates=coordinates, final_stress=total_stress, iterations_used=iterations)
