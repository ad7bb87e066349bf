import math
import random

import pytest
from conftest import (
    oracle_layout_components,
    oracle_node_energy,
    oracle_node_gradient,
    oracle_node_hessian,
    oracle_stress,
    oracle_update_gradients,
)

from collabmap import layout as layout_mod
from collabmap.errors import DataError
from collabmap.layout import (
    DisconnectedGraphError,
    EdgeLengthTransform,
    LayoutConfig,
    edge_length,
    ideal_distances,
    layout_components,
    minimize_stress,
    stress,
    stress_gradient,
)


def reference_stress(positions, d, spring_constant):
    """Independent energy evaluation used by the finite-difference oracle."""
    total = 0.0
    n = len(positions)
    for i in range(n):
        for j in range(i + 1, n):
            dx = positions[i][0] - positions[j][0]
            dy = positions[i][1] - positions[j][1]
            r = math.sqrt(dx * dx + dy * dy)
            total += spring_constant / d[i][j] ** 2 * (r - d[i][j]) ** 2
    return 0.5 * total


def random_positions(rng, n, spread=1.0):
    return [(spread * (rng.random() - 0.5), spread * (rng.random() - 0.5)) for _ in range(n)]


def record_outer_stress(monkeypatch) -> list[float]:
    """Total stress before the first node relaxation and after each one.

    Clear the returned list before each ``minimize_stress`` run."""
    relax = layout_mod._relax_node
    seen: list[float] = []

    def recording(i, gradient, positions, d, cfg):
        if not seen:
            seen.append(stress(positions, d, cfg))
        relaxed = relax(i, gradient, positions, d, cfg)
        seen.append(stress(positions, d, cfg))
        return relaxed

    monkeypatch.setattr(layout_mod, "_relax_node", recording)
    return seen


def random_distance_matrix(rng, n):
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = 0.2 + rng.random()
            d[i][j] = d[j][i] = value
    return d


# ---------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------

_BAD_SETTINGS = [
    ({"tolerance": 0.0}, "layout tolerance must be positive and finite"),
    ({"tolerance": -1e-4}, "layout tolerance must be positive and finite"),
    ({"tolerance": math.nan}, "layout tolerance must be positive and finite"),
    ({"tolerance": math.inf}, "layout tolerance must be positive and finite"),
    ({"diameter": 0.0}, "layout scale parameters must be positive and finite"),
    ({"diameter": -1.0}, "layout scale parameters must be positive and finite"),
    ({"diameter": math.nan}, "layout scale parameters must be positive and finite"),
    ({"diameter": math.inf}, "layout scale parameters must be positive and finite"),
    ({"spring_constant": 0.0}, "layout scale parameters must be positive and finite"),
    ({"spring_constant": -2.0}, "layout scale parameters must be positive and finite"),
    ({"spring_constant": math.nan}, "layout scale parameters must be positive and finite"),
    ({"spring_constant": -math.inf}, "layout scale parameters must be positive and finite"),
    ({"max_outer_iterations": 0}, "max_outer_iterations must be at least 1"),
    ({"max_outer_iterations": -3}, "max_outer_iterations must be at least 1"),
    ({"max_outer_iterations": 2.5}, "max_outer_iterations must be an integer"),
    ({"max_outer_iterations": math.inf}, "max_outer_iterations must be an integer"),
    ({"max_outer_iterations": True}, "max_outer_iterations must be an integer"),
    ({"transform": "inverse_log_weight"},
     "layout transform must be an EdgeLengthTransform, got 'inverse_log_weight'"),
    ({"transform": None}, "layout transform must be an EdgeLengthTransform, got None"),
]


@pytest.mark.parametrize("changes, message", _BAD_SETTINGS)
def test_bad_layout_settings_are_data_errors(changes, message):
    """Settings are checked when made, and when a copy is made with a change."""
    with pytest.raises(DataError, match=f"^{message}$"):
        LayoutConfig(**changes)
    good = LayoutConfig(max_outer_iterations=5)
    with pytest.raises(DataError, match=f"^{message}$"):
        good._replace(**changes)


def test_layout_settings_are_values():
    """Equal settings are equal and hash alike, as keys of the layouts a
    workspace keeps; a copy with a change keeps the other settings."""
    cfg = LayoutConfig(diameter=2.0, seed=7)
    assert cfg == LayoutConfig(diameter=2.0, seed=7) and hash(cfg) == hash(LayoutConfig(diameter=2.0, seed=7))
    changed = cfg._replace(max_outer_iterations=1)
    assert changed != cfg and type(changed) is LayoutConfig
    assert changed == LayoutConfig(diameter=2.0, seed=7, max_outer_iterations=1)


# ---------------------------------------------------------------------------
# ideal distances
# ---------------------------------------------------------------------------

def test_single_edge_unit_transform_scaled_to_diameter():
    cfg = LayoutConfig(transform=EdgeLengthTransform.UNIT, diameter=3.0)
    d = ideal_distances(["a", "b"], {("a", "b"): 5.0}, cfg)
    assert d[0][1] == pytest.approx(3.0)
    assert d[1][0] == pytest.approx(3.0)
    assert d[0][0] == 0.0


def test_path_distances_additive():
    cfg = LayoutConfig(transform=EdgeLengthTransform.UNIT, diameter=1.0)
    d = ideal_distances(["a", "b", "c"], {("a", "b"): 1.0, ("b", "c"): 1.0}, cfg)
    assert d[0][2] == pytest.approx(2 * d[0][1])


def test_transforms():
    assert edge_length(1.0, EdgeLengthTransform.INVERSE_LOG_WEIGHT) == pytest.approx(1 / math.log(2))
    assert edge_length(0.25, EdgeLengthTransform.ONE_MINUS_SIMILARITY) == pytest.approx(0.75)
    assert edge_length(7.0, EdgeLengthTransform.UNIT) == 1.0
    # similarity 1.0 clamps rather than collapsing to zero length
    assert edge_length(1.0, EdgeLengthTransform.ONE_MINUS_SIMILARITY) > 0.0
    # a transform's string value is no transform
    with pytest.raises(DataError, match="^layout transform must be an EdgeLengthTransform, got 'unit'$"):
        edge_length(5.0, "unit")


def test_six_node_fixture_matches_path_enumeration_oracle():
    nodes = ["a", "b", "c", "d", "e", "f"]
    edges = {
        ("a", "b"): 4.0,
        ("b", "c"): 1.0,
        ("a", "c"): 2.0,
        ("c", "d"): 3.0,
        ("d", "e"): 1.0,
        ("e", "f"): 2.0,
        ("c", "f"): 1.0,
    }
    cfg = LayoutConfig(transform=EdgeLengthTransform.INVERSE_LOG_WEIGHT, diameter=1.0)
    d = ideal_distances(nodes, edges, cfg)

    # oracle: enumerate every simple path between every pair
    lengths = {}
    for (u, v), w in edges.items():
        lengths[(u, v)] = lengths[(v, u)] = edge_length(w, cfg.transform)

    def all_simple_paths(start, goal, visited):
        if start == goal:
            yield 0.0
            return
        for (u, v), length in lengths.items():
            if u == start and v not in visited:
                for rest in all_simple_paths(v, goal, visited | {v}):
                    yield length + rest

    n = len(nodes)
    raw = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                raw[i][j] = min(all_simple_paths(nodes[i], nodes[j], {nodes[i]}))
    longest = max(raw[i][j] for i in range(n) for j in range(n))
    for i in range(n):
        for j in range(n):
            assert d[i][j] == pytest.approx(raw[i][j] / longest, abs=1e-12)


def test_disconnected_graph_rejected():
    cfg = LayoutConfig()
    with pytest.raises(DisconnectedGraphError):
        ideal_distances(["a", "b", "c"], {("a", "b"): 1.0}, cfg)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def test_two_nodes_at_rest_length_zero_gradient():
    cfg = LayoutConfig()
    d = [[0.0, 1.0], [1.0, 0.0]]
    grads = stress_gradient([(0.0, 0.0), (1.0, 0.0)], d, cfg)
    for gx, gy in grads:
        assert math.hypot(gx, gy) < 1e-12


def test_gradient_matches_central_finite_differences():
    rng = random.Random(73)
    cfg = LayoutConfig()
    h = 1e-6
    for _ in range(20):
        n = rng.randint(2, 10)
        d = random_distance_matrix(rng, n)
        positions = random_positions(rng, n, spread=2.0)
        grads = stress_gradient(positions, d, cfg)
        scale = max(1.0, max(math.hypot(gx, gy) for gx, gy in grads))
        for i in range(n):
            for axis in (0, 1):
                plus = [list(p) for p in positions]
                minus = [list(p) for p in positions]
                plus[i][axis] += h
                minus[i][axis] -= h
                fd = (
                    reference_stress([tuple(p) for p in plus], d, cfg.spring_constant)
                    - reference_stress([tuple(p) for p in minus], d, cfg.spring_constant)
                ) / (2 * h)
                assert abs(grads[i][axis] - fd) / scale < 1e-5


def test_gradient_handles_coincident_nodes():
    cfg = LayoutConfig()
    d = [[0.0, 1.0], [1.0, 0.0]]
    grads = stress_gradient([(0.5, 0.5), (0.5, 0.5)], d, cfg)
    assert all(math.isfinite(g) for pair in grads for g in pair)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

def test_two_node_spring_settles_at_rest_length():
    cfg = LayoutConfig(tolerance=1e-4)
    layout = minimize_stress([[0.0, 1.0], [1.0, 0.0]], cfg, nodes=["a", "b"])
    (x1, y1), (x2, y2) = layout.coordinates["a"], layout.coordinates["b"]
    assert math.hypot(x1 - x2, y1 - y2) == pytest.approx(1.0, abs=1e-4)


def test_equilateral_triangle_distances():
    cfg = LayoutConfig(tolerance=1e-6)
    d = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    layout = minimize_stress(d, cfg, nodes=["a", "b", "c"])
    points = [layout.coordinates[c] for c in ("a", "b", "c")]
    for i in range(3):
        for j in range(i + 1, 3):
            dist = math.hypot(points[i][0] - points[j][0], points[i][1] - points[j][1])
            assert dist == pytest.approx(1.0, abs=1e-3)


def test_stress_non_increasing_every_outer_iteration(monkeypatch):
    history = record_outer_stress(monkeypatch)
    rng = random.Random(79)
    for _ in range(5):
        n = rng.randint(3, 9)
        d = random_distance_matrix(rng, n)
        cfg = LayoutConfig(seed=rng.randint(0, 10**6))
        history.clear()
        minimize_stress(d, cfg)
        assert len(history) >= 2
        for before, after in zip(history, history[1:]):
            assert after <= before + 1e-12


def test_minimize_computes_stress_once(monkeypatch):
    calls = []
    total = layout_mod.stress
    monkeypatch.setattr(layout_mod, "stress", lambda *args: calls.append(1) or total(*args))
    layout = minimize_stress(random_distance_matrix(random.Random(83), 6), LayoutConfig())
    assert layout.iterations_used > 1
    assert len(calls) == 1


def full_recompute_layout(d, cfg):
    """Reference outer loop: every node's gradient recomputed from scratch
    before each move, then the node with the largest norm relaxed."""
    n = len(d)
    positions = layout_mod._initial_positions(n, cfg)
    max_outer = cfg.max_outer_iterations if cfg.max_outer_iterations is not None else 200 * max(n, 1)
    iterations = 0
    for _ in range(max_outer):
        grads = stress_gradient(positions, d, cfg)
        worst = -1
        worst_norm = 0.0
        for i, (gx, gy) in enumerate(grads):
            norm = math.hypot(gx, gy)
            if norm > worst_norm:
                worst_norm = norm
                worst = i
        if worst < 0 or worst_norm < cfg.tolerance:
            break
        terms = layout_mod._node_terms(worst, positions[worst], positions, d, cfg)
        layout_mod._relax_node(worst, terms, positions, d, cfg)
        iterations += 1
    return layout_mod._canonical_orientation(positions), iterations


def test_kept_gradients_match_full_recompute_oracle():
    rng = random.Random(107)
    capped = 0
    for trial in range(20):
        n = rng.randint(3, 40)
        d = random_distance_matrix(rng, n)
        cap = None if trial % 2 else rng.choice([n, 3 * n, 150])
        cfg = LayoutConfig(seed=rng.randint(0, 10**6), max_outer_iterations=cap)
        layout = minimize_stress(d, cfg)
        positions, iterations = full_recompute_layout(d, cfg)
        assert layout.iterations_used == iterations
        assert list(layout.coordinates.values()) == positions
        capped += iterations == cap
    assert capped > 0


def test_stale_kept_gradients_are_recomputed_before_stopping(monkeypatch):
    def forget(grads, m, before, positions, d, cfg):
        grads[:] = [(0.0, 0.0)] * len(grads)

    monkeypatch.setattr(layout_mod, "_update_gradients", forget)
    d = random_distance_matrix(random.Random(113), 12)
    cfg = LayoutConfig()
    layout = minimize_stress(d, cfg)
    positions, iterations = full_recompute_layout(d, cfg)
    assert layout.iterations_used == iterations > 12
    assert list(layout.coordinates.values()) == positions


def test_full_gradient_recompute_once_per_n_moves(monkeypatch):
    calls = []
    full = layout_mod.stress_gradient
    monkeypatch.setattr(
        layout_mod, "stress_gradient", lambda *args: calls.append(1) or full(*args)
    )
    n = 30
    layout = minimize_stress(random_distance_matrix(random.Random(109), n), LayoutConfig())
    moves = layout.iterations_used
    assert moves >= 3 * n
    assert len(calls) <= moves // n + 4


def kernel_case(rng):
    """Positions with some coincident pairs, a distance matrix that is
    symmetric only to within 1e-12, and a non-default configuration."""
    n = rng.randint(2, 40)
    positions = random_positions(rng, n, spread=2.0)
    for _ in range(rng.randint(1, 3)):
        positions[rng.randrange(n)] = positions[rng.randrange(n)]
    d = random_distance_matrix(rng, n)
    for i in range(n):
        for j in range(i + 1, n):
            d[j][i] += rng.choice([-5e-13, 0.0, 5e-13])
    cfg = LayoutConfig(spring_constant=rng.uniform(0.5, 2.0), diameter=rng.uniform(0.5, 3.0))
    return positions, d, cfg


def test_kernels_equal_the_per_pair_oracles():
    rng = random.Random(127)
    for _ in range(40):
        positions, d, cfg = kernel_case(rng)
        n = len(positions)
        assert stress(positions, d, cfg) == oracle_stress(positions, d, cfg)
        for i in range(n):
            assert layout_mod._node_gradient(i, positions, d, cfg) == oracle_node_gradient(i, positions, d, cfg)
            # at its place, at a place it shares with some node, at a random place
            for p in (positions[i], positions[rng.randrange(n)], random_positions(rng, 1)[0]):
                placed = positions[:i] + [p] + positions[i + 1:]
                assert layout_mod._node_terms(i, p, positions, d, cfg) == (
                    oracle_node_energy(i, p, positions, d, cfg),
                    *oracle_node_gradient(i, placed, d, cfg),
                    *oracle_node_hessian(i, placed, d, cfg),
                )
        m = rng.randrange(n)
        before = positions[m]
        positions[m] = rng.choice([positions[rng.randrange(n)], random_positions(rng, 1)[0]])
        start = random_positions(rng, n)
        kept, expected = list(start), list(start)
        oracle_update_gradients(expected, m, before, positions, d, cfg)
        layout_mod._update_gradients(kept, m, before, positions, d, cfg)
        assert kept[:m] + kept[m + 1:] == expected[:m] + expected[m + 1:]
        assert kept[m] == start[m]
        assert expected[m] == layout_mod._node_gradient(m, positions, d, cfg)


def test_relax_node_returns_the_exact_gradient_on_every_exit(monkeypatch):
    def relax(positions, d, cfg, i=0):
        start = list(positions)
        terms = layout_mod._node_terms(i, positions[i], positions, d, cfg)
        relaxed = layout_mod._relax_node(i, terms, positions, d, cfg)
        assert relaxed == layout_mod._node_gradient(i, positions, d, cfg)
        return start, relaxed

    rng = random.Random(131)
    n = 8
    d = random_distance_matrix(rng, n)
    positions = random_positions(rng, n, spread=2.0)
    gradient = layout_mod._node_gradient(0, positions, d, LayoutConfig())

    # below tolerance on entry: nothing moves
    cfg = LayoutConfig(tolerance=2.0 * math.hypot(*gradient))
    start, relaxed = relax(positions, d, cfg)
    assert positions == start and relaxed == gradient

    # no accepted step: after the first move every candidate place costs more
    node_terms = layout_mod._node_terms
    place = positions[0]
    with monkeypatch.context() as patch:
        patch.setattr(layout_mod, "_node_terms", lambda i, p, pos, d, cfg: (
            node_terms(i, p, pos, d, cfg) if p is pos[i] or pos[i] == place
            else (math.inf, *node_terms(i, p, pos, d, cfg)[1:])
        ))
        start, relaxed = relax(positions, d, LayoutConfig())
    assert positions[0] != start[0] and positions[1:] == start[1:]
    assert relaxed != gradient and math.hypot(*relaxed) >= LayoutConfig().tolerance
    positions = start

    # the inner-step cap: both allowed steps are taken (as the next test
    # counts) and the node is still above tolerance
    monkeypatch.setattr(layout_mod, "_MAX_INNER_STEPS", 2)
    cfg = LayoutConfig(tolerance=1e-12)
    start, relaxed = relax(positions, d, cfg)
    assert positions != start and math.hypot(*relaxed) >= cfg.tolerance

    # and on whatever exits full runs take
    monkeypatch.undo()
    relax_node = layout_mod._relax_node

    def checked(i, gradient, positions, d, cfg):
        relaxed = relax_node(i, gradient, positions, d, cfg)
        assert relaxed == layout_mod._node_gradient(i, positions, d, cfg)
        return relaxed

    monkeypatch.setattr(layout_mod, "_relax_node", checked)
    for _ in range(5):
        minimize_stress(random_distance_matrix(rng, rng.randint(3, 20)), LayoutConfig(seed=rng.randint(0, 99)))


def test_each_trial_point_is_evaluated_once(monkeypatch):
    """Relaxing calls ``_node_terms`` once for each point it tries and never
    ``_node_gradient``; a capped run calls ``_node_gradient`` only through
    ``stress_gradient``."""
    rng = random.Random(131)
    n = 8
    d = random_distance_matrix(rng, n)
    positions = random_positions(rng, n, spread=2.0)
    cfg = LayoutConfig(tolerance=1e-12)
    start = positions[0]
    terms = layout_mod._node_terms(0, start, positions, d, cfg)
    trials, places, gradients = [], [], []
    node_terms, node_gradient = layout_mod._node_terms, layout_mod._node_gradient

    def counted_terms(i, p, pos, d, cfg):
        trials.append(p)
        places.append(pos[i])
        return node_terms(i, p, pos, d, cfg)

    monkeypatch.setattr(layout_mod, "_MAX_INNER_STEPS", 2)
    monkeypatch.setattr(layout_mod, "_node_terms", counted_terms)
    monkeypatch.setattr(layout_mod, "_node_gradient", lambda *args: gradients.append(args) or node_gradient(*args))
    layout_mod._relax_node(0, terms, positions, d, cfg)
    assert gradients == []
    # every call tries a new point, away from where the node stands ...
    assert len(set(trials)) == len(trials)
    assert all(p != place for p, place in zip(trials, places))
    # ... and each of the two allowed steps ends on the point it accepts
    k = next(j for j, place in enumerate(places) if place != start)
    assert places == [start] * k + [trials[k - 1]] * (len(trials) - k)
    assert positions[0] == trials[-1]

    monkeypatch.undo()
    full_calls, node_calls = [], []
    full, node_gradient = layout_mod.stress_gradient, layout_mod._node_gradient
    monkeypatch.setattr(layout_mod, "stress_gradient", lambda *args: full_calls.append(1) or full(*args))
    monkeypatch.setattr(layout_mod, "_node_gradient", lambda *args: node_calls.append(1) or node_gradient(*args))
    n = 12
    layout = minimize_stress(random_distance_matrix(rng, n), LayoutConfig(max_outer_iterations=3 * n))
    assert layout.iterations_used == 3 * n
    assert len(node_calls) == n * len(full_calls) > 0


def test_node_terms_match_finite_differences():
    """The Hessian against central differences of the gradient, and the
    energy against differences of the total stress as the node moves."""
    rng = random.Random(139)
    cfg = LayoutConfig()
    h = 1e-6
    for _ in range(20):
        n = rng.randint(2, 10)
        d = random_distance_matrix(rng, n)
        positions = random_positions(rng, n, spread=2.0)
        total = reference_stress(positions, d, cfg.spring_constant)
        for i in range(n):
            x, y = positions[i]
            energy, _gx, _gy, hxx, hyy, hxy = layout_mod._node_terms(i, (x, y), positions, d, cfg)

            def gradient(p):
                return layout_mod._node_terms(i, p, positions, d, cfg)[1:3]

            along_x = [(a - b) / (2 * h) for a, b in zip(gradient((x + h, y)), gradient((x - h, y)))]
            along_y = [(a - b) / (2 * h) for a, b in zip(gradient((x, y + h)), gradient((x, y - h)))]
            scale = max(1.0, abs(hxx), abs(hyy), abs(hxy))
            for exact, fd in ((hxx, along_x[0]), (hxy, along_x[1]), (hxy, along_y[0]), (hyy, along_y[1])):
                assert abs(exact - fd) / scale < 1e-5

            q = random_positions(rng, 1, spread=2.0)[0]
            moved = reference_stress(positions[:i] + [q] + positions[i + 1:], d, cfg.spring_constant)
            change = layout_mod._node_terms(i, q, positions, d, cfg)[0] - energy
            assert abs(change - (moved - total)) / max(1.0, total, moved) < 1e-5


@pytest.mark.parametrize("transform, weight", [
    (EdgeLengthTransform.INVERSE_LOG_WEIGHT, 0.0),
    (EdgeLengthTransform.INVERSE_LOG_WEIGHT, -2.0),
    (EdgeLengthTransform.INVERSE_LOG_WEIGHT, math.nan),
    (EdgeLengthTransform.INVERSE_LOG_WEIGHT, math.inf),
    (EdgeLengthTransform.ONE_MINUS_SIMILARITY, math.nan),
    (EdgeLengthTransform.ONE_MINUS_SIMILARITY, -math.inf),
    (EdgeLengthTransform.UNIT, math.inf),
])
def test_edge_weight_outside_its_domain_is_data_error_before_any_layout(monkeypatch, transform, weight):
    cfg = LayoutConfig(transform=transform)
    calls = []
    monkeypatch.setattr(layout_mod, "ideal_distances", lambda *args: calls.append(1))
    # the bad edge's component would be laid out second
    message = f"^edge C-D has weight {weight!r}, outside the domain of {transform.value}$"
    with pytest.raises(DataError, match=message):
        layout_components(["A", "B", "C", "D"], {("A", "B"): 0.5, ("C", "D"): weight}, cfg)
    assert calls == []


@pytest.mark.parametrize("weight", [0.0, -2.0, math.nan, math.inf])
def test_ideal_distances_refuses_an_edge_weight_outside_its_domain(weight):
    """A direct call refuses the weight with the error layout_components gives."""
    message = f"^edge A-B has weight {weight!r}, outside the domain of inverse_log_weight$"
    with pytest.raises(DataError, match=message) as caught:
        ideal_distances(["A", "B"], {("A", "B"): weight}, LayoutConfig())
    assert type(caught.value) is DataError


@pytest.mark.parametrize("transform, weight", [
    (EdgeLengthTransform.INVERSE_LOG_WEIGHT, 1e-3),
    (EdgeLengthTransform.ONE_MINUS_SIMILARITY, -2.0),
    (EdgeLengthTransform.ONE_MINUS_SIMILARITY, 1.5),
    (EdgeLengthTransform.UNIT, -5.0),
])
def test_edge_weight_inside_its_domain_is_laid_out(transform, weight):
    layout = layout_components(["A", "B"], {("A", "B"): weight}, LayoutConfig(transform=transform))
    assert all(math.isfinite(v) for p in layout.coordinates.values() for v in p)
    assert math.isfinite(layout.final_stress)


def test_layout_components_groups_edges_like_the_per_component_filter(monkeypatch):
    rng = random.Random(137)
    nodes = [f"N{i:02d}" for i in range(40)]
    big, small = nodes[3:10], nodes[20:24]
    edges = {}
    for part in (big, small):
        for a, b in zip(part, part[1:]):
            edges[(a, b)] = rng.uniform(1.0, 5.0)
        edges[(part[0], part[-1])] = rng.uniform(1.0, 5.0)
    pairs = list(edges.items())
    rng.shuffle(pairs)
    # an edge to a node outside the map is ignored by both
    edges = dict(pairs[:3] + [(("N05", "ELSEWHERE"), 2.0)] + pairs[3:])
    cfg = LayoutConfig(transform=EdgeLengthTransform.INVERSE_LOG_WEIGHT, seed=7)
    seen = []
    distances = layout_mod.ideal_distances
    with monkeypatch.context() as patch:
        patch.setattr(layout_mod, "ideal_distances",
                      lambda comp, member_edges, cfg: seen.append((comp, list(member_edges.items())))
                      or distances(comp, member_edges, cfg))
        layout = layout_components(nodes, edges, cfg)
    assert len(seen) == 40 - 7 - 4 + 2
    for comp, member_edges in seen:
        assert member_edges == [(p, w) for p, w in edges.items() if p[0] in comp and p[1] in comp]
    expected = oracle_layout_components(nodes, edges, cfg)
    assert list(layout.coordinates.items()) == list(expected.coordinates.items())
    assert layout.final_stress == expected.final_stress
    assert layout.iterations_used == expected.iterations_used > 0


def oracle_gradient_descent(d, spring_constant, rng, iterations=400):
    """Plain full-configuration descent with backtracking (restart oracle)."""
    n = len(d)
    positions = random_positions(rng, n, spread=2.0)

    def energy(pos):
        return reference_stress(pos, d, spring_constant)

    def gradient(pos):
        grads = []
        for i in range(n):
            gx = gy = 0.0
            for j in range(n):
                if i == j:
                    continue
                dx = pos[i][0] - pos[j][0]
                dy = pos[i][1] - pos[j][1]
                r = math.hypot(dx, dy) or 1e-12
                factor = spring_constant / d[i][j] ** 2 * (1.0 - d[i][j] / r)
                gx += factor * dx
                gy += factor * dy
            grads.append((gx, gy))
        return grads

    current = energy(positions)
    for _ in range(iterations):
        grads = gradient(positions)
        norm = math.sqrt(sum(gx * gx + gy * gy for gx, gy in grads))
        if norm < 1e-9:
            break
        step = 1.0
        while step > 1e-9:
            candidate = [
                (positions[i][0] - step * grads[i][0], positions[i][1] - step * grads[i][1])
                for i in range(n)
            ]
            e = energy(candidate)
            if e < current:
                positions = candidate
                current = e
                break
            step *= 0.5
        else:
            break
    return current


def test_six_node_stress_within_one_percent_of_restart_oracle():
    nodes = ["a", "b", "c", "d", "e", "f"]
    edges = {
        ("a", "b"): 3.0,
        ("b", "c"): 2.0,
        ("a", "c"): 2.0,
        ("c", "d"): 4.0,
        ("d", "e"): 2.0,
        ("e", "f"): 3.0,
        ("d", "f"): 2.0,
    }
    cfg = LayoutConfig(tolerance=1e-6)
    d = ideal_distances(nodes, edges, cfg)
    layout = minimize_stress(d, cfg, nodes=nodes)

    rng = random.Random(97)
    best = min(oracle_gradient_descent(d, cfg.spring_constant, rng) for _ in range(100))
    assert layout.final_stress <= best * 1.01 + 1e-12
    assert layout.final_stress >= best * 0.99 - 1e-12


def test_layout_deterministic_bit_identical():
    nodes = ["a", "b", "c", "d"]
    edges = {("a", "b"): 2.0, ("b", "c"): 1.0, ("c", "d"): 3.0, ("a", "d"): 1.0}
    cfg = LayoutConfig(seed=42)
    one = layout_components(nodes, edges, cfg)
    two = layout_components(nodes, edges, cfg)
    assert one.coordinates == two.coordinates
    assert one.final_stress == two.final_stress
    different = layout_components(nodes, edges, LayoutConfig(seed=43))
    assert different.coordinates != one.coordinates


def test_canonical_orientation():
    rng = random.Random(101)
    n = 7
    d = random_distance_matrix(rng, n)
    cfg = LayoutConfig()
    layout = minimize_stress(d, cfg)
    points = list(layout.coordinates.values())
    cx = sum(p[0] for p in points) / n
    cy = sum(p[1] for p in points) / n
    assert abs(cx) < 1e-9 * cfg.diameter
    assert abs(cy) < 1e-9 * cfg.diameter
    best = None
    best_dist = -1.0
    for i in range(n):
        for j in range(i + 1, n):
            dist = math.hypot(points[j][0] - points[i][0], points[j][1] - points[i][1])
            if dist > best_dist:
                best_dist = dist
                best = (i, j)
    i, j = best
    angle = math.atan2(points[j][1] - points[i][1], points[j][0] - points[i][0])
    assert min(abs(angle), abs(abs(angle) - math.pi)) < 1e-9


def test_stress_rigid_motion_invariant():
    rng = random.Random(103)
    n = 6
    d = random_distance_matrix(rng, n)
    cfg = LayoutConfig()
    positions = random_positions(rng, n, spread=3.0)
    base = stress(positions, d, cfg)
    theta = 1.234
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    moved = [
        (x * cos_t - y * sin_t + 17.0, x * sin_t + y * cos_t - 4.0) for x, y in positions
    ]
    assert abs(stress(moved, d, cfg) - base) < 1e-9


def test_minimize_rejects_bad_matrices():
    cfg = LayoutConfig()
    with pytest.raises(DataError):
        minimize_stress([[0.0, 0.0], [0.0, 0.0]], cfg)
    with pytest.raises(DataError):
        minimize_stress([[0.0, 1.0], [2.0, 0.0]], cfg)
    for bad in (math.inf, math.nan):
        with pytest.raises(DataError, match="^ideal distances must be positive and finite off the diagonal$"):
            minimize_stress([[0.0, 1.0, 1.0], [1.0, 0.0, bad], [1.0, bad, 0.0]], cfg)


def test_layout_components_packs_disconnected_graphs():
    nodes = ["a", "b", "c", "d", "e"]
    edges = {("a", "b"): 1.0, ("c", "d"): 1.0}
    cfg = LayoutConfig(transform=EdgeLengthTransform.UNIT)
    layout = layout_components(nodes, edges, cfg)
    assert set(layout.coordinates) == set(nodes)
    # components must not overlap horizontally
    xs = {name: layout.coordinates[name][0] for name in nodes}
    assert max(xs["a"], xs["b"]) < min(xs["c"], xs["d"])
    assert max(xs["c"], xs["d"]) < xs["e"]
    # centred on the centroid
    assert sum(p[0] for p in layout.coordinates.values()) == pytest.approx(0.0, abs=1e-9)
    assert sum(p[1] for p in layout.coordinates.values()) == pytest.approx(0.0, abs=1e-9)
    # a lone node and an empty graph go through the same path
    single = layout_components(["a"], {}, cfg)
    assert single.coordinates == {"a": (0.0, 0.0)}
    assert single.final_stress == 0.0
    assert single.iterations_used == 0
    assert layout_components([], {}, cfg).coordinates == {}
