import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swarmcbf import dynamics as dyn, world
from swarmcbf.world import (Obstacle, ScenarioConfig, build_graph,
                            generate_scenario, label_sample, label_all,
                            make_scenario_config, raycast, step_world,
                            LABEL_SAFE, LABEL_UNSAFE, LABEL_BUFFER)

CAR = dyn.make_model("SimpleCar")


def car_states(positions):
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    out = np.zeros((pos.shape[0], 4))
    out[:, :2] = pos
    return out


# --- raycast ---------------------------------------------------------------

def test_ray_circle_example():
    scan = raycast([0.0, 0.0], [Obstacle.circle([0.3, 0.0], 0.1)], 32, 1.0)
    assert scan.valid[0]
    assert np.allclose(scan.rel[0], [0.2, 0.0], atol=1e-12)


def test_raycast_empty_world():
    scan = raycast([0.0, 0.0], [], 32, 1.0)
    assert not scan.valid.any()


def test_raycast_out_of_range():
    scan = raycast([0.0, 0.0], [Obstacle.circle([2.5, 0.0], 0.1)], 32, 1.0)
    assert not scan.valid.any()


def test_raycast_rect_and_inside():
    scan = raycast([0.0, 0.0], [Obstacle.rect([0.5, 0.0], [0.2, 0.2])], 32, 1.0)
    assert scan.valid[0]
    assert np.allclose(scan.rel[0], [0.4, 0.0], atol=1e-12)
    # origin inside the box: rays exit through the boundary
    inside = raycast([0.5, 0.0], [Obstacle.rect([0.5, 0.0], [0.2, 0.2])], 32, 1.0)
    assert inside.valid.all()


def test_lidar_hits_lie_on_boundaries():
    obstacles = [Obstacle.circle([0.4, 0.1], 0.15),
                 Obstacle.rect([-0.3, -0.2], [0.25, 0.4]),
                 Obstacle.circle([-0.1, 0.45], 0.05)]
    rng = np.random.default_rng(0)
    for _ in range(20):
        origin = rng.uniform(-0.8, 0.8, size=2)
        scan = raycast(origin, obstacles, 32, 1.0)
        for rel, ok in zip(scan.rel, scan.valid):
            if not ok:
                continue
            p = origin + rel
            boundary = min(abs(np.linalg.norm(p - ob.center) - ob.size[0])
                           if ob.shape == "circle" else
                           _rect_boundary_dist(p, ob)
                           for ob in obstacles)
            assert boundary < 1e-9
            assert np.linalg.norm(rel) <= 1.0 + 1e-12


def _rect_boundary_dist(p, ob):
    half = ob.size / 2.0
    d = np.abs(p - ob.center) - half
    inside = (d <= 0).all()
    if inside:
        return float(np.min(-d))
    return float(np.linalg.norm(np.maximum(d, 0.0)))


def test_raycast_3d_directions_even():
    dirs = world.ray_directions(3, 32)
    assert dirs.shape == (32, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    scan = raycast([0.0, 0.0, 0.0], [Obstacle.circle([0.3, 0, 0], 0.1)], 32, 1.0)
    assert scan.valid.any()


# Reference: the per-agent, per-obstacle raycast the batched one replaced.

def _ref_ray_circle(origin, dirs, center, radius):
    f = origin - center
    b = dirs @ f
    c = f @ f - radius * radius
    disc = b * b - c
    t = np.full(dirs.shape[0], np.inf)
    ok = disc >= 0.0
    sq = np.sqrt(np.maximum(disc, 0.0))
    t1 = -b - sq
    t2 = -b + sq
    first = np.where(t1 >= 0.0, t1, np.where(t2 >= 0.0, t2, np.inf))
    t[ok] = first[ok]
    return t


def _ref_ray_rect(origin, dirs, center, half):
    lo = center - half
    hi = center + half
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (lo - origin) / dirs
        t_hi = (hi - origin) / dirs
    t_near = np.where(np.isnan(t_lo), -np.inf, np.minimum(t_lo, t_hi))
    t_far = np.where(np.isnan(t_hi), np.inf, np.maximum(t_lo, t_hi))
    inside = (origin >= lo) & (origin <= hi)
    par = dirs == 0.0
    t_near = np.where(par & inside, -np.inf, t_near)
    t_far = np.where(par & inside, np.inf, t_far)
    t_near = np.where(par & ~inside, np.inf, t_near)
    t_far = np.where(par & ~inside, -np.inf, t_far)
    enter = t_near.max(axis=1)
    leave = t_far.min(axis=1)
    hit = enter <= leave
    return np.where(hit & (enter >= 0.0), enter,
                    np.where(hit & (leave >= 0.0), leave, np.inf))


def _ref_raycast(points, obstacles, n_rays, R):
    """(rel, valid) stacked over points, one point and obstacle at a time.

    A point with a non-finite coordinate sees nothing.  The loop alone
    gave that only when every coordinate was NaN: with one NaN, its slab
    test ignored that axis and reported hits on boxes.
    """
    sd = points.shape[1]
    dirs = world.ray_directions(sd, n_rays)
    rel, valid = np.zeros((0, n_rays, sd)), np.zeros((0, n_rays), dtype=bool)
    for position in points:
        best = np.full(n_rays, np.inf)
        for ob in obstacles if np.isfinite(position).all() else ():
            if ob.shape == "circle":
                t = _ref_ray_circle(position, dirs, ob.center, float(ob.size[0]))
            else:
                t = _ref_ray_rect(position, dirs, ob.center, ob.size / 2.0)
            best = np.minimum(best, t)
        ok = best <= R
        t_hit = np.where(ok, best, 0.0)
        rel = np.concatenate([rel, (t_hit[:, None] * dirs)[None]])
        valid = np.concatenate([valid, ok[None]])
    return rel, valid


def _assert_bitwise(scan, rel, valid):
    assert scan.rel.dtype == rel.dtype and scan.rel.shape == rel.shape
    assert scan.valid.dtype == valid.dtype and scan.valid.shape == valid.shape
    assert np.array_equal(scan.rel, rel) and np.array_equal(scan.valid, valid)


@st.composite
def _lidar_worlds(draw):
    """Mixed circles and boxes, and agents placed where the batched cast
    could go wrong: inside an obstacle, about R + extent from its center
    (the culling boundary), on a box edge along ray 0 (+x, where the slab
    test divides by zero), or at a NaN position."""
    d = draw(st.sampled_from([2, 3]))
    n_rays = draw(st.sampled_from([1, 4, 8, 32]))
    R = draw(st.sampled_from([0.3, 1.0, 2.0]))
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    vec = st.lists(coord, min_size=d, max_size=d).map(np.array)
    size = st.floats(0.0, 0.6, allow_nan=False)
    obstacle = st.one_of(
        st.builds(Obstacle.circle, vec, size),
        st.builds(Obstacle.rect, vec, st.lists(size, min_size=d, max_size=d)))
    obstacles = draw(st.lists(obstacle, max_size=6))
    points = []
    for kind in draw(st.lists(st.sampled_from(
            ["free", "inside", "boundary", "edge", "nan"]), max_size=6)):
        p = draw(vec)
        if kind == "nan":
            p[draw(st.integers(0, d - 1))] = np.nan
        elif kind != "free" and obstacles:
            ob = draw(st.sampled_from(obstacles))
            half = ob.size[0] if ob.shape == "circle" else ob.size / 2.0
            if kind == "inside":
                p = ob.center + draw(st.floats(-1.0, 1.0)) * half / math.sqrt(d)
            elif kind == "boundary":
                extent = float(np.linalg.norm(np.atleast_1d(half)))
                u = p / max(np.linalg.norm(p), 1e-9)
                jitter = draw(st.sampled_from([-1e-9, 0.0, 1e-9]))
                p = ob.center + (R + extent + jitter) * u
            else:
                edge = ob.center + draw(st.sampled_from([-1.0, 1.0])) * half
                p[1:] = edge[1:]
        points.append(p)
    return np.array(points, dtype=float).reshape(-1, d), obstacles, n_rays, R


@given(_lidar_worlds())
@settings(max_examples=300, deadline=None)
def test_batched_raycast_bitwise_equals_per_agent_reference(case):
    points, obstacles, n_rays, R = case
    rel, valid = _ref_raycast(points, obstacles, n_rays, R)
    _assert_bitwise(raycast(points, obstacles, n_rays, R), rel, valid)
    for i, p in enumerate(points):
        _assert_bitwise(raycast(p, obstacles, n_rays, R), rel[i], valid[i])
    scans = world.scan_all(points, obstacles, n_rays, R)
    if not obstacles:
        assert scans is None
    else:
        for i, s in enumerate(scans):
            _assert_bitwise(s, rel[i], valid[i])


def test_raycast_nan_agent_sees_nothing():
    obstacles = [Obstacle.circle([0.3, 0.0], 0.1), Obstacle.rect([0.0, 0.3], [0.2, 0.2])]
    scan = raycast([[np.nan, 0.0], [0.0, np.nan], [0.0, 0.0]], obstacles, 32, 1.0)
    assert not scan.valid[:2].any() and not scan.rel[:2].any()
    assert scan.valid[2].any()
    empty = raycast(np.zeros((0, 2)), obstacles, 32, 1.0)
    assert empty.rel.shape == (0, 32, 2) and empty.valid.shape == (0, 32)


@pytest.mark.parametrize("model,n,n_obs,seed", [("SimpleCar", 64, 16, 0),
                                                ("SimpleCar", 256, 64, 1),
                                                ("SimpleDrone", 128, 32, 2)])
def test_scan_all_matches_reference_on_obstacle_suites(model, n, n_obs, seed):
    cfg = make_scenario_config(model, n, "obstacles", seed, n_obstacles=n_obs)
    scn = generate_scenario(cfg)
    sd = scn.goals.shape[1]
    # the agents' starts, plus points near every obstacle so rays hit
    near = np.array([ob.center for ob in scn.obstacles])
    near += np.random.default_rng(seed).normal(scale=0.2, size=near.shape)
    points = np.concatenate([scn.states[:, :sd], near])
    rel, valid = _ref_raycast(points, scn.obstacles, 32, cfg.sensing_radius)
    assert valid.sum() > 100
    scans = world.scan_all(points, scn.obstacles, 32, cfg.sensing_radius)
    for i, s in enumerate(scans):
        _assert_bitwise(s, rel[i], valid[i])


# --- neighbor search ---------------------------------------------------------

def _pairs_brute(queries, points, R):
    out = []
    for i, a in enumerate(queries.tolist()):
        for j, b in enumerate(points.tolist()):
            d = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
            if d <= R:
                out.append((i, j, d))
    return out


@st.composite
def _point_sets(draw):
    """Queries, points and R on a half-integer grid, where every distance
    is computed exactly, so pairs at exactly R are common (e.g. 2.5 for a
    (1.5, 2) offset)."""
    d = draw(st.sampled_from([2, 3]))
    coord = st.integers(-8, 8).map(lambda k: k / 2.0)
    rows = st.lists(st.lists(coord, min_size=d, max_size=d), max_size=7)
    q = np.array(draw(rows), dtype=float).reshape(-1, d)
    p = np.array(draw(rows), dtype=float).reshape(-1, d)
    return q, p, draw(st.sampled_from([0.0, 0.5, 1.0, 2.5, 5.0]))


@given(_point_sets())
@settings(max_examples=200, deadline=None)
def test_pairs_within_matches_brute_force(case):
    q, p, R = case
    qi, pj, dist = world.pairs_within(q, p, R)
    assert list(zip(qi.tolist(), pj.tolist(), dist.tolist())) == _pairs_brute(q, p, R)
    assert qi.dtype == pj.dtype == np.intp


def test_pairs_within_keeps_self_pairs_and_boundary():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [np.nan, 0.0]])
    qi, pj, dist = world.pairs_within(pts, pts, 5.0)
    assert list(zip(qi.tolist(), pj.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert dist.tolist() == [0.0, 5.0, 5.0, 0.0]
    qi, pj, dist = world.pairs_within(np.zeros((0, 3)), np.zeros((4, 3)), 1.0)
    assert qi.shape == pj.shape == dist.shape == (0,)


def _assert_same_pairs(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# R values a grid of side R cannot bin, which pairs_within must route to
# the dense pass: R = 0 (and -0.0) keeps coincident pairs, below 2**-500
# squares underflow, and R = inf pairs even infinite points
_UNBINNABLE_R = [0.0, -0.0, -1.0, 1e-300, math.nan, math.inf]


@st.composite
def _cell_cases(draw):
    """Queries, points and R for the cell list: half-integer grids (pairs
    at exactly R), coordinates on and next to cell boundaries, duplicate
    points, queries far outside the points, non-finite and huge
    coordinates, empty sets."""
    d = draw(st.sampled_from([2, 3]))
    R = draw(st.sampled_from([0.5, 1.0, 2.5, 0.1, 0.3, 2.0 ** -500, 1e10]
                             + _UNBINNABLE_R))
    side = R * world._CELL_MARGIN if 0 < R < math.inf else 1.0
    boundary = st.builds(lambda k, cell, nudge: nudge(k * (side if cell else R)),
                         st.integers(-6, 6), st.booleans(),
                         st.sampled_from([lambda x: x,
                                          lambda x: np.nextafter(x, np.inf),
                                          lambda x: np.nextafter(x, -np.inf)]))
    coord = st.one_of(st.integers(-8, 8).map(lambda k: k / 2.0), boundary,
                      st.floats(-4.0, 4.0),
                      st.sampled_from([math.nan, math.inf, -math.inf,
                                       1e300, -1e301, 40.0, 1e-20, -1e-20]))
    rows = st.lists(st.lists(coord, min_size=d, max_size=d), max_size=12)
    p = np.array(draw(rows), dtype=float).reshape(-1, d)
    if len(p):
        p = np.concatenate([p, p[draw(st.lists(st.integers(0, len(p) - 1),
                                               max_size=4))]])
    q = np.array(draw(rows), dtype=float).reshape(-1, d)
    with np.errstate(over="ignore"):
        q = q * draw(st.sampled_from([1.0, 1.0, 25.0])) + draw(st.sampled_from([0.0, -30.0]))
    return q, p, R


@given(_cell_cases())
# -1e-20 - 0.5 rounds to -0.5, so the dense pass pairs these at exactly R
# although their cells of side exactly R (-1 and 1) are not neighbours
@example((np.array([[-1e-20, 0.0]]), np.array([[0.5, 0.0]]), 0.5))
@settings(max_examples=400, deadline=None)
def test_pairs_cells_bitwise_equals_dense(case):
    q, p, R = case
    # differences of huge coordinates overflow to inf on both paths
    with np.errstate(over="ignore"):
        want = world._pairs_dense(q, p, R)
        if world._MIN_CELL <= R < math.inf:
            _assert_same_pairs(world._pairs_cells(q, p, R), want)
        # with K = 0, every non-empty input above takes the cell path
        # unless R cannot be binned
        with mock.patch.object(world, "_DENSE_K", 0):
            _assert_same_pairs(world.pairs_within(q, p, R), want)


def test_pairs_within_large_input_takes_the_cell_path():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 450.0, size=(200_000, 2))
    assert len(pts) ** 2 > world._DENSE_K * 2 * len(pts)
    qi, pj, dist = world.pairs_within(pts, pts, 1.0)
    assert (np.diff(qi) >= 0).all() and ((np.diff(pj) > 0) | (np.diff(qi) > 0)).all()
    some = np.sort(rng.choice(len(pts), size=4, replace=False))
    want = [(int(some[i]), j, d) for i, j, d in _pairs_brute(pts[some], pts, 1.0)]
    rows = np.isin(qi, some)
    got = list(zip(qi[rows].tolist(), pj[rows].tolist(), dist[rows].tolist()))
    assert got == want and len(want) > len(some)


@pytest.mark.parametrize("Q, P, path", [
    (1, 4096, "dense"),      # the scenario sampler: one query
    (0, 64, "dense"),
    (8, 8, "dense"),         # a training block
    (29, 64, "dense"),       # flagged rows among 64 agents
    (64, 16, "dense"),       # LiDAR cull against 16 obstacles
    (64, 64, "cells"),
    (256, 256, "cells"),     # the 256-agent filter and collision check
    (1024, 1024, "cells"),
])
def test_pairs_within_picks_the_path_by_size(Q, P, path):
    rng = np.random.default_rng(Q + P)
    side = world.suite_side("keep_density", max(Q, P), 2)
    q, p = rng.uniform(0.0, side, (Q, 2)), rng.uniform(0.0, side, (P, 2))
    with mock.patch.object(world, "_pairs_dense", wraps=world._pairs_dense) as dense, \
            mock.patch.object(world, "_pairs_cells", wraps=world._pairs_cells) as cells:
        world.pairs_within(q, p, 1.0)
        world.pairs_within(q, p, math.inf)      # R a grid cannot bin
    assert (dense.call_count, cells.call_count) == ((2, 0) if path == "dense" else (1, 1))


# --- graph -----------------------------------------------------------------

def test_two_agents_within_radius_two_edges():
    g = build_graph(CAR, car_states([[0, 0], [0.5, 0]]), np.zeros((2, 2)), None, 1.0)
    assert g.n_edges == 2


def test_two_agents_out_of_radius_no_edges():
    g = build_graph(CAR, car_states([[0, 0], [1.5, 0]]), np.zeros((2, 2)), None, 1.0)
    assert g.n_edges == 0


def test_lidar_hit_edge_flag():
    scan = raycast([0.0, 0.0], [Obstacle.circle([0.3, 0.0], 0.1)], 32, 1.0)
    g = build_graph(CAR, car_states([[0, 0]]), np.zeros((1, 2)), [scan], 1.0)
    assert g.n_edges == int(scan.valid.sum())
    assert (g.edge_flag == 1.0).all()
    assert (g.edge_dst == 0).all()


def test_graph_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = build_graph(CAR, car_states(rng.uniform(0, 3, size=(8, 2))),
                        np.zeros((8, 2)), None, 1.0)
        pairs = set(zip(g.edge_dst.tolist(), g.edge_src.tolist()))
        assert all((j, i) in pairs for i, j in pairs)
        assert all(i != j for i, j in pairs)


def test_edge_features_match_dynamics():
    states = car_states([[0, 0], [0.4, 0.3]])
    states[0, 2:] = [0.1, -0.2]
    g = build_graph(CAR, states, np.zeros((2, 2)), None, 1.0)
    for k in range(g.n_edges):
        i, j = g.edge_dst[k], g.edge_src[k]
        assert np.allclose(g.edge_feat[k],
                           dyn.edge_feature(CAR, states[i], states[j]))



def _lidar_crowd(rng, n=12, side=2.5):
    states = car_states(rng.uniform(0, side, size=(n, 2)))
    obstacles = [Obstacle.circle([1.2, 1.2], 0.4), Obstacle.rect([0.4, 2.0], [0.5, 0.3])]
    scans = [raycast(p, obstacles, 16, 1.0) for p in states[:, :2]]
    return build_graph(CAR, states, np.zeros((n, 2)), scans, 1.0)


def test_in_edges_all_rows_reproduces_build_graph():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = _lidar_crowd(rng)
        pos = g.positions()
        e = world.in_edges(pos, np.arange(g.n_agents), pos, g.hit_owner, g.R)
        assert g.hit_pos.shape[0] > 0
        for got, want in ((e.dst, g.edge_dst), (e.src, g.edge_src),
                          (e.hit, g.edge_hit), (e.flag, g.edge_flag)):
            assert np.array_equal(got, want)
        # documented order: agent edges by (dst, src), then hits in hit order
        d = np.linalg.norm(pos[:, None] - pos[None], axis=-1)
        pairs = [(i, j) for i in range(g.n_agents) for j in range(g.n_agents)
                 if i != j and d[i, j] <= g.R]
        n_a = len(pairs)
        assert list(zip(e.dst[:n_a].tolist(), e.src[:n_a].tolist())) == pairs
        assert np.array_equal(e.dst[n_a:], g.hit_owner)
        assert np.array_equal(e.hit[n_a:], np.arange(g.hit_pos.shape[0]))


def test_in_edges_subset_equals_fresh_in_edges():
    rng = np.random.default_rng(4)
    for _ in range(5):
        g = _lidar_crowd(rng)
        n = g.n_agents
        rows = np.sort(rng.choice(n, size=8, replace=False))
        src_pos = g.positions() + rng.normal(scale=0.05, size=(n, 2))
        dst_pos = src_pos[rows] + rng.normal(scale=0.05, size=(8, 2))
        e = world.in_edges(dst_pos, rows, src_pos, g.hit_owner, g.R)
        keep = np.sort(rng.choice(8, size=5, replace=False))
        sub = e.subset(keep)
        fresh = world.in_edges(dst_pos[keep], rows[keep], src_pos, g.hit_owner, g.R)
        for f in ("rows", "dst", "src", "hit"):
            assert np.array_equal(getattr(sub, f), getattr(fresh, f))
        assert (sub.src != sub.rows[sub.dst]).all()
        assert (g.hit_owner[sub.hit[sub.hit >= 0]] == sub.rows[sub.dst[sub.hit >= 0]]).all()

# --- labels ----------------------------------------------------------------

def test_label_thresholds():
    def label_at(dist):
        g = build_graph(CAR, car_states([[0, 0], [dist, 0]]), np.zeros((2, 2)),
                        None, 1.0)
        return label_sample(g, 0, 0.05)

    assert label_at(0.08) == LABEL_UNSAFE    # 0.08 < 2r = 0.1
    assert label_at(0.5) == LABEL_SAFE       # 0.5 > 4r = 0.2
    assert label_at(0.15) == LABEL_BUFFER


def _label_reference(graph, i, r):
    """The per-agent loop label_all replaced: nearest agent and nearest own
    LiDAR hit of agent i."""
    pos = graph.positions()
    d = np.linalg.norm(pos - pos[i], axis=1)
    d[i] = np.inf
    da = d.min() if pos.shape[0] > 1 else np.inf
    mask = graph.hit_owner == i
    dh = np.linalg.norm(graph.hit_pos[mask] - pos[i], axis=1).min() if mask.any() else np.inf
    if da < 2.0 * r or dh < r:
        return LABEL_UNSAFE
    if da > 4.0 * r and dh > 4.0 * r:
        return LABEL_SAFE
    return LABEL_BUFFER


@pytest.mark.parametrize("seed", range(6))
def test_label_all_matches_per_agent_reference(seed):
    rng = np.random.default_rng(seed)
    obstacles = [Obstacle.circle(rng.uniform(0, 0.8, 2), 0.05),
                 Obstacle.rect(rng.uniform(0, 0.8, 2), [0.1, 0.2])]
    states = car_states(rng.uniform(0, 0.8, size=(14, 2)))
    scans = [raycast(p, obstacles, 32, 1.0) for p in states[:, :2]]
    g = build_graph(CAR, states, np.zeros((14, 2)), scans, 1.0)
    labels = label_all(g, 0.05)
    assert labels.tolist() == [_label_reference(g, i, 0.05) for i in range(14)]
    assert len(set(labels.tolist())) > 1


def test_label_all_nonfinite_agent_is_unsafe_and_leaves_others():
    g = build_graph(CAR, car_states([[0, 0], [np.nan, 0], [0.3, 0]]),
                    np.zeros((3, 2)), None, 1.0)
    assert label_all(g, 0.05).tolist() == [LABEL_SAFE, LABEL_UNSAFE, LABEL_SAFE]


def test_label_obstacle_unsafe():
    scan = raycast([0.0, 0.0], [Obstacle.circle([0.06, 0.0], 0.02)], 32, 1.0)
    g = build_graph(CAR, car_states([[0, 0]]), np.zeros((1, 2)), [scan], 1.0)
    assert label_sample(g, 0, 0.05) == LABEL_UNSAFE


@given(st.floats(min_value=0.02, max_value=1.0),
       st.floats(min_value=0.05, max_value=0.99))
@settings(max_examples=60, deadline=None)
def test_label_monotonicity(dist, shrink):
    """Shrinking every pairwise distance never flips unsafe toward safe."""
    order = {LABEL_SAFE: 0, LABEL_BUFFER: 1, LABEL_UNSAFE: 2}

    def label_at(d):
        g = build_graph(CAR, car_states([[0, 0], [d, 0]]), np.zeros((2, 2)),
                        None, 2.0)
        return label_sample(g, 0, 0.05)

    assert order[label_at(dist * shrink)] >= order[label_at(dist)]


# --- scenarios ---------------------------------------------------------------

def test_density_side_table_values():
    assert world.density_side(16, 2) == 8.0
    assert world.density_side(4096, 3) == 40.3
    assert world.density_side(32, 2) == 11.3
    assert world.density_side(2048, 3) == 32.0


def test_scenario_determinism():
    cfg = make_scenario_config("SimpleCar", 12, "keep_density", seed=42)
    a = generate_scenario(cfg)
    b = generate_scenario(cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.goals, b.goals)


def test_scenario_single_agent():
    cfg = make_scenario_config("SimpleCar", 1, "increase_density", seed=0)
    s = generate_scenario(cfg)
    assert s.states.shape == (1, 4)
    assert s.goals.shape == (1, 2)


def test_scenario_separations_and_bounds():
    cfg = make_scenario_config("DubinsCar", 24, "keep_density", seed=3)
    s = generate_scenario(cfg)
    pos = s.states[:, :2]
    for pts in (pos, s.goals):
        assert (pts >= 0).all() and (pts <= cfg.side_length).all()
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 4 * cfg.r


def test_keep_distance_caps_travel():
    cfg = make_scenario_config("SimpleCar", 20, "keep_distance", seed=5)
    s = generate_scenario(cfg)
    travel = np.linalg.norm(s.goals - s.states[:, :2], axis=1)
    assert (travel <= world.TRAVEL_CAP + 1e-12).all()


def test_obstacle_suite_samples_within_bounds():
    cfg = make_scenario_config("DubinsCar", 8, "obstacles", seed=7, n_obstacles=6)
    assert len(cfg.obstacles) == 6
    assert cfg.side_length == world.OBSTACLE_SIDE
    for ob in cfg.obstacles:
        assert np.linalg.norm(ob.velocity) <= 0.2 + 1e-12
        assert (ob.size <= 0.5).all()
    s = generate_scenario(cfg)
    for p in s.states[:, :2]:
        assert min(ob.distance(p) for ob in cfg.obstacles) >= 4 * cfg.r


# sha256 of states and goals bytes, recorded before the sampler's
# separation test moved onto pairs_within (the many-obstacle row: before its
# clearance test moved onto obstacle_distance; the N=1024 rows: before
# pairs_within gained its cell list): the draw order and the strict
# acceptance tests must not change
@pytest.mark.parametrize("model,n,suite,seed,n_obs,digest", [
    ("SimpleCar", 16, "keep_density", 0, 0, "ea960515d440e333"),
    ("DubinsCar", 24, "keep_distance", 3, 0, "85962e93fdb70be3"),
    ("SimpleDrone", 32, "increase_density", 5, 0, "fd9109dcb2d9f495"),
    ("SimpleCar", 40, "obstacles", 7, 6, "bcf289bf0894471e"),
    ("SimpleCar", 128, "obstacles", 3, 96, "192b05b12180f7b3"),
    ("SimpleCar", 1024, "keep_density", 1, 0, "a5c74e45c0552eb4"),
    ("SimpleDrone", 1024, "keep_density", 1, 0, "372adddd60e00531"),
])
def test_generate_scenario_pinned_digest(model, n, suite, seed, n_obs, digest):
    s = generate_scenario(make_scenario_config(model, n, suite, seed,
                                               n_obstacles=n_obs))
    h = hashlib.sha256(s.states.tobytes() + s.goals.tobytes()).hexdigest()
    assert h[:16] == digest


def test_large_swarm_neighbourhoods_match_dense_reference():
    """At N=1024 every pairs_within caller takes the cell path; after 20
    nominal steps its flags, labels and graph edges are the dense pass's."""
    cfg = make_scenario_config("SimpleCar", 1024, "keep_density", 1)
    s = generate_scenario(cfg)
    states = s.states
    for _ in range(20):
        u = dyn.nominal_control_batch(CAR, states, s.goals, cfg.dt)
        states = step_world(CAR, states, u, (), s.goals, cfg.dt, cfg.r).states
    states[7, :2] = states[3, :2] + [0.06, 0.0]      # one collision
    states[11, 0] = np.nan

    def outputs():
        graph = build_graph(CAR, states, s.goals, None, cfg.sensing_radius)
        return (world.collision_flags(CAR, states, (), cfg.r),
                label_all(graph, cfg.r), graph.edge_dst, graph.edge_src)

    assert len(states) ** 2 > world._DENSE_K * 2 * len(states)
    cells = outputs()
    with mock.patch.object(world, "_DENSE_K", math.inf):
        dense = outputs()
    for a, b in zip(cells, dense):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert cells[0].sum() >= 3 and (cells[1] != LABEL_SAFE).sum() >= 3
    assert len(cells[2]) > 500


def test_packing_infeasible_raises():
    cfg = make_scenario_config("SimpleCar", 200, "keep_density", seed=0,
                               side_length=0.5)
    with pytest.raises(world.ScenarioGenerationError):
        generate_scenario(cfg)


# --- stepping ----------------------------------------------------------------

def test_collision_flags_pairwise():
    states = car_states([[0, 0], [0.09, 0]])
    step = step_world(CAR, states, np.zeros((2, 2)), (), np.ones((2, 2)), 0.03, 0.05)
    assert step.collided.all()


def test_collision_flags_nonfinite_agent_counts_as_collided():
    states = np.array([[0, 0, 0, 0], [np.nan, 0, 0, 0], [0.05, 0, 0, 0],
                       [5, np.inf, 0, 0], [9, 9, np.nan, 0]], dtype=float)
    flags = world.collision_flags(CAR, states, (), 0.05)
    assert flags.tolist() == [True, True, True, True, False]


def test_obstacle_distance_batched_matches_pointwise():
    rng = np.random.default_rng(4)
    for ob in (Obstacle.circle([0.2, 0.1], 0.3), Obstacle.rect([0, 0], [0.4, 0.2]),
               Obstacle.circle([0, 0, 0], 0.2), Obstacle.rect([0, 0, 0], [0.2, 0.3, 0.4])):
        pts = rng.uniform(-1, 1, size=(50, ob.center.shape[0]))
        assert np.array_equal(ob.distance(pts), [ob.distance(p) for p in pts])
        assert ob.distance(ob.center) == 0.0


@pytest.mark.parametrize("sd", [2, 3])
def test_obstacle_distance_is_min_of_pointwise(sd):
    rng = np.random.default_rng(sd)
    obstacles = [Obstacle.circle(rng.uniform(0, 3, sd), rng.uniform(0, 0.5)) if k % 3
                 else Obstacle.rect(rng.uniform(0, 3, sd), rng.uniform(0, 0.5, sd))
                 for k in range(20)]
    pts = rng.uniform(0, 3, size=(200, sd))
    pts[0] = obstacles[0].center
    pts[1, 0] = np.nan
    got = world.obstacle_distance(obstacles)(pts)
    want = [min(ob.distance(p) for ob in obstacles) for p in pts]
    assert np.array_equal(got, want, equal_nan=True)
    assert got[0] == 0.0
    assert (world.obstacle_distance(())(pts) == np.inf).all()


def test_obstacle_translation():
    ob = Obstacle.circle([1.0, 1.0], 0.1, velocity=[0.2, 0.0])
    step = step_world(CAR, car_states([[5, 5]]), np.zeros((1, 2)), (ob,),
                      np.ones((1, 2)), 0.03, 0.05)
    assert np.allclose(step.obstacles[0].center, [1.006, 1.0])


def test_termination_when_all_reached():
    states = car_states([[1.0, 1.0]])
    goals = np.array([[1.0, 1.0]])
    step = step_world(CAR, states, np.zeros((1, 2)), (), goals, 0.03, 0.05)
    assert step.all_reached


def test_obstacle_penetration_flags():
    ob = Obstacle.circle([0.5, 0.0], 0.2)
    states = car_states([[0.45, 0.0], [3.0, 3.0]])
    step = step_world(CAR, states, np.zeros((2, 2)), (ob,), np.ones((2, 2)) * 5,
                      0.03, 0.05)
    assert step.collided[0] and not step.collided[1]
