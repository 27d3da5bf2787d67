"""Environment: obstacles, LiDAR raycasting, sensing graphs, safe/unsafe
labeling, scenario generation, and world stepping."""
from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import dynamics
from .dynamics import DynamicsModel

N_RAYS_DEFAULT = 32

# Workspace side lengths that keep per-unit agent density constant.
DENSITY_SIDE_2D = {16: 8.0, 32: 11.3, 64: 16.0, 128: 22.6, 256: 32.0,
                   512: 45.3, 1024: 64.0}
DENSITY_SIDE_3D = {16: 6.35, 32: 8.0, 64: 10.1, 128: 12.7, 256: 16.0,
                   512: 20.2, 1024: 25.4, 2048: 32.0, 4096: 40.3}

FIXED_SIDE_2D = 32.0
FIXED_SIDE_3D = 16.0
OBSTACLE_SIDE = 12.0
TRAVEL_CAP = 4.0

SUITES = ("increase_density", "keep_density", "keep_distance", "obstacles")


class ScenarioGenerationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Obstacle:
    """Circle/sphere ("circle") or axis-aligned rectangle/box ("rect"),
    translating at a constant velocity."""
    shape: str
    center: np.ndarray
    size: np.ndarray       # circle: (radius,); rect: (w, h) or (w, h, d)
    velocity: np.ndarray

    @staticmethod
    def circle(center, radius: float, velocity=None) -> "Obstacle":
        center = np.asarray(center, dtype=np.float64)
        if velocity is None:
            velocity = np.zeros_like(center)
        return Obstacle("circle", center, np.array([float(radius)]),
                        np.asarray(velocity, dtype=np.float64))

    @staticmethod
    def rect(center, size, velocity=None) -> "Obstacle":
        center = np.asarray(center, dtype=np.float64)
        if velocity is None:
            velocity = np.zeros_like(center)
        return Obstacle("rect", center, np.asarray(size, dtype=np.float64),
                        np.asarray(velocity, dtype=np.float64))

    def moved(self, dt: float) -> "Obstacle":
        return replace(self, center=self.center + dt * self.velocity)

    def distance(self, points: np.ndarray) -> float | np.ndarray:
        """Distance from a point (d,) or from each of points (P, d) to the
        obstacle region (0 inside): a float, or a (P,) array."""
        points = np.asarray(points, dtype=np.float64)
        if self.shape == "circle":
            d = np.linalg.norm(points - self.center, axis=-1) - self.size[0]
            return np.maximum(d, 0.0)
        outside = np.maximum(np.abs(points - self.center) - self.size / 2.0, 0.0)
        return np.linalg.norm(outside, axis=-1)


@dataclass(frozen=True)
class LidarScan:
    """Fixed ray fan around one agent, or around each of P agents (a
    leading P axis on both fields); rel holds hit offsets (zero on a
    miss), valid flags which rays actually struck something within range."""
    rel: np.ndarray      # (n_rays, space_dim) or (P, n_rays, space_dim)
    valid: np.ndarray    # (n_rays,) or (P, n_rays) bool

    @property
    def n_rays(self) -> int:
        return self.rel.shape[-2]

    def ranges(self) -> np.ndarray:
        r = np.linalg.norm(self.rel, axis=-1)
        return np.where(self.valid, r, np.inf)


def ray_directions(space_dim: int, n_rays: int) -> np.ndarray:
    """Evenly spaced unit rays: uniform angles in 2-D, Fibonacci sphere in 3-D."""
    if space_dim == 2:
        ang = 2.0 * np.pi * np.arange(n_rays) / n_rays
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    k = np.arange(n_rays)
    z = 1.0 - 2.0 * (k + 0.5) / n_rays
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - math.sqrt(5.0))
    ang = golden * k
    return np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=1)


def _ray_circles(origin: np.ndarray, dirs: np.ndarray, center: np.ndarray,
                 radius: np.ndarray) -> np.ndarray:
    """First nonnegative hit parameter of each ray from origin[k] against
    the circle (center[k], radius[k]): (K, n_rays), inf if none."""
    f = (origin - center)[:, :, None]
    # stacked matmuls give one agent's dirs @ f and f @ f bit for bit;
    # einsum or a broadcast sum round differently
    b = np.matmul(dirs, f)[:, :, 0]          # dirs are unit, so a == 1
    c = np.matmul(f.transpose(0, 2, 1), f)[:, :, 0] - (radius * radius)[:, None]
    disc = b * b - c
    sq = np.sqrt(np.maximum(disc, 0.0))
    t1 = -b - sq
    t2 = -b + sq
    first = np.where(t1 >= 0.0, t1, np.where(t2 >= 0.0, t2, np.inf))
    return np.where(disc >= 0.0, first, np.inf)


def _ray_rects(origin: np.ndarray, dirs: np.ndarray, center: np.ndarray,
               half: np.ndarray) -> np.ndarray:
    """Slab test of each ray from origin[k] against the axis-aligned box
    (center[k], half[k]); first nonnegative boundary hit, (K, n_rays)."""
    lo = (center - half)[:, None, :]
    hi = (center + half)[:, None, :]
    origin = origin[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (lo - origin) / dirs
        t_hi = (hi - origin) / dirs
    t_near = np.where(np.isnan(t_lo), -np.inf, np.minimum(t_lo, t_hi))
    t_far = np.where(np.isnan(t_hi), np.inf, np.maximum(t_lo, t_hi))
    # parallel rays miss the slab unless the origin lies inside it
    inside = (origin >= lo) & (origin <= hi)
    par = dirs == 0.0
    t_near = np.where(par & inside, -np.inf, t_near)
    t_far = np.where(par & inside, np.inf, t_far)
    t_near = np.where(par & ~inside, np.inf, t_near)
    t_far = np.where(par & ~inside, -np.inf, t_far)
    enter = t_near.max(axis=-1)
    leave = t_far.min(axis=-1)
    hit = enter <= leave
    return np.where(hit & (enter >= 0.0), enter,
                    np.where(hit & (leave >= 0.0), leave, np.inf))


def pairs_within(queries: np.ndarray, points: np.ndarray,
                 R: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair (queries[qi], points[pj]) at distance <= R, sorted by
    (qi, pj), with that distance.

    This is the package's one neighbor search.  Self-pairs are kept when
    queries and points overlap; callers mask them.  A point with a
    non-finite coordinate is in no pair (for finite R).  Q queries and P
    points take one dense (Q, P) pass when Q * P <= _DENSE_K * (Q + P),
    and a cell list otherwise; the output is bitwise the same either way.
    """
    queries = np.asarray(queries, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    n_pairs = queries.shape[0] * points.shape[0]
    n_inputs = queries.shape[0] + points.shape[0]
    # an empty input is dense whatever K, so 0 * inf never decides
    if (not n_pairs or n_pairs <= _DENSE_K * n_inputs
            or not _MIN_CELL <= R < np.inf):
        return _pairs_dense(queries, points, R)
    return _pairs_cells(queries, points, R)


# The dense pass costs in proportion to Q * P; the cell list a fixed
# ~0.05-0.1 ms plus ~0.1-0.4 us per query or point.  Of the K tried
# (4 to 64), K = 20 wastes the least time summed over the grid
# Q <= P in {1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128, 256, 512, 1024},
# in 2-D (R = 1) and 3-D (R = 0.5) alike: keep_density side for P, both
# paths timed best of 5 runs of 3-50 calls, on one core of a 2-vCPU box
# with 1 BLAS thread.  In ms, dense / binned, 2-D:
#   1 x 4096  0.08 / 0.48     8 x 8      0.01 / 0.06    64 x 64     0.10 / 0.08
#   4 x 4096  0.32 / 0.31    32 x 32     0.03 / 0.07   256 x 256    1.25 / 0.24
#   8 x 4096  0.52 / 0.31    56 x 56     0.08 / 0.08  1024 x 1024  23.6 / 0.92
#  20 x 256   0.12 / 0.08    64 x 16     0.03 / 0.07
# An input with at most K queries or at most K points is dense whatever
# the other size: the scenario sampler's one-query calls, training's
# 8-agent blocks, the LiDAR cull against 16 obstacles.  So are k x 64 for
# k <= 29 (the runtime's flagged rows among 64 agents).  Square inputs
# above 40 x 40 (the 64-agent graphs, the 256-agent filter) are binned.
_DENSE_K = 20
# Below this R the squared differences the dense pass sums can underflow to
# 0, and it pairs points farther apart than R: no grid of side R finds them.
_MIN_CELL = 2.0 ** -500
# Cells are a hair wider than R.  The dense pass's rounded distance can
# read R for points slightly farther apart (-1e-20 and 0.5 at R = 0.5,
# whose cells of side R are -1 and 1), and x / side rounds too; with
# |x / side| <= 2**30 both errors stay far below the margin, so points the
# dense pass pairs never lie more than one cell apart on an axis.
_CELL_MARGIN = 1.0 + 2.0 ** -20


def _pairs_dense(queries, points, R):
    """pairs_within as one (Q, P) pass."""
    with np.errstate(invalid="ignore"):     # inf - inf: no pair
        diff = queries[:, None, :] - points[None, :, :]
        dist = np.einsum("qpk,qpk->qp", diff, diff)
        np.sqrt(dist, out=dist)
        qi, pj = np.nonzero(dist <= R)
    return qi, pj, dist[qi, pj]


def _pairs_cells(queries, points, R):
    """pairs_within through a cell list, for finite R >= _MIN_CELL: the
    finite points are sorted by the key of their grid cell (side ~R), and
    each finite query takes as candidates the points of its 3**d
    neighbouring cells, found with searchsorted.  Candidate distances use
    the dense pass's arithmetic, so the output is bitwise its output."""
    d = points.shape[1]
    side = R * _CELL_MARGIN
    # cell indices clip to [-cap, cap] (far points share the outer cells,
    # which stays correct); shifted to [1, 2 cap + 1], so a neighbour index
    # never wraps into another row, and the keys fit in int64
    cap = 2 ** min(30, 60 // d - 1)
    weight = (2 * cap + 3) ** np.arange(d, dtype=np.int64)

    def cell_key(x):
        with np.errstate(over="ignore"):
            c = np.clip(np.floor(x / side), -cap, cap)
        return (c.astype(np.int64) + (cap + 1)) @ weight

    pidx = np.nonzero(np.isfinite(points).all(axis=1))[0]
    pkey = cell_key(points[pidx])
    order = np.argsort(pkey)
    pidx, pkey = pidx[order], pkey[order]
    qidx = np.nonzero(np.isfinite(queries).all(axis=1))[0]
    # the three neighbours along axis 0 have consecutive keys: one run
    shifts = np.array(list(itertools.product((-1, 0, 1), repeat=d - 1)),
                      dtype=np.int64).reshape(-1, d - 1) @ weight[1:]
    centre = cell_key(queries[qidx])[:, None] + shifts
    start = np.searchsorted(pkey, centre - 1, side="left").ravel()
    count = np.searchsorted(pkey, centre + 1, side="right").ravel() - start
    qi = np.repeat(np.repeat(qidx, shifts.shape[0]), count)
    run_at = np.cumsum(count) - count
    pj = pidx[np.arange(qi.shape[0]) + np.repeat(start - run_at, count)]
    diff = queries[qi] - points[pj]
    dist = np.sqrt(np.einsum("ek,ek->e", diff, diff))
    keep = dist <= R
    qi, pj, dist = qi[keep], pj[keep], dist[keep]
    order = np.lexsort((pj, qi))
    return qi[order], pj[order], dist[order]


# Slack on the culling radius for rounding in the distances; an extra
# (point, obstacle) pair leaves every ray's minimum unchanged.
_CULL_PAD = 1e-6


def raycast(positions: np.ndarray, obstacles, n_rays: int, R: float) -> LidarScan:
    """Cast the ray fan from one point (d,) or from each of points (P, d);
    each ray reports the nearest obstacle surface within R.

    Only (point, obstacle) pairs whose centers lie within R plus the
    obstacle's extent (radius, or half-diagonal of a box) are cast; no
    other obstacle can hold a surface point within R.  A point with a
    non-finite coordinate sees nothing.
    """
    if R <= 0:
        raise ValueError("sensing radius must be positive")
    positions = np.asarray(positions, dtype=np.float64)
    points = np.atleast_2d(positions)
    dirs = ray_directions(points.shape[1], n_rays)
    best = np.full((points.shape[0], n_rays), np.inf)
    if obstacles:
        circle = np.array([ob.shape == "circle" for ob in obstacles])
        center = np.array([ob.center for ob in obstacles])
        radius = np.array([ob.size[0] if c else 0.0 for ob, c in zip(obstacles, circle)])
        half = np.array([0.0 * ob.center if c else ob.size / 2.0
                         for ob, c in zip(obstacles, circle)])
        reach = R + np.where(circle, radius, np.linalg.norm(half, axis=1)) + _CULL_PAD
        pi, oj, dist = pairs_within(points, center, float(reach.max()))
        keep = dist <= reach[oj]
        pi, oj = pi[keep], oj[keep]
        c = circle[oj]
        np.minimum.at(best, pi[c], _ray_circles(points[pi[c]], dirs, center[oj[c]],
                                                radius[oj[c]]))
        np.minimum.at(best, pi[~c], _ray_rects(points[pi[~c]], dirs, center[oj[~c]],
                                               half[oj[~c]]))
    valid = best <= R
    t_hit = np.where(valid, best, 0.0)
    scan = LidarScan(rel=t_hit[:, :, None] * dirs, valid=valid)
    return scan if positions.ndim == 2 else LidarScan(scan.rel[0], scan.valid[0])


def scan_all(positions: np.ndarray, obstacles, n_rays: int,
             R: float) -> list[LidarScan] | None:
    """One LiDAR scan per agent position, views into one batched raycast,
    or None in a world without obstacles (no agent can see a hit)."""
    if not obstacles:
        return None
    scan = raycast(positions, obstacles, n_rays, R)
    return [LidarScan(rel, valid) for rel, valid in zip(scan.rel, scan.valid)]


@dataclass
class GraphSnapshot:
    """Sensing graph at one timestep.

    Edges point from a source node (agent or LiDAR hit) into the observing
    agent.  edge_src is the source agent index, or -1 when the source is
    hit node edge_hit[k]; edge_flag is 0 for agent sources, 1 for hits.
    """
    model: DynamicsModel
    states: np.ndarray       # (N, state_dim)
    goals: np.ndarray        # (N, space_dim)
    hit_pos: np.ndarray      # (H, space_dim) absolute positions
    hit_owner: np.ndarray    # (H,) observing agent per hit
    edge_dst: np.ndarray     # (E,)
    edge_src: np.ndarray     # (E,) agent index or -1
    edge_hit: np.ndarray     # (E,) hit index or -1
    edge_feat: np.ndarray    # (E, edge_dim)
    edge_flag: np.ndarray    # (E,)
    R: float

    @property
    def n_agents(self) -> int:
        return self.states.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edge_dst.shape[0]

    def positions(self) -> np.ndarray:
        return self.states[:, :self.model.space_dim]

    def in_edges(self, i: int) -> np.ndarray:
        return np.nonzero(self.edge_dst == i)[0]


@dataclass(frozen=True)
class InEdges:
    """In-edges of the agents rows[k], destination slot k.

    Agent edges come first, sorted by (slot, source), then one edge per
    LiDAR hit owned by one of those agents, in hit order.  src is the
    source agent, or -1 for a hit; hit is the hit index, or -1 for an agent.
    """
    rows: np.ndarray    # (k,) agent per destination slot
    dst: np.ndarray     # (E,) destination slot
    src: np.ndarray     # (E,)
    hit: np.ndarray     # (E,)

    @property
    def flag(self) -> np.ndarray:
        """Node type per edge: 0 for an agent source, 1 for a hit."""
        return (self.src < 0).astype(np.float64)

    def subset(self, keep: np.ndarray) -> "InEdges":
        """The in-edges of rows[keep] (increasing slots), renumbered: what
        in_edges gives for those rows alone."""
        slot = np.full(self.rows.shape[0], -1, dtype=np.intp)
        slot[keep] = np.arange(keep.shape[0])
        dst = slot[self.dst]
        e = dst >= 0
        return InEdges(self.rows[keep], dst[e], self.src[e], self.hit[e])


def in_edges(dst_pos: np.ndarray, rows: np.ndarray, src_pos: np.ndarray,
             hit_owner: np.ndarray, R: float) -> InEdges:
    """In-edges of the agents rows[k] standing at dst_pos[k]: every agent
    j != rows[k] with src_pos[j] within R of dst_pos[k], then every hit h
    with hit_owner[h] == rows[k].

    This is the package's one neighbourhood builder: the sensing graph,
    the detector's and refinement's virtual steps and the training loss's
    virtual step all take their edges from it.
    """
    dst, src, _ = pairs_within(dst_pos, src_pos, R)
    keep = src != rows[dst]
    dst, src = dst[keep], src[keep]
    slot = np.full(src_pos.shape[0], -1, dtype=np.intp)
    slot[rows] = np.arange(rows.shape[0])
    hits = np.nonzero(slot[hit_owner] >= 0)[0]
    return InEdges(rows, np.concatenate([dst, slot[hit_owner[hits]]]),
                   np.concatenate([src, np.full(hits.shape[0], -1, dtype=np.intp)]),
                   np.concatenate([np.full(dst.shape[0], -1, dtype=np.intp), hits]))


def edge_features(edges: InEdges, emb_dst, emb_src, hit_emb):
    """Per-edge feature: the source's embedding minus its destination's.

    emb_dst has one row per destination slot, emb_src one per source
    agent and hit_emb one per hit.  Arrays, or autodiff tensors when
    differentiating; the result is a tensor either way.
    """
    n_a = int((edges.src >= 0).sum())
    e_aa = ad.sub(ad.gather(emb_src, edges.src[:n_a]),
                  ad.gather(emb_dst, edges.dst[:n_a]))
    e_hit = ad.sub(ad.gather(hit_emb, edges.hit[n_a:]),
                   ad.gather(emb_dst, edges.dst[n_a:]))
    return ad.concat([e_aa, e_hit], axis=0)


def build_graph(model: DynamicsModel, states: np.ndarray, goals: np.ndarray,
                scans: list[LidarScan] | None, R: float) -> GraphSnapshot:
    """Assemble the sensing graph: symmetric agent-agent edges within R,
    plus one edge per valid LiDAR hit into its observing agent."""
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    goals = np.atleast_2d(np.asarray(goals, dtype=np.float64))
    sd = model.space_dim
    seen = [(i, s.rel[s.valid]) for i, s in enumerate(scans or ()) if s is not None]
    hit_pos = np.concatenate([np.zeros((0, sd))]
                             + [states[i, :sd] + rel for i, rel in seen])
    hit_owner = np.concatenate([np.zeros(0, dtype=np.intp)]
                               + [np.full(len(rel), i, dtype=np.intp) for i, rel in seen])
    pos = states[:, :sd]
    emb = dynamics.state_embedding(model, states)
    edges = in_edges(pos, np.arange(states.shape[0]), pos, hit_owner, R)
    feat = edge_features(edges, emb, emb, dynamics.hit_embedding(model, hit_pos))
    return GraphSnapshot(model=model, states=states, goals=goals,
                         hit_pos=hit_pos, hit_owner=hit_owner,
                         edge_dst=edges.dst, edge_src=edges.src, edge_hit=edges.hit,
                         edge_feat=feat.data, edge_flag=edges.flag, R=float(R))


LABEL_SAFE, LABEL_UNSAFE, LABEL_BUFFER = 0, 1, 2
LABEL_NAMES = {LABEL_SAFE: "safe", LABEL_UNSAFE: "unsafe", LABEL_BUFFER: "buffer"}


def label_all(graph: GraphSnapshot, r: float) -> np.ndarray:
    """Three-way label per agent from nearest-neighbor distances.

    Unsafe below 2r to another agent (or a LiDAR return inside r); safe
    above 4r on both counts; the band in between is a buffer excluded from
    the classification losses.  An agent whose position is not finite has
    left the simulation and is unsafe; it does not affect the others.
    """
    pos = graph.positions()
    n = graph.n_agents
    da = np.full(n, np.inf)
    qi, pj, dist = pairs_within(pos, pos, 4.0 * r)
    other = qi != pj
    np.minimum.at(da, qi[other], dist[other])
    dh = np.full(n, np.inf)
    hit_range = np.linalg.norm(graph.hit_pos - pos[graph.hit_owner], axis=1)
    np.minimum.at(dh, graph.hit_owner, hit_range)
    labels = np.full(n, LABEL_BUFFER, dtype=np.int8)
    labels[(da > 4.0 * r) & (dh > 4.0 * r)] = LABEL_SAFE
    labels[(da < 2.0 * r) | (dh < r) | ~np.isfinite(pos).all(axis=1)] = LABEL_UNSAFE
    return labels


def label_sample(graph: GraphSnapshot, i: int, r: float) -> int:
    """label_all's label of agent i."""
    return int(label_all(graph, r)[i])


def check_ranges(checks) -> None:
    """Raise ValueError("<field>: expected <range>") for the first
    (field, in range, range) triple that is out of range."""
    for name, ok, want in checks:
        if not ok:
            raise ValueError(f"{name}: expected {want}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one scenario; mirrors the on-disk
    scenario schema key for key."""
    model: str
    n_agents: int
    side_length: float
    r: float = 0.05
    sensing_radius: float = 1.0
    dt: float = 0.03
    horizon: int = 2500
    seed: int = 0
    suite: str = "keep_density"
    obstacles: tuple[Obstacle, ...] = ()

    def __post_init__(self):
        check_ranges((("n_agents", self.n_agents >= 1, "at least 1"),
                      ("side_length", self.side_length > 0, "a positive number"),
                      ("r", self.r > 0, "a positive number"),
                      ("sensing_radius", self.sensing_radius > 0, "a positive number"),
                      ("dt", self.dt > 0, "a positive number"),
                      ("horizon", self.horizon >= 0, "at least 0")))


@dataclass(frozen=True)
class Scenario:
    config: ScenarioConfig
    states: np.ndarray     # (N, state_dim) initial
    goals: np.ndarray      # (N, space_dim)
    obstacles: tuple[Obstacle, ...]


def density_side(n_agents: int, space_dim: int) -> float:
    table = DENSITY_SIDE_2D if space_dim == 2 else DENSITY_SIDE_3D
    if n_agents in table:
        return table[n_agents]
    base = table[16]
    return round(base * (n_agents / 16.0) ** (1.0 / space_dim), 3)


def suite_side(suite: str, n_agents: int, space_dim: int) -> float:
    if suite == "increase_density":
        return FIXED_SIDE_2D if space_dim == 2 else FIXED_SIDE_3D
    if suite == "obstacles":
        return OBSTACLE_SIDE
    return density_side(n_agents, space_dim)


def make_scenario_config(model: str, n_agents: int, suite: str, seed: int,
                         side_length: float | None = None,
                         n_obstacles: int = 0,
                         point_obstacles: bool = False,
                         sensing_radius: float | None = None,
                         r: float = 0.05, dt: float = 0.03,
                         horizon: int | None = None) -> ScenarioConfig:
    """Suite defaults plus (for the obstacles suite) sampled obstacles.

    Obstacle sizes are drawn U[0, 0.5] and speeds U[0, 0.2] unless
    point_obstacles is set (training-style point obstacles).
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    m = dynamics.make_model(model)
    sd = m.space_dim
    if side_length is None:
        side_length = suite_side(suite, n_agents, sd)
    if sensing_radius is None:
        sensing_radius = 1.0 if sd == 2 else 0.5
    if horizon is None:
        horizon = 2500 if sd == 2 else 2000

    obstacles: list[Obstacle] = []
    if n_obstacles > 0:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB5]))
        for _ in range(n_obstacles):
            center = rng.uniform(0.0, side_length, size=sd)
            speed = rng.uniform(0.0, 0.2)
            direction = rng.normal(size=sd)
            direction /= max(np.linalg.norm(direction), 1e-12)
            vel = speed * direction
            if point_obstacles:
                obstacles.append(Obstacle.circle(center, 1e-4, vel))
            elif rng.random() < 0.5:
                obstacles.append(Obstacle.circle(center, rng.uniform(0.0, 0.5) / 2.0, vel))
            else:
                obstacles.append(Obstacle.rect(center, rng.uniform(0.0, 0.5, size=sd), vel))
    return ScenarioConfig(model=model, n_agents=n_agents, side_length=float(side_length),
                          r=r, sensing_radius=float(sensing_radius), dt=dt,
                          horizon=int(horizon), seed=seed, suite=suite,
                          obstacles=tuple(obstacles))


_MAX_REJECTIONS = 10_000


def obstacle_distance(obstacles) -> Callable[[np.ndarray], np.ndarray]:
    """Batched distance to the nearest of `obstacles`: a function mapping
    points (P, d) to (P,) distances, each bitwise the minimum of
    Obstacle.distance over the obstacles (inf when there are none)."""
    circles = [ob for ob in obstacles if ob.shape == "circle"]
    rects = [ob for ob in obstacles if ob.shape != "circle"]
    c_center = np.array([ob.center for ob in circles])
    c_radius = np.array([ob.size[0] for ob in circles])
    r_center = np.array([ob.center for ob in rects])
    r_half = np.array([ob.size / 2.0 for ob in rects])

    def distance(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)[:, None, :]
        best = np.full(points.shape[0], np.inf)
        if circles:
            d = np.linalg.norm(points - c_center, axis=-1) - c_radius
            best = np.minimum(best, np.maximum(d, 0.0).min(axis=1))
        if rects:
            outside = np.maximum(np.abs(points - r_center) - r_half, 0.0)
            best = np.minimum(best, np.linalg.norm(outside, axis=-1).min(axis=1))
        return best

    return distance


def _sample_point(rng, existing: np.ndarray, side: float, sd: int,
                  min_sep: float, obstacle_dist, clearance: float,
                  anchor: np.ndarray | None = None, anchor_cap: float | None = None):
    """A uniform point at least min_sep from every row of `existing` (the
    points placed so far) and clearance from every obstacle (obstacle_dist
    is obstacle_distance of them)."""
    for _ in range(_MAX_REJECTIONS):
        p = rng.uniform(0.0, side, size=sd)
        if anchor is not None and anchor_cap is not None:
            if np.linalg.norm(p - anchor) > anchor_cap:
                continue
        _, _, dist = pairs_within(p[None], existing, min_sep)
        if (dist < min_sep).any():
            continue
        if obstacle_dist(p[None])[0] < clearance:
            continue
        return p
    raise ScenarioGenerationError(
        f"could not place a point after {_MAX_REJECTIONS} rejections "
        f"(side={side}, n_placed={len(existing)})")


def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Rejection-sample starts and goals: pairwise separation >= 4r, inside
    the workspace, clear of obstacles; deterministic in the seed."""
    m = dynamics.make_model(config.model)
    sd = m.space_dim
    rng = np.random.default_rng(config.seed)
    min_sep = 4.0 * config.r
    clearance = 4.0 * config.r
    obstacles = tuple(config.obstacles)
    obstacle_dist = obstacle_distance(obstacles)

    n = config.n_agents
    starts = np.zeros((n, sd))
    for i in range(n):
        starts[i] = _sample_point(rng, starts[:i], config.side_length, sd,
                                  min_sep, obstacle_dist, clearance)
    goals = np.zeros((n, sd))
    cap = TRAVEL_CAP if config.suite == "keep_distance" else None
    for i in range(n):
        goals[i] = _sample_point(rng, goals[:i], config.side_length, sd,
                                 min_sep, obstacle_dist, clearance,
                                 anchor=starts[i], anchor_cap=cap)

    states = np.zeros((n, m.state_dim))
    states[:, :sd] = starts
    if config.model == "DubinsCar":
        states[:, 2] = rng.uniform(-np.pi, np.pi, size=n)
    return Scenario(config=config, states=states, goals=goals,
                    obstacles=obstacles)


@dataclass
class WorldStep:
    states: np.ndarray
    obstacles: tuple[Obstacle, ...]
    collided: np.ndarray     # (N,) bool, collisions entered during this step
    all_reached: bool


def collision_flags(model: DynamicsModel, states: np.ndarray,
                    obstacles, r: float) -> np.ndarray:
    """Agent i collides if another agent is within 2r or an obstacle
    surface is within r of its position.  An agent whose position is not
    finite has left the simulation and counts as collided."""
    pos = states[:, :model.space_dim]
    flags = ~np.isfinite(pos).all(axis=1)
    qi, pj, _ = pairs_within(pos, pos, 2.0 * r)
    flags[qi[qi != pj]] = True
    flags |= obstacle_distance(obstacles)(pos) <= r
    return flags


def goals_reached(model: DynamicsModel, states: np.ndarray, goals: np.ndarray,
                  tol: float) -> np.ndarray:
    pos = states[:, :model.space_dim]
    return np.linalg.norm(pos - goals, axis=1) < tol


def step_world(model: DynamicsModel, states: np.ndarray, controls: np.ndarray,
               obstacles, goals: np.ndarray, dt: float, r: float) -> WorldStep:
    next_states = dynamics.step_batch(model, states, controls, dt)
    next_obstacles = tuple(ob.moved(dt) for ob in obstacles)
    flags = collision_flags(model, next_states, next_obstacles, r)
    reached = goals_reached(model, next_states, goals, r)
    return WorldStep(states=next_states, obstacles=next_obstacles,
                     collided=flags, all_reached=bool(reached.all()))
