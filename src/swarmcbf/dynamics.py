"""Agent dynamics: continuous-time models, Euler stepping, nominal
goal-reaching controllers, and edge-feature maps.

Four model kinds:

* SimpleCar   -- planar double integrator, x = [px, py, vx, vy], u = [ax, ay]
* DubinsCar   -- x = [px, py, heading, speed], u = [turn rate, accel]
* SimpleDrone -- 3-D damped double integrator, x = [p, v], u = accel,
                 vdot = (-1.1 vx + 1.1 ax, -1.1 vy + 1.1 ay, -6 vz + 6 az)
* CrazyFlie   -- 6-DOF quadrotor, x = [p_xyz, body vel uvw, euler phi/theta/psi,
                 body rates pqr], u = [thrust U1, moments U2..U4]

All functions are pure; everything vectorizes over a leading agent axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

KINDS = ("SimpleCar", "DubinsCar", "SimpleDrone", "CrazyFlie")

_STATE_DIM = {"SimpleCar": 4, "DubinsCar": 4, "SimpleDrone": 6, "CrazyFlie": 12}
_CONTROL_DIM = {"SimpleCar": 2, "DubinsCar": 2, "SimpleDrone": 3, "CrazyFlie": 4}
_SPACE_DIM = {"SimpleCar": 2, "DubinsCar": 2, "SimpleDrone": 3, "CrazyFlie": 3}
_EDGE_DIM = {"SimpleCar": 4, "DubinsCar": 5, "SimpleDrone": 6, "CrazyFlie": 12}

DT_DEFAULT = 0.03


@dataclass(frozen=True)
class DynamicsModel:
    kind: str
    state_dim: int
    control_dim: int
    space_dim: int
    control_bound: float
    speed_bound: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.control_bound <= 0:
            raise ValueError("control_bound must be positive")


def make_model(kind: str, control_bound: float = 10.0,
               speed_bound: float | None = None) -> DynamicsModel:
    """Build a model; default max speed is 0.8 m/s in 2-D, 0.6 m/s in 3-D."""
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if speed_bound is None:
        speed_bound = 0.8 if _SPACE_DIM[kind] == 2 else 0.6
    return DynamicsModel(kind, _STATE_DIM[kind], _CONTROL_DIM[kind],
                         _SPACE_DIM[kind], control_bound, speed_bound)


@dataclass(frozen=True)
class CrazyFlieParams:
    m: float = 0.0299                # kg
    I_xx: float = 1.395e-5           # kg m^2
    I_yy: float = 1.395e-5
    I_zz: float = 2.173e-5
    C_T: float = 3.1582e-10          # N / rpm^2
    C_D: float = 7.9379e-12
    d: float = 0.03973               # m
    g: float = 9.8

    def hover_thrust(self) -> float:
        return self.m * self.g


CF_PARAMS = CrazyFlieParams()


def _check_dims(model: DynamicsModel, x: np.ndarray, u: np.ndarray):
    if x.shape[-1] != model.state_dim:
        raise ValueError(f"{model.kind} expects state dim {model.state_dim}, got {x.shape[-1]}")
    if u.shape[-1] != model.control_dim:
        raise ValueError(f"{model.kind} expects control dim {model.control_dim}, got {u.shape[-1]}")


def control_affine(model: DynamicsModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split xdot = F0(x) + B(x) u for a batch X of shape (n, state_dim).

    Every model here is control-affine, which lets the virtual-step code
    treat the state-dependent parts as constants.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = X.shape[0]
    F0 = np.zeros((n, model.state_dim))
    B = np.zeros((n, model.state_dim, model.control_dim))
    if model.kind == "SimpleCar":
        F0[:, 0] = X[:, 2]
        F0[:, 1] = X[:, 3]
        B[:, 2, 0] = 1.0
        B[:, 3, 1] = 1.0
    elif model.kind == "DubinsCar":
        theta, v = X[:, 2], X[:, 3]
        F0[:, 0] = v * np.cos(theta)
        F0[:, 1] = v * np.sin(theta)
        B[:, 2, 0] = 1.0
        B[:, 3, 1] = 1.0
    elif model.kind == "SimpleDrone":
        F0[:, 0:3] = X[:, 3:6]
        F0[:, 3] = -1.1 * X[:, 3]
        F0[:, 4] = -1.1 * X[:, 4]
        F0[:, 5] = -6.0 * X[:, 5]
        B[:, 3, 0] = 1.1
        B[:, 4, 1] = 1.1
        B[:, 5, 2] = 6.0
    elif model.kind == "CrazyFlie":
        p = CF_PARAMS
        u_, v_, w_ = X[:, 3], X[:, 4], X[:, 5]
        phi, th, psi = X[:, 6], X[:, 7], X[:, 8]
        pr, qr, rr = X[:, 9], X[:, 10], X[:, 11]
        c, s, t = np.cos, np.sin, np.tan
        F0[:, 0] = ((c(phi) * c(psi) * s(th) + s(phi) * s(psi)) * w_
                    - (s(psi) * c(phi) - c(psi) * s(phi) * s(th)) * v_
                    + u_ * c(psi) * c(th))
        F0[:, 1] = ((s(phi) * s(psi) * s(th) + c(phi) * c(psi)) * v_
                    - (c(psi) * s(phi) - s(psi) * c(phi) * s(th)) * w_
                    + u_ * s(psi) * c(th))
        F0[:, 2] = w_ * c(psi) * c(phi) - u_ * s(th) + v_ * s(phi) * c(th)
        F0[:, 3] = rr * v_ - qr * w_ + p.g * s(th)
        F0[:, 4] = pr * w_ - rr * u_ - p.g * s(phi) * c(th)
        F0[:, 5] = qr * u_ - pr * v_ - p.g * c(th) * c(phi)
        B[:, 5, 0] = 1.0 / p.m
        F0[:, 6] = rr * c(phi) / c(th) + qr * s(phi) / c(th)
        F0[:, 7] = qr * c(phi) - rr * s(phi)
        F0[:, 8] = pr + rr * c(phi) * t(th) + qr * s(phi) * t(th)
        F0[:, 9] = qr * rr * (p.I_zz - p.I_yy) / p.I_xx
        B[:, 9, 3] = 1.0 / p.I_xx
        F0[:, 10] = -pr * rr * (p.I_xx - p.I_zz) / p.I_yy
        B[:, 10, 2] = 1.0 / p.I_yy
        F0[:, 11] = -pr * qr * (p.I_yy - p.I_xx) / p.I_zz
        B[:, 11, 1] = 1.0 / p.I_zz
    return F0, B


def derivative(model: DynamicsModel, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """xdot = F(x, u) for a single state."""
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    _check_dims(model, x, u)
    F0, B = control_affine(model, x[None, :])
    return F0[0] + B[0] @ u


def derivative_batch(model: DynamicsModel, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    U = np.asarray(U, dtype=np.float64)
    _check_dims(model, X, U)
    F0, B = control_affine(model, X)
    return F0 + np.einsum("ndm,nm->nd", B, U)


def velocity_slice(model: DynamicsModel) -> slice:
    """Columns of the state vector holding the speed-limited velocity."""
    if model.kind in ("SimpleCar",):
        return slice(2, 4)
    if model.kind == "DubinsCar":
        return slice(3, 4)
    return slice(3, 6)  # SimpleDrone / CrazyFlie


def clamp_speed(model: DynamicsModel, X: np.ndarray) -> np.ndarray:
    """Rescale the velocity block so its norm never exceeds speed_bound."""
    X = np.array(X, dtype=np.float64, copy=True)
    sl = velocity_slice(model)
    v = X[..., sl]
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    scale = model.speed_bound / np.maximum(n, model.speed_bound)
    X[..., sl] = v * scale
    return X


def step(model: DynamicsModel, x: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
    """One explicit Euler step with control and speed clamping."""
    return step_batch(model, np.asarray(x)[None, :], np.asarray(u)[None, :], dt)[0]


def step_batch(model: DynamicsModel, X: np.ndarray, U: np.ndarray, dt: float) -> np.ndarray:
    if dt <= 0:
        raise ValueError("dt must be positive")
    U = np.clip(np.asarray(U, dtype=np.float64), -model.control_bound, model.control_bound)
    X1 = np.asarray(X, dtype=np.float64) + dt * derivative_batch(model, X, U)
    return clamp_speed(model, X1)


# --- nominal controllers -------------------------------------------------

def _linear_system(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Continuous-time (A, B) used for LQR design."""
    if kind == "SimpleCar":
        A = np.zeros((4, 4))
        A[0, 2] = A[1, 3] = 1.0
        B = np.zeros((4, 2))
        B[2, 0] = B[3, 1] = 1.0
    elif kind == "SimpleDrone":
        A = np.zeros((6, 6))
        A[0, 3] = A[1, 4] = A[2, 5] = 1.0
        A[3, 3] = A[4, 4] = -1.1
        A[5, 5] = -6.0
        B = np.zeros((6, 3))
        B[3, 0] = B[4, 1] = 1.1
        B[5, 2] = 6.0
    elif kind == "CrazyFlie":
        # hover linearization of the quadrotor model above
        p = CF_PARAMS
        A = np.zeros((12, 12))
        A[0, 3] = A[1, 4] = A[2, 5] = 1.0   # pdot = body vel at hover
        A[3, 7] = p.g                        # udot ~  g * theta
        A[4, 6] = -p.g                       # vdot ~ -g * phi
        A[6, 11] = 1.0                       # phidot ~ r
        A[7, 10] = 1.0                       # thetadot ~ q
        A[8, 9] = 1.0                        # psidot ~ p
        B = np.zeros((12, 4))
        B[5, 0] = 1.0 / p.m
        B[9, 3] = 1.0 / p.I_xx
        B[10, 2] = 1.0 / p.I_yy
        B[11, 1] = 1.0 / p.I_zz
    else:
        raise ValueError(f"no linear model for {kind}")
    return A, B


def riccati_gain(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray,
                 tol: float = 1e-9, max_iter: int = 1_000_000) -> np.ndarray:
    """Infinite-horizon discrete LQR gain via fixed-point Riccati iteration."""
    P = Q.copy()
    for _ in range(max_iter):
        BtP = B.T @ P
        K = np.linalg.solve(R + BtP @ B, BtP @ A)
        P_next = Q + A.T @ P @ (A - B @ K)
        if np.max(np.abs(P_next - P)) < tol:
            P = P_next
            break
        P = P_next
    BtP = B.T @ P
    return np.linalg.solve(R + BtP @ B, BtP @ A)


@lru_cache(maxsize=None)
def lqr_gain(kind: str, dt: float = DT_DEFAULT) -> np.ndarray:
    A, B = _linear_system(kind)
    n = A.shape[0]
    Ad = np.eye(n) + dt * A
    Bd = dt * B
    return riccati_gain(Ad, Bd, np.eye(n), np.eye(B.shape[1]))


def goal_state(model: DynamicsModel, goal: np.ndarray) -> np.ndarray:
    """Full-state target: at the goal position, everything else zero."""
    xg = np.zeros(model.state_dim)
    xg[:model.space_dim] = goal
    return xg


_K_HEADING = 3.0
_K_SPEED = 1.0


def _wrap_to_pi(a: np.ndarray) -> np.ndarray:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def nominal_control(model: DynamicsModel, x: np.ndarray, goal: np.ndarray,
                    dt: float = DT_DEFAULT) -> np.ndarray:
    return nominal_control_batch(model, np.asarray(x)[None, :],
                                 np.asarray(goal)[None, :], dt)[0]


def nominal_control_batch(model: DynamicsModel, X: np.ndarray, goals: np.ndarray,
                          dt: float = DT_DEFAULT) -> np.ndarray:
    """Goal-reaching control with no safety awareness, clamped to bounds.

    LQR for SimpleCar/SimpleDrone/CrazyFlie; heading PID plus a
    proportional speed law for DubinsCar.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    goals = np.atleast_2d(np.asarray(goals, dtype=np.float64))
    if model.kind == "DubinsCar":
        delta = goals - X[:, :2]
        dist = np.linalg.norm(delta, axis=1)
        bearing = np.where(dist > 1e-9, np.arctan2(delta[:, 1], delta[:, 0]), X[:, 2])
        err = _wrap_to_pi(bearing - X[:, 2])
        omega = _K_HEADING * err
        v_target = np.minimum(model.speed_bound, dist)
        accel = _K_SPEED * (v_target - X[:, 3])
        U = np.stack([omega, accel], axis=1)
    else:
        K = lqr_gain(model.kind, dt)
        XG = np.zeros_like(X)
        XG[:, :model.space_dim] = goals
        U = (XG - X) @ K.T
        if model.kind == "CrazyFlie":
            U = U + np.array([CF_PARAMS.hover_thrust(), 0.0, 0.0, 0.0])
    return np.clip(U, -model.control_bound, model.control_bound)


def motor_mix(params: CrazyFlieParams, motor_speeds: np.ndarray) -> np.ndarray:
    """Thrust/moments (U1..U4) from the four motor speeds in rpm."""
    w2 = np.asarray(motor_speeds, dtype=np.float64) ** 2
    if w2.shape != (4,):
        raise ValueError("expected four motor speeds")
    ct, cd, k = params.C_T, params.C_D, params.d * params.C_T * math.sqrt(2.0)
    M = np.array([
        [ct, ct, ct, ct],
        [-k, -k, k, k],
        [-k, k, k, -k],
        [-cd, cd, -cd, cd],
    ])
    return M @ w2


# --- edge features --------------------------------------------------------

def edge_feature_dim(model: DynamicsModel) -> int:
    return _EDGE_DIM[model.kind]


def state_embedding(model: DynamicsModel, X: np.ndarray) -> np.ndarray:
    """Per-agent embedding whose pairwise differences are the edge features."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if model.kind == "DubinsCar":
        theta, v = X[:, 2], X[:, 3]
        return np.stack([X[:, 0], X[:, 1], v * np.cos(theta), v * np.sin(theta), theta], axis=1)
    return X.copy()


def hit_embedding(model: DynamicsModel, hit_positions: np.ndarray) -> np.ndarray:
    """Embedding of a zero-velocity virtual node at a raycast hit point."""
    hp = np.atleast_2d(np.asarray(hit_positions, dtype=np.float64))
    out = np.zeros((hp.shape[0], edge_feature_dim(model)))
    out[:, :model.space_dim] = hp
    return out


def edge_feature(model: DynamicsModel, x_i: np.ndarray, x_j: np.ndarray) -> np.ndarray:
    """Feature on the edge from node j into agent i."""
    ei = state_embedding(model, np.asarray(x_i)[None, :])[0]
    ej = state_embedding(model, np.asarray(x_j)[None, :])[0]
    return ej - ei


# --- differentiable counterparts (for training and refinement) ------------

def state_embedding_tensor(model: DynamicsModel, X):
    """state_embedding over an autodiff tensor batch."""
    from . import autodiff as ad
    if model.kind != "DubinsCar":
        return ad.as_tensor(X)
    px = ad.narrow(X, 1, 0, 1)
    py = ad.narrow(X, 1, 1, 1)
    theta = ad.narrow(X, 1, 2, 1)
    v = ad.narrow(X, 1, 3, 1)
    return ad.concat([px, py, ad.mul(v, ad.cos(theta)),
                      ad.mul(v, ad.sin(theta)), theta], axis=1)


def virtual_step_tensor(model: DynamicsModel, X: np.ndarray, U, dt: float):
    """Differentiable Euler step: constant states, tensor controls.

    Mirrors step_batch (control clip, then speed clamp) so gradients flow
    from the next state back into U.  Relies on every model being
    control-affine: xdot = F0(x) + B(x) u with x held constant.
    """
    from . import autodiff as ad
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    U = ad.clip(ad.as_tensor(U), -model.control_bound, model.control_bound)
    F0, B = control_affine(model, X)
    X1 = ad.add(X + dt * F0, ad.mul(dt, ad.bmatvec(B, U)))
    # speed clamp: scale = u_M / max(u_M, |v|), built from relu for the max
    sl = velocity_slice(model)
    v = ad.narrow(X1, 1, sl.start, sl.stop - sl.start)
    n = ad.norm2(v, axis=1, keepdims=True)
    u_m = model.speed_bound
    denom = ad.add(u_m, ad.relu(ad.sub(n, u_m)))
    scale = ad.div(float(u_m), denom)
    v_clamped = ad.mul(v, scale)
    parts = []
    if sl.start > 0:
        parts.append(ad.narrow(X1, 1, 0, sl.start))
    parts.append(v_clamped)
    if sl.stop < model.state_dim:
        parts.append(ad.narrow(X1, 1, sl.stop, model.state_dim - sl.stop))
    return ad.concat(parts, axis=1)
