"""Trial functions, the defining inequality, chaining, and certified suprema.

A trial function assigns a nonnegative weight to every outcome/input pair of
one trial.  The defining inequality for a quantum estimation factor at power
``beta`` bounds the weighted sum of Renyi powers by the total trace; this
module evaluates that inequality on explicit states, chains log-values over
records, maximizes the canonical-state functional over density operators
with a convexity certificate, and runs a branch-and-bound over measurement
angles to certify a global supremum.

All logs are natural.
"""

from __future__ import annotations

import heapq
import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.optimize import brentq, minimize

from .models import BellConfig, povm_vectors
from .quantum_core import (
    SUPPORT_TOL,
    CqDistribution,
    HermitianOperator,
    RenyiOrder,
    renyi_power,
)

_ROLES = ("candidate", "qef", "qefp", "pef", "ee", "maxprob")
_NONNEG_ROLES = ("candidate", "qef", "qefp", "pef")
# Additive slack folded into certified suprema to cover float roundoff.
NUMERIC_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class TrialFunction:
    """A map from outcome/input keys to weights, tagged with a power.

    ``values`` is keyed by ``(c, z)`` tuples (an optional trailing round
    index is tolerated).  ``beta`` is the power of the defining inequality
    the function is meant for; it may be ``None`` for roles that carry no
    power of their own (entropy estimators, guessing-probability tables).
    """

    values: Mapping[tuple, float]
    beta: float | None
    role: str = "candidate"

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if self.role in ("qef", "qefp", "pef"):
            if self.beta is None or not (self.beta > 0.0):
                raise ValueError(f"role {self.role!r} requires beta > 0")
            if self.role == "qefp" and not (self.beta < 0.5):
                raise ValueError("qefp powers must lie in (0, 1/2)")
        if self.beta is not None and not (
            math.isfinite(self.beta) and self.beta > 0.0
        ):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        table = {}
        for key, val in self.values.items():
            key = tuple(key)
            val = float(val)
            # Entropy estimators may claim nothing (-inf) on an outcome.
            if not math.isfinite(val) and not (
                self.role == "ee" and val == -math.inf
            ):
                raise ValueError(f"non-finite value at {key}")
            if self.role in _NONNEG_ROLES and val < 0.0:
                raise ValueError(f"role {self.role!r} requires nonnegative values")
            table[key] = val
        if not table:
            raise ValueError("at least one key is required")
        object.__setattr__(self, "values", table)

    @property
    def alpha(self) -> float:
        if self.beta is None:
            raise ValueError("this trial function carries no power")
        return 1.0 + self.beta

    def value(self, *key) -> float:
        return self.values[tuple(key)]

    def keys(self):
        return self.values.keys()

    def max_abs_log(self) -> float:
        """Largest ``|log value|``; infinite if any value is zero."""
        out = 0.0
        for v in self.values.values():
            if v <= 0.0:
                return math.inf
            out = max(out, abs(math.log(v)))
        return out

    def scaled(self, factor: float, role: str | None = None) -> "TrialFunction":
        return TrialFunction(
            {k: v * factor for k, v in self.values.items()},
            self.beta,
            role if role is not None else self.role,
        )

    def to_json(self) -> str:
        keys = sorted(self.values)
        width = len(keys[0])
        if any(len(k) != width for k in keys) or width not in (2, 3):
            raise ValueError("serialization needs uniform (c, z[, t]) keys")
        return json.dumps(
            {
                "beta": self.beta,
                "role": self.role,
                "domain": "cz" if width == 2 else "czt",
                "values": [[*k, self.values[k]] for k in keys],
            }
        )

    @classmethod
    def from_json(cls, text: str, role: str | None = None) -> "TrialFunction":
        data = json.loads(text)
        values = {tuple(int(x) for x in row[:-1]): float(row[-1]) for row in data["values"]}
        beta = data["beta"]
        if role is None:
            role = data.get("role", "candidate")
        return cls(values, None if beta is None else float(beta), role)


def constant_one(c_bits: int, z_bits: int, beta: float, role: str = "qef") -> TrialFunction:
    """The all-ones trial function on a packed ``(c, z)`` grid."""
    values = {
        (c, z): 1.0 for c in range(1 << c_bits) for z in range(1 << z_bits)
    }
    return TrialFunction(values, beta, role)


# -- the defining inequality on explicit states -----------------------------


def qef_inequality_check(
    F: TrialFunction,
    rho: CqDistribution,
    kind: str = "sandwiched",
    support_tol: float = SUPPORT_TOL,
) -> float:
    """Slack ``tr rho - sum_cz F(cz) S_alpha(rho(cz) | rho(z))``.

    Nonnegative slack on every model state is the defining property of an
    estimation factor at power ``F.beta`` (sandwiched kind; the Petz kind
    with ``beta <= 1`` defines the stronger variant).
    """
    order = RenyiOrder.from_beta(F.beta)
    total = 0.0
    for z in rho.z_range:
        marg = rho.marginal(z)
        for c in rho.c_range:
            weight = F.value(c, z)
            if weight == 0.0:
                continue
            total += weight * renyi_power(
                rho.block(c, z), marg, order, kind=kind, support_tol=support_tol
            )
    return rho.trace_total() - total


def chain(Fs, records: Iterable[tuple[int, int]]) -> float:
    """Accumulated ``sum_i log F_i(c_i, z_i)`` over a record stream.

    ``Fs`` is a single trial function applied to every record or a sequence
    with one entry per record (entries may be chosen adaptively from the
    past, which is the caller's responsibility).  A zero value at an
    observed record yields ``-inf`` with a warning.
    """
    records = list(records)
    if isinstance(Fs, TrialFunction):
        seq: Sequence[TrialFunction] = [Fs] * len(records)
    else:
        seq = list(Fs)
        if len(seq) != len(records):
            raise ValueError("need one trial function per record")
    total = 0.0
    for i, ((c, z), F) in enumerate(zip(records, seq)):
        v = F.value(c, z)
        if v < 0.0:
            raise ValueError(f"negative trial-function value at record {i}")
        if v == 0.0:
            warnings.warn(f"zero trial-function value at record {i}", RuntimeWarning)
            total = -math.inf
        elif total > -math.inf:
            total += math.log(v)
    return total


def power_reduce(F: TrialFunction, gamma: float) -> TrialFunction:
    """Raise values to ``gamma`` in (0, 1], reducing the power to ``gamma*beta``."""
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    if F.beta is None:
        raise ValueError("power reduction needs a trial function with a power")
    return TrialFunction(
        {k: v**gamma for k, v in F.values.items()}, F.beta * gamma, F.role
    )


# -- canonical-state functional ---------------------------------------------


def _weights_and_vectors(
    F: TrialFunction, config: BellConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero weights ``mu(z) F(cz)`` and matching projector vectors.

    Rows run over ``z`` then ``c``.
    """
    d = config.dim
    w = np.array([config.mu(z) * F.value(c, z) for z in range(d) for c in range(d)])
    rows = np.flatnonzero(w > 0.0)
    if rows.size == 0:
        raise ValueError("trial function vanishes everywhere")
    z, c = np.divmod(rows, d)
    return w[rows], povm_vectors(config, c, z)


def _wrap_angle(t: float) -> float:
    """``t`` reduced modulo ``2 pi`` into (-pi, pi]; angles already there pass as is.

    The station projectors are ``2 pi``-periodic in the measurement angle,
    so the reduction changes no functional built from them.  Non-finite
    angles stay non-finite and are rejected by ``BellConfig``.
    """
    if -math.pi < t <= math.pi:
        return t
    w = math.pi - (math.pi - t) % (2.0 * math.pi)
    # The float ``%`` can round up to exactly ``2 pi``.
    return math.pi if w <= -math.pi else w


def _config_for(theta: Sequence[float], input_dist=None) -> BellConfig:
    """Configuration at raw station angles ``theta``, each read modulo ``2 pi``."""
    angles = tuple(_wrap_angle(float(t)) for t in theta)
    if input_dist is None:
        return BellConfig.uniform(angles)
    return BellConfig(len(angles), angles, tuple(float(p) for p in input_dist))


def q_alpha(F: TrialFunction, theta: Sequence[float], tau, input_dist=None) -> float:
    """Canonical-state functional ``sum_cz mu(z) F(cz) tr(tau^{1/alpha} P_cz)^alpha``.

    For rank-one projectors this equals the weighted sum of sandwiched Renyi
    powers of the canonical state built from ``tau``; it is concave and
    1-homogeneous in ``tau``.  Each station angle in ``theta`` is read modulo
    ``2 pi``.
    """
    config = _config_for(theta, input_dist)
    w, V = _weights_and_vectors(F, config)
    op = tau if isinstance(tau, HermitianOperator) else HermitianOperator(tau)
    if op.dim != config.dim:
        raise ValueError("state dimension must match the configuration")
    root = op.power(1.0 / F.alpha).matrix
    t = np.einsum("ni,ij,nj->n", V.conj(), root, V, optimize=True)
    t = np.clip(np.real(t), 0.0, None)
    return float((w * t**F.alpha).sum())


class InnerMaxResult(NamedTuple):
    """Outcome of the inner maximization over density operators."""

    value: float
    tau: HermitianOperator
    upper_bound: float
    converged: bool
    iterations: int
    trace: tuple | None = None


def _divided_difference_matrix(lam: np.ndarray, alpha: float) -> np.ndarray:
    """Divided differences of ``x -> x**(1/alpha)`` over an eigenvalue list.

    Near-degenerate pairs fall back to the derivative at the midpoint, which
    keeps entries finite and accurate; exact zeros give zero rows (the
    functional grows from the kernel superlinearly, handled by the support
    floor in the iteration).
    """
    p = 1.0 / alpha
    lam = np.clip(lam, 0.0, None)
    f = lam**p
    n = lam.size
    diff = lam[:, None] - lam[None, :]
    close = np.abs(diff) <= 1e-9 * max(lam.max(initial=0.0), 1e-300)
    mid = np.clip((lam[:, None] + lam[None, :]) / 2.0, 1e-300, None)
    deriv = p * mid ** (p - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = (f[:, None] - f[None, :]) / diff
    k = np.where(close, deriv, quot)
    # A zero cluster has infinite derivative; those entries only multiply
    # kernel components, so cap them at a large finite value.
    return np.minimum(k, 1e300)


class _BlockProblem:
    """Maximize ``sum_i w_i (v_i^T tau^{1/alpha} v_i)^alpha`` over densities."""

    def __init__(self, V: np.ndarray, w: np.ndarray, alpha: float):
        self.V = V
        self.w = w
        self.alpha = alpha
        self.m = V.shape[1]
        self._cols = V.reshape(-1, self.m, 1)

    def _decompose(self, tau: np.ndarray):
        lam, U = np.linalg.eigh((tau + tau.T) / 2.0)
        return np.maximum(lam, 0.0), U

    def value(self, tau: np.ndarray) -> float:
        lam, U = self._decompose(tau)
        return self._value_from(lam, U)[0]

    def _value_from(self, lam, U):
        root = (U * lam ** (1.0 / self.alpha)) @ U.T
        # ``t_i = v_i^T root v_i`` as one batched (1, m) by (m, 1) product,
        # in the order numpy's optimized einsum contracts it.
        rv = (root.T @ self.V.T).T.reshape(-1, 1, self.m)
        t = np.maximum((rv @ self._cols).reshape(-1), 0.0)
        return float((self.w * t**self.alpha).sum()), t

    def gradient(self, lam, U, t) -> np.ndarray:
        coeff = self.w * self.alpha * t ** (self.alpha - 1.0)
        M = (self.V * coeff[:, None]).T @ self.V
        A = U.T @ M @ U
        K = _divided_difference_matrix(lam, self.alpha)
        return U @ (K * A) @ U.T

    def collapse(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigensystem with clustered eigenvalues replaced by their means."""
        lam, U = self._decompose(tau)
        scale = max(lam.max(initial=0.0), 1e-300)
        out = lam.copy()
        i = 0
        while i < lam.size:
            j = i
            while j + 1 < lam.size and lam[j + 1] - lam[j] <= 1e-12 * scale:
                j += 1
            out[i : j + 1] = lam[i : j + 1].mean()
            i = j + 1
        total = out.sum()
        if total > 0.0:
            out = out / total * lam.sum()
        return out, U


def _golden_section_max(f: Callable[[float], float], iters: int = 40) -> float:
    """Argmax of a scalar function on [0, 1] by golden-section search."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _invariant_blocks(
    V: np.ndarray, seed: int
) -> list[np.ndarray]:
    """Orthonormal bases of subspaces invariant under all ``v_i v_i^T``.

    A seeded random positive combination of the projectors is diagonalized;
    its eigenvalue clusters are glued together whenever some projector has
    mass bridging two clusters.  The resulting components are verified to
    carry each projector entirely; on any doubt the trivial decomposition
    is returned, which is always sound.
    """
    n, d = V.shape
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.5, 1.5, size=n)
    R = (V * u[:, None]).T @ V
    lam, U = np.linalg.eigh(R)
    scale = max(np.abs(lam).max(initial=0.0), 1.0)
    clusters = []
    start = 0
    for i in range(1, d + 1):
        if i == d or lam[i] - lam[i - 1] > 1e-8 * scale:
            clusters.append(list(range(start, i)))
            start = i
    parent = list(range(len(clusters)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    proj = U.T @ V.T  # (d, n): eigenbasis components of each vector
    masses = np.stack([
        np.linalg.norm(proj[idx, :], axis=0) for idx in clusters
    ])  # (n_clusters, n)
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            if np.any(masses[i] * masses[j] > 1e-10):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(len(clusters)):
        groups.setdefault(find(i), []).append(i)
    # member[g, i] = 1 when cluster i belongs to component g.
    member = np.zeros((len(groups), len(clusters)))
    for g, idx in enumerate(groups.values()):
        member[g, idx] = 1.0
    # Verify every projector lives inside exactly one component.
    if np.any((member @ masses**2).max(axis=0) < 1.0 - 1e-10):
        return [np.eye(d)]
    return [
        U[:, sorted(j for i in idx for j in clusters[i])] for idx in groups.values()
    ]


class _StopSolve(Exception):
    """Raised from the quasi-Newton objective: gap met or evaluations spent."""


# Weight of the maximally mixed state mixed into every solver iterate.
_FLOOR = 1e-13


def _maximize_block(
    prob: _BlockProblem,
    tol: float,
    max_iters: int,
    seed: int,
    keep_trace: bool,
):
    """Quasi-Newton ascent that stops on its certified gap.

    The certificate rests on concavity and 1-homogeneity: for any density
    ``sigma``, ``g(sigma) <= <grad g(tau), sigma> <= lambda_max(grad g(tau))``,
    so the largest gradient eigenvalue at any density ``tau`` is a global
    upper bound.  L-BFGS-B runs on ``tau = A A^T / tr(A A^T)``, floored by
    ``_FLOOR`` times the maximally mixed state, with tight tolerances; every
    objective evaluation also computes that bound, and the solve stops as
    soon as the running smallest bound is within ``tol`` of the running
    best value.  A solve that ends uncertified continues
    with Frank-Wolfe steps (golden-section line search toward the top
    gradient eigenspace) from its best point.  Each evaluation, in either
    phase, yields one ``(value, bound)`` pair, and at most ``max_iters`` are
    made.
    """
    m = prob.m
    rng = np.random.default_rng(seed)

    if m == 1:
        tau = np.array([[1.0]])
        val = prob.value(tau)
        return val, tau, val, True, 1, ((val, val),) if keep_trace else None

    best_val = -math.inf
    best_tau = np.eye(m) / m
    best_ub = math.inf
    trace = []

    def record(g: float, ub: float, tau) -> bool:
        """Fold one certified pair into the bracket; True once it is met."""
        nonlocal best_val, best_tau, best_ub
        if g > best_val:
            best_val, best_tau = g, tau
        best_ub = min(best_ub, ub)
        trace.append((g, ub))
        return best_ub - best_val <= tol

    def negative(x):
        A = x.reshape(m, m)
        S = A @ A.T
        s = float(np.trace(S))
        if s <= 0.0:
            return 0.0, np.zeros(m * m)
        # The identity floor keeps every t_i positive, so no projector drops
        # out of the gradient and its top eigenvalue stays a sound bound.
        tau = (1.0 - _FLOOR) * (S / s) + _FLOOR * np.eye(m) / m
        lam, U = prob._decompose(tau)
        g, t = prob._value_from(lam, U)
        G = prob.gradient(lam, U, t)
        met = record(g, float(np.linalg.eigvalsh(G)[-1]), tau)
        if met or len(trace) >= max_iters:
            raise _StopSolve
        # d g / d A = (2 (1 - floor) / s) (G A - <G, S / s> A), and by Euler's
        # identity <G, tau> = g gives <G, S / s> below.
        c = (g - _FLOOR * float(np.trace(G)) / m) / (1.0 - _FLOOR)
        GA = (G @ A - c * A) * (2.0 * (1.0 - _FLOOR) / s)
        return -g, -GA.ravel()

    x0 = (np.eye(m) + 0.05 * rng.standard_normal((m, m))).ravel()
    try:
        minimize(negative, x0, jac=True, method="L-BFGS-B",
                 options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 500})
    except _StopSolve:
        pass

    converged = best_ub - best_val <= tol
    tau = best_tau
    while not converged and len(trace) < max_iters:
        lam, U = prob.collapse(tau)
        g, t = prob._value_from(lam, U)
        G = prob.gradient(lam, U, t)
        gl, GU = np.linalg.eigh(G)
        base = (U * lam) @ U.T
        if record(g, float(gl[-1]), base):
            converged = True
            break
        # Frank-Wolfe direction: the top-eigenvalue cluster of the gradient.
        top = gl >= gl[-1] - 1e-12 * max(1.0, abs(gl[-1]))
        W = GU[:, top]
        delta = (W @ W.T) / float(top.sum())

        def line(eps):
            return prob.value((1.0 - eps) * base + eps * delta)

        eps = _golden_section_max(line)
        tau = (1.0 - eps) * base + eps * delta
        tau = (1.0 - _FLOOR) * tau + _FLOOR * np.eye(m) / m
    return (
        best_val,
        best_tau,
        best_ub,
        converged,
        len(trace),
        tuple(trace) if keep_trace else None,
    )


def inner_max_tau(
    F: TrialFunction,
    theta: Sequence[float],
    tol: float = 1e-9,
    input_dist=None,
    max_iters: int = 10000,
    seed: int = 0,
    keep_trace: bool = False,
) -> InnerMaxResult:
    """Certified maximum of the canonical-state functional over densities.

    The algebra generated by the projectors is split into invariant blocks
    first; the supremum over block-diagonal states equals the best single
    block by homogeneity, so each block is solved separately and the largest
    certified upper bound over blocks bounds the global supremum.  Each
    station angle in ``theta`` is read modulo ``2 pi``.

    Returns
    -------
    InnerMaxResult
        ``value <= sup <= upper_bound``; ``converged`` reports whether the
        requested gap was met within the iteration budget.  ``iterations``
        counts the certified ``(value, bound)`` pairs computed over all
        blocks (objective evaluations of the quasi-Newton phase plus any
        Frank-Wolfe steps); ``max_iters`` caps that count per block.
    """
    config = _config_for(theta, input_dist)
    w, V = _weights_and_vectors(F, config)
    alpha = F.alpha
    d = config.dim
    blocks = _invariant_blocks(V, seed)
    best = None
    total_iters = 0
    all_conv = True
    global_ub = -math.inf
    merged_trace: list = []
    for basis in blocks:
        Vb = V @ basis
        keep = np.linalg.norm(Vb, axis=1) ** 2 > 1e-12
        if not np.any(keep):
            continue
        prob = _BlockProblem(Vb[keep], w[keep], alpha)
        val, tau_b, ub, conv, iters, tr = _maximize_block(
            prob, tol, max_iters, seed, keep_trace
        )
        total_iters += iters
        all_conv = all_conv and conv
        global_ub = max(global_ub, ub)
        if tr:
            merged_trace.extend(tr)
        if best is None or val > best[0]:
            best = (val, basis @ tau_b @ basis.T)
    value, tau_full = best
    return InnerMaxResult(
        value=value,
        tau=HermitianOperator(tau_full),
        upper_bound=global_ub,
        converged=all_conv and (global_ub - value <= tol),
        iterations=total_iters,
        trace=tuple(merged_trace) if keep_trace else None,
    )


# -- interval bound over one angle ------------------------------------------


def interval_bound(f: float, f_prime: float, phi: float, order: RenyiOrder) -> float:
    """Upper bound for the supremum over an angle interval of width ``phi``.

    Given sound values ``f`` and ``f_prime`` at the two endpoints, the
    supremum over the interval is at most the maximum of

    ``u(x) = (sin(phi-x) + sin x)^beta (sin(phi-x) f + sin x f') / sin(phi)^alpha``

    whose log is concave on ``(0, phi)``, capped by
    ``(phi / sin phi)^alpha max(f, f')``.  Requires ``phi in (0, pi/2]``.
    """
    if not (0.0 < phi <= math.pi / 2.0 + 1e-12):
        raise ValueError("interval width must lie in (0, pi/2]")
    if f < 0.0 or f_prime < 0.0:
        raise ValueError("endpoint values must be nonnegative")
    if f == 0.0 and f_prime == 0.0:
        return 0.0
    alpha, beta = order.alpha, order.beta
    cap = (phi / math.sin(phi)) ** alpha * max(f, f_prime)
    sphi = math.sin(phi)

    def u(x: float) -> float:
        s0, s1 = math.sin(phi - x), math.sin(x)
        return (s0 + s1) ** beta * (s0 * f + s1 * f_prime) / sphi**alpha

    def du(x: float) -> float:
        s0, s1 = math.sin(phi - x), math.sin(x)
        c0, c1 = math.cos(phi - x), math.cos(x)
        return beta * (c1 - c0) / (s1 + s0) + (c1 * f_prime - c0 * f) / (
            s1 * f_prime + s0 * f
        )

    # Endpoint derivative signs decide whether the interior maximum exists;
    # they are infinite (toward the interior) when an endpoint value is 0.
    if f > 0.0 and du(0.0) <= 0.0:
        return min(f, cap)
    if f_prime > 0.0 and du(phi) >= 0.0:
        return min(f_prime, cap)
    lo = 0.0 if f > 0.0 else phi * 1e-12
    hi = phi if f_prime > 0.0 else phi * (1.0 - 1e-12)
    try:
        root = brentq(du, lo, hi, xtol=1e-12 * phi, rtol=8.9e-16)
    except ValueError:
        # Root pushed onto an endpoint by roundoff; the cap is always sound.
        return cap
    bound = max(u(root), f, f_prime)
    return min(bound, cap)


# -- certified supremum over configurations ----------------------------------


@dataclass(frozen=True)
class Region:
    """One branch-and-bound cell: per-axis angle intervals and its bound."""

    cuboid: tuple[tuple[float, float], ...]
    vertex_values: tuple[float, ...]
    upper_bound: float


@dataclass(frozen=True, eq=False)
class CertificationResult:
    """Two-sided certificate for a supremum over configurations.

    ``f_lower`` is attained by the stored witness; ``f_upper`` bounds the
    supremum from above (with a small additive roundoff allowance) and
    ``gap_flag`` marks budget exhaustion before the target gap
    ``gap_target`` was met.
    """

    beta: float
    f_lower: float
    f_upper: float
    witness_theta: tuple[float, ...]
    witness_tau: HermitianOperator
    regions_explored: int
    gap_flag: bool = False
    regions: tuple[Region, ...] | None = None
    gap_target: float | None = None

    @property
    def gap(self) -> float:
        return self.f_upper - self.f_lower

    def to_json(self) -> str:
        m = self.witness_tau.matrix
        return json.dumps(
            {
                "beta": self.beta,
                "f_lower": self.f_lower,
                "f_upper": self.f_upper,
                "witness_theta": list(self.witness_theta),
                "witness_tau": [
                    [float(x.real), float(x.imag)] for x in m.ravel()
                ],
                "regions": self.regions_explored,
                "gap_flag": self.gap_flag,
                "gap_target": self.gap_target,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CertificationResult":
        data = json.loads(text)
        flat = np.array([complex(re, im) for re, im in data["witness_tau"]])
        dim = round(math.isqrt(flat.size))
        target = data.get("gap_target")
        return cls(
            beta=float(data["beta"]),
            f_lower=float(data["f_lower"]),
            f_upper=float(data["f_upper"]),
            witness_theta=tuple(float(t) for t in data["witness_theta"]),
            witness_tau=HermitianOperator(flat.reshape(dim, dim)),
            regions_explored=int(data["regions"]),
            # Certificates written before these fields read as met, untargeted.
            gap_flag=bool(data.get("gap_flag", False)),
            gap_target=None if target is None else float(target),
        )


def _bit_tuples(k: int) -> list[tuple[int, ...]]:
    return [tuple((i >> j) & 1 for j in range(k)) for i in range(1 << k)]


def _reduce_box(
    corner_ubs: dict[tuple[int, ...], float],
    widths: Sequence[float],
    order: RenyiOrder,
) -> float:
    """Axis-by-axis interval bound over a k-dimensional angle box."""
    vals = dict(corner_ubs)
    for width in widths:
        new = {}
        rests = {bits[1:] for bits in vals}
        for rest in rests:
            new[rest] = interval_bound(
                vals[(0,) + rest], vals[(1,) + rest], width, order
            )
        vals = new
    return vals[()]


def certify_fmax(
    F: TrialFunction,
    config: BellConfig,
    gap_target: float,
    budget: int = 20000,
    grid_m: int = 4,
    inner_tol: float | None = None,
    workers: int = 1,
    max_iters: int = 10000,
    seed: int = 0,
    keep_regions: bool = False,
) -> CertificationResult:
    """Certify the supremum of the inner maximum over all station angles.

    Branch-and-bound over the angle cube ``[0, pi]^k``: every grid vertex is
    solved by :func:`inner_max_tau` (its certified upper bound is the sound
    vertex value), cells are bounded axis-by-axis with
    :func:`interval_bound`, and the cell with the largest bound is split in
    half along every axis until the bound meets the best witness within
    ``gap_target`` or the region budget runs out (then ``gap_flag`` is set —
    the bounds stay sound either way).
    """
    if gap_target <= 0.0:
        raise ValueError("gap target must be positive")
    k = config.k
    order = RenyiOrder.from_beta(F.beta)
    itol = gap_target / 4.0 if inner_tol is None else inner_tol
    cache: dict[tuple[Fraction, ...], InnerMaxResult] = {}
    bits_list = _bit_tuples(k)
    f_lower = -math.inf
    witness: tuple[tuple[float, ...], HermitianOperator] | None = None

    def eval_vertices(keys: list[tuple[Fraction, ...]]) -> None:
        nonlocal f_lower, witness
        todo = [key for key in set(keys) if key not in cache]
        todo.sort()

        def solve(key):
            theta = tuple(float(fr) * math.pi for fr in key)
            return key, inner_max_tau(
                F, theta, tol=itol, input_dist=config.input_dist,
                max_iters=max_iters, seed=seed,
            )

        if workers > 1 and len(todo) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(solve, todo))
        else:
            results = [solve(key) for key in todo]
        for key, res in results:
            cache[key] = res
            if res.value > f_lower:
                f_lower = res.value
                witness = (tuple(float(fr) * math.pi for fr in key), res.tau)

    def make_region(lows: tuple[Fraction, ...], highs: tuple[Fraction, ...], cap: float):
        corners = {
            bits: tuple(highs[a] if bits[a] else lows[a] for a in range(k))
            for bits in bits_list
        }
        eval_vertices(list(corners.values()))
        ubs = {bits: cache[key].upper_bound for bits, key in corners.items()}
        widths = [float(highs[a] - lows[a]) * math.pi for a in range(k)]
        ub = min(_reduce_box(ubs, widths, order), cap)
        return Region(
            cuboid=tuple(
                (float(lows[a]) * math.pi, float(highs[a]) * math.pi)
                for a in range(k)
            ),
            vertex_values=tuple(ubs[bits] for bits in bits_list),
            upper_bound=ub,
        ), (lows, highs)

    # Initial uniform grid.
    grid = [Fraction(j, grid_m) for j in range(grid_m + 1)]
    initial_keys = []
    cells = []
    for idx in np.ndindex(*([grid_m] * k)):
        lows = tuple(grid[i] for i in idx)
        highs = tuple(grid[i + 1] for i in idx)
        cells.append((lows, highs))
        for bits in bits_list:
            initial_keys.append(
                tuple(highs[a] if bits[a] else lows[a] for a in range(k))
            )
    eval_vertices(initial_keys)

    heap: list = []
    store: dict[int, tuple[Region, tuple]] = {}
    counter = 0
    created = len(cells)
    pruned_cap = -math.inf
    kept: list[Region] = []

    def push(region: Region, bounds_key) -> None:
        nonlocal counter, pruned_cap
        if keep_regions:
            kept.append(region)
        if region.upper_bound <= f_lower + gap_target:
            pruned_cap = max(pruned_cap, region.upper_bound)
            return
        store[counter] = (region, bounds_key)
        heapq.heappush(heap, (-region.upper_bound, counter))
        counter += 1

    for lows, highs in cells:
        region, bkey = make_region(lows, highs, math.inf)
        push(region, bkey)

    gap_flag = False
    while heap:
        neg_ub, rid = heapq.heappop(heap)
        region, (lows, highs) = store.pop(rid)
        top_ub = -neg_ub
        if top_ub <= f_lower + gap_target:
            pruned_cap = max(pruned_cap, top_ub)
            break
        if created + (1 << k) > budget:
            gap_flag = True
            pruned_cap = max(pruned_cap, top_ub)
            break
        mids = tuple((lo + hi) / 2 for lo, hi in zip(lows, highs))
        for bits in bits_list:
            clows = tuple(mids[a] if bits[a] else lows[a] for a in range(k))
            chighs = tuple(highs[a] if bits[a] else mids[a] for a in range(k))
            child, ckey = make_region(clows, chighs, top_ub)
            created += 1
            push(child, ckey)

    remaining = max((reg.upper_bound for reg, _ in store.values()), default=-math.inf)
    f_upper = max(f_lower, pruned_cap, remaining) + NUMERIC_SLACK
    theta_star, tau_star = witness
    return CertificationResult(
        beta=F.beta,
        f_lower=f_lower,
        f_upper=f_upper,
        witness_theta=theta_star,
        witness_tau=tau_star,
        regions_explored=created,
        gap_flag=gap_flag,
        regions=tuple(kept) if keep_regions else None,
        gap_target=gap_target,
    )
