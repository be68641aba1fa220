"""Trial functions, the defining inequality, chaining, and certified suprema.

A trial function assigns a nonnegative weight to every outcome/input pair of
one trial.  The defining inequality for a quantum estimation factor at power
``beta`` bounds the weighted sum of Renyi powers by the total trace; this
module evaluates that inequality on explicit states, accumulates a factor's
log2 values over a record stream (the running sums that the protocols'
threshold test reads), maximizes the canonical-state functional over density
operators by a BFGS ascent that stops on its concavity certificate, and runs
a branch-and-bound over measurement angles to certify a global supremum.

The branch-and-bound splits regions in sweeps and solves each sweep's new
vertices together: one lockstep ascent advances every block problem of one
dimension, and :func:`inner_max_tau` is the same solver on a batch of one.

All logs are natural except the record sums of :func:`chain`, in bits.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from numpy.typing import ArrayLike
from scipy.optimize import brentq

from .models import BellConfig, povm_vectors
from .quantum_core import (
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


def constant_one(c_bits: int, z_bits: int, beta: float) -> TrialFunction:
    """The all-ones quantum estimation factor on a packed ``(c, z)`` grid."""
    values = {
        (c, z): 1.0 for c in range(1 << c_bits) for z in range(1 << z_bits)
    }
    return TrialFunction(values, beta, "qef")


# -- the defining inequality on explicit states -----------------------------


def qef_inequality_check(
    F: TrialFunction,
    rho: CqDistribution,
    kind: str = "sandwiched",
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
            total += weight * renyi_power(rho.block(c, z), marg, order, kind=kind)
    return rho.trace_total() - total


def _as_records(records: ArrayLike) -> np.ndarray:
    """Records as an ``(n, 2)`` int64 array of ``(c, z)`` rows."""
    arr = np.asarray(records, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"records must be (c, z) pairs, got shape {arr.shape}")
    return arr


def _log2_table(F: TrialFunction, k: int) -> np.ndarray:
    """``log2 F(c, z)`` indexed by ``[c, z]``: -inf at zeros, NaN off the domain.

    The last column is NaN; inputs outside the factor's keys, clipped to
    ``[-1, n_z]``, index it.
    """
    cells = [
        key for key in F.keys()
        if len(key) == 2 and 0 <= key[0] < 1 << k and key[1] >= 0
    ]
    n_z = 1 + max((z for _, z in cells), default=-1)
    table = np.full((1 << k, n_z + 1), np.nan)
    for c, z in cells:
        val = F.value(c, z)
        table[c, z] = -math.inf if val == 0.0 else math.log2(val)
    return table


def chain(F: TrialFunction, records: ArrayLike, k: int = 2) -> np.ndarray:
    """Running sums ``sum_{j <= i} log2 F(c_j, z_j)`` over a record stream.

    ``records`` holds ``(c, z)`` rows.  Every outcome must fit in ``k``
    bits and every cell must lie in the factor's domain; otherwise a
    ValueError names the first bad record (1-based).  The sums are one
    ``cumsum`` over a table of ``log2 F``, which adds in record order
    exactly as a sequential loop does.  A zero value makes the sums
    ``-inf`` from its record on, with a warning.
    """
    records = _as_records(records)
    c, z = records[:, 0], records[:, 1]
    bad = np.flatnonzero((c < 0) | (c >= 1 << k))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"record {i + 1}: outcome {c[i]} does not fit in {k} bits")
    table = _log2_table(F, k)
    vals = table[c, np.clip(z, -1, table.shape[1] - 1)]
    bad = np.flatnonzero(np.isnan(vals))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"record ({c[i]}, {z[i]}) outside the factor's domain")
    running = np.cumsum(vals, out=vals)
    # The log values are finite or -inf, so a zero shows in the last sum.
    if running.size and running[-1] == -math.inf:
        i = int(np.argmax(running == -math.inf))
        warnings.warn(f"zero trial-function value at record {i + 1}", RuntimeWarning)
    return running


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
    F: TrialFunction, input_dist: Sequence[float], angles: ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero weights ``mu(z) F(cz)`` and matching projector vectors.

    Rows run over ``z`` then ``c``.  ``angles`` is one configuration's
    station angles, or a stack of them along leading axes (see
    :func:`povm_vectors`); the weights are shared by the whole stack.
    """
    d = len(input_dist)
    w = np.array([input_dist[z] * F.value(c, z) for z in range(d) for c in range(d)])
    rows = np.flatnonzero(w > 0.0)
    if rows.size == 0:
        raise ValueError("trial function vanishes everywhere")
    z, c = np.divmod(rows, d)
    return w[rows], povm_vectors(angles, c, z)


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


def _config_for(theta: Sequence[float]) -> BellConfig:
    """Uniform-input configuration at raw station angles ``theta``, each read modulo ``2 pi``."""
    return BellConfig.uniform(tuple(_wrap_angle(float(t)) for t in theta))


def q_alpha(F: TrialFunction, theta: Sequence[float], tau) -> float:
    """Canonical-state functional ``sum_cz mu(z) F(cz) tr(tau^{1/alpha} P_cz)^alpha``.

    For rank-one projectors this equals the weighted sum of sandwiched Renyi
    powers of the canonical state built from ``tau``; it is concave and
    1-homogeneous in ``tau``.  Each station angle in ``theta`` is read modulo
    ``2 pi``, and the inputs are uniform.
    """
    config = _config_for(theta)
    w, V = _weights_and_vectors(F, config.input_dist, config.angles)
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
    """Divided differences of ``x -> x**(1/alpha)`` over eigenvalue lists ``lam[..., :]``.

    Near-degenerate pairs fall back to the derivative at the midpoint, which
    keeps entries finite and accurate; exact zeros give zero rows (the
    functional grows from the kernel superlinearly, handled by the support
    floor in the iteration).
    """
    p = 1.0 / alpha
    lam = np.clip(lam, 0.0, None)
    f = lam**p
    diff = lam[..., :, None] - lam[..., None, :]
    scale = np.maximum(lam.max(axis=-1, initial=0.0), 1e-300)
    close = np.abs(diff) <= 1e-9 * scale[..., None, None]
    mid = np.clip((lam[..., :, None] + lam[..., None, :]) / 2.0, 1e-300, None)
    deriv = p * mid ** (p - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = (f[..., :, None] - f[..., None, :]) / diff
    k = np.where(close, deriv, quot)
    # A zero cluster has infinite derivative; those entries only multiply
    # kernel components, so cap them at a large finite value.
    return np.minimum(k, 1e300)


class _BlockProblem:
    """Maximize ``sum_i w_i (v_i^T tau^{1/alpha} v_i)^alpha`` over densities.

    ``V`` is ``(..., n, m)`` and ``w`` is ``(..., n)``: leading axes stack
    problems of one shape, and every method broadcasts over them, taking
    ``tau`` as ``(..., m, m)`` and giving one value per problem.
    """

    def __init__(self, V: np.ndarray, w: np.ndarray, alpha: float):
        self.V = V
        self.w = w
        self.alpha = alpha
        self.m = V.shape[-1]

    def __getitem__(self, idx) -> "_BlockProblem":
        """The problems ``idx`` of a stack."""
        return _BlockProblem(self.V[idx], self.w[idx], self.alpha)

    def _decompose(self, tau: np.ndarray):
        lam, U = np.linalg.eigh((tau + np.swapaxes(tau, -1, -2)) / 2.0)
        return np.maximum(lam, 0.0), U

    def value(self, tau: np.ndarray):
        lam, U = self._decompose(tau)
        return self._value_from(lam, U)[0]

    def _value_from(self, lam, U):
        root = (U * lam[..., None, :] ** (1.0 / self.alpha)) @ np.swapaxes(U, -1, -2)
        t = np.maximum(((self.V @ root) * self.V).sum(axis=-1), 0.0)
        return (self.w * t**self.alpha).sum(axis=-1), t

    def gradient(self, lam, U, t) -> np.ndarray:
        coeff = self.w * self.alpha * t ** (self.alpha - 1.0)
        M = np.swapaxes(self.V * coeff[..., None], -1, -2) @ self.V
        Ut = np.swapaxes(U, -1, -2)
        K = _divided_difference_matrix(lam, self.alpha)
        return U @ (K * (Ut @ M @ U)) @ Ut


# A station with ``|sin phi|`` at most this has commuting settings (phi is 0
# or pi up to roundoff).  The coherence such a split neglects moves the
# supremum at second order only: on random candidates split at ``|sin phi|``
# up to 1e-3, every bound stayed above the unsplit value within 3e-15.
_COMMUTING_SIN = 1e-8


def _invariant_blocks(angles: np.ndarray) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Orthonormal bases of subspaces invariant under every projector.

    ``angles`` is a ``(P, k)`` stack of station angles.  A station whose two
    settings commute (``|sin phi| <= _COMMUTING_SIN``) splits along its z
    basis; the projectors of any other station generate all 2x2 matrices, so
    it is one 2-dim factor.  A block is the Kronecker product of one factor
    per station, station 0 leftmost.  Returns ``(rows, bases)`` for each
    group of configurations, rows of ``angles``, whose stations commute alike.
    """
    split = np.abs(np.sin(angles)) <= _COMMUTING_SIN
    eye, groups = np.eye(2), []
    for mask in np.unique(split, axis=0):
        bases = [np.ones((1, 1))]
        for commuting in mask:
            factors = (eye[:, :1], eye[:, 1:]) if commuting else (eye,)
            bases = [np.kron(b, f) for b in bases for f in factors]
        groups.append((np.flatnonzero((split == mask).all(axis=1)), bases))
    return groups


# Weight of the maximally mixed state mixed into every solver iterate.
_FLOOR = 1e-13
# Default cap on the certified pairs of one block solve.
_MAX_PAIRS = 10000


def _evaluate(prob: _BlockProblem, x: np.ndarray):
    """``(g, lambda_max(grad g(tau)), tau, d g / d A)`` at the flat iterate ``A``.

    ``tau = (1 - floor) A A^T / tr(A A^T) + floor I / m``: the identity floor
    keeps every ``t_i`` positive, so no projector drops out of the gradient
    and its top eigenvalue stays a sound bound.  ``x`` is ``(..., m * m)``,
    one iterate per problem of a stack.
    """
    m = prob.m
    A = x.reshape(x.shape[:-1] + (m, m))
    S = A @ np.swapaxes(A, -1, -2)
    s = np.trace(S, axis1=-2, axis2=-1)[..., None, None]
    tau = (1.0 - _FLOOR) * (S / s) + _FLOOR * np.eye(m) / m
    lam, U = prob._decompose(tau)
    g, t = prob._value_from(lam, U)
    G = prob.gradient(lam, U, t)
    # d g / d A = (2 (1 - floor) / s) (G A - <G, S / s> A), and by Euler's
    # identity <G, tau> = g gives <G, S / s> below.
    c = (g - _FLOOR * np.trace(G, axis1=-2, axis2=-1) / m) / (1.0 - _FLOOR)
    GA = (G @ A - c[..., None, None] * A) * (2.0 * (1.0 - _FLOOR) / s)
    return g, np.linalg.eigvalsh(G)[..., -1], tau, GA.reshape(x.shape)


def _maximize_block(
    prob: _BlockProblem,
    tol: float,
    max_iters: int,
    seed: int,
    keep_trace: bool,
):
    """BFGS ascents over ``A`` (see :func:`_evaluate`) that stop on their certified gaps.

    ``prob`` is a stack of problems of one shape, and each is solved as if
    alone: the ascents run in lockstep, each step evaluating one trial point
    of every problem still running, and a problem leaves the stack once it
    stops.  Every problem starts from the same seeded point.

    The certificate rests on concavity and 1-homogeneity: for any density
    ``sigma``, ``g(sigma) <= <grad g(tau), sigma> <= lambda_max(grad g(tau))``,
    so the top gradient eigenvalue at any density ``tau`` bounds the supremum.
    Every evaluation yields one such ``(value, bound)`` pair, so how the
    ascent picks its points cannot affect soundness.  A solve stops once its
    best value is within ``tol`` of its smallest bound, or after
    ``max_iters`` pairs.  On one-dimensional blocks the only density is
    ``[[1]]``, so its value is exact and one pair.

    The inverse Hessian starts at ``I / |grad|``, is rescaled to
    ``s^T y / y^T y`` at the first curvature pair, and is reset to steepest
    ascent whenever its direction does not ascend.  Steps are halved from 1
    until the value passes the Armijo test, or the trial point's own gap
    ``lambda_max - g`` is below the current point's and its value is at
    most ``tol`` below it.  Near the optimum the gap shrinks linearly in the
    distance but the value only quadratically, so at tight tolerances values
    differ by roundoff alone; the gap test keeps the ascent moving there.
    Without its value floor, a point with a smaller gap but a far lower value
    could be taken, and from such points the ascent can creep on for
    thousands of steps.

    Returns ``(value, tau, bound, converged, pairs, trace)`` indexed by
    problem; ``trace`` lists each problem's ``(value, bound)`` pairs, or is
    None without ``keep_trace``.
    """
    b, m = prob.w.shape[0], prob.m
    if m == 1:
        tau = np.ones((b, 1, 1))
        val = prob.value(tau)
        trace = [((v, v),) for v in val.tolist()] if keep_trace else None
        return val, tau, val.copy(), np.ones(b, dtype=bool), np.ones(b, dtype=int), trace

    eye = np.eye(m * m)
    rng = np.random.default_rng(seed)
    x = np.tile(np.eye(m) + 0.05 * rng.standard_normal((m, m)), (b, 1, 1)).reshape(b, -1)
    g, ub, best_tau, grad = _evaluate(prob, x)
    best_val, best_ub = g.copy(), ub.copy()
    pairs = np.ones(b, dtype=int)
    trace = [[pair] for pair in zip(g.tolist(), ub.tolist())] if keep_trace else None
    H = eye / np.linalg.norm(grad, axis=-1)[:, None, None]
    rescale = np.ones(b, dtype=bool)
    d, slope, step = np.empty_like(x), np.empty(b), np.ones(b)

    def aim(i: np.ndarray) -> None:
        """Start line searches of problems ``i``, resetting ``H`` where it does not ascend."""
        bad = i[~((grad[i] * (H[i] @ grad[i][:, :, None])[:, :, 0]).sum(axis=-1) > 0.0)]
        H[bad] = eye / np.linalg.norm(grad[bad], axis=-1)[:, None, None]
        d[i] = (H[i] @ grad[i][:, :, None])[:, :, 0]
        slope[i] = (grad[i] * d[i]).sum(axis=-1)
        step[i] = 1.0

    run = np.flatnonzero((best_ub - best_val > tol) & (pairs < max_iters))
    aim(run)
    while run.size:
        x_new = x[run] + step[run, None] * d[run]
        g_new, ub_new, tau_new, grad_new = _evaluate(prob[run], x_new)
        up = g_new > best_val[run]
        best_val[run[up]] = g_new[up]
        best_tau[run[up]] = tau_new[up]
        best_ub[run] = np.minimum(best_ub[run], ub_new)
        pairs[run] += 1
        if keep_trace:
            for i, pair in zip(run.tolist(), zip(g_new.tolist(), ub_new.tolist())):
                trace[i].append(pair)
        stop = (best_ub[run] - best_val[run] <= tol) | (pairs[run] >= max_iters)
        accept = ~stop & (
            (g_new >= g[run] + 1e-4 * step[run] * slope[run])
            | ((ub_new - g_new < ub[run] - g[run]) & (g_new >= g[run] - tol))
        )
        step[run[~stop & ~accept]] /= 2.0
        moved = run[accept]
        if moved.size:
            s = x_new[accept] - x[moved]
            y = grad[moved] - grad_new[accept]
            sy = (s * y).sum(axis=-1)
            curved = sy > 0.0
            i, s, y, sy = moved[curved], s[curved], y[curved], sy[curved, None, None]
            first = rescale[i]
            H[i[first]] = eye * sy[first] / (y[first] * y[first]).sum(axis=-1)[:, None, None]
            rescale[i] = False
            J = eye - s[:, :, None] * y[:, None, :] / sy
            H[i] = J @ H[i] @ np.swapaxes(J, -1, -2) + s[:, :, None] * s[:, None, :] / sy
            x[moved], g[moved], ub[moved], grad[moved] = (
                x_new[accept], g_new[accept], ub_new[accept], grad_new[accept]
            )
            aim(moved)
        run = run[~stop]
    return (
        best_val,
        best_tau,
        best_ub,
        best_ub - best_val <= tol,
        pairs,
        [tuple(t) for t in trace] if keep_trace else None,
    )


def _solve_vertices(
    F: TrialFunction,
    input_dist: Sequence[float],
    angles: np.ndarray,
    tol: float,
    max_iters: int,
    seed: int,
    keep_trace: bool,
):
    """Certified inner maxima at a ``(P, k)`` stack of station angles in (-pi, pi].

    Each configuration splits into the invariant blocks of
    :func:`_invariant_blocks`.  The supremum over block-diagonal states
    equals the best single block by homogeneity, so each block is solved
    separately and the largest certified bound over blocks bounds the
    supremum.  All blocks of one dimension, over the whole stack, are solved
    by one call of :func:`_maximize_block`; a block that no projector reaches
    is skipped (its functional is zero).

    Returns ``(value, tau, bound, converged, pairs, trace)`` indexed by
    configuration; ``pairs`` sums the certified pairs over blocks, and
    ``trace`` merges the blocks' traces in block order (None without
    ``keep_trace``).
    """
    w, V = _weights_and_vectors(F, input_dist, angles)
    P, d = V.shape[0], V.shape[2]
    value, bound = np.full(P, -math.inf), np.full(P, -math.inf)
    tau = np.zeros((P, d, d))
    pairs = np.zeros(P, dtype=int)
    converged = np.ones(P, dtype=bool)
    traces = [[] for _ in range(P)] if keep_trace else None
    # Every block of one configuration has the same dimension.
    by_dim: dict[int, list] = {}
    for rows, bases in _invariant_blocks(angles):
        for basis in bases:
            Vb = V[rows] @ basis
            keep = (Vb * Vb).sum(axis=-1) > 1e-12
            live = keep.any(axis=1)
            Vb = np.where(keep[:, :, None], Vb, 0.0)
            by_dim.setdefault(basis.shape[1], []).append((rows[live], Vb[live], basis))
    for parts in by_dim.values():
        owner = np.concatenate([rows for rows, _, _ in parts])
        prob = _BlockProblem(
            np.concatenate([Vb for _, Vb, _ in parts]),
            np.broadcast_to(w, (owner.size, w.size)),
            F.alpha,
        )
        val, tau_b, ub, conv, n, tr = _maximize_block(prob, tol, max_iters, seed, keep_trace)
        np.maximum.at(bound, owner, ub)
        np.add.at(pairs, owner, n)
        np.logical_and.at(converged, owner, conv)
        j = 0
        for rows, _, basis in parts:
            for p in rows.tolist():
                if val[j] > value[p]:
                    value[p], tau[p] = val[j], basis @ tau_b[j] @ basis.T
                if keep_trace:
                    traces[p].extend(tr[j])
                j += 1
    converged &= bound - value <= tol
    return value, tau, bound, converged, pairs, traces


def inner_max_tau(
    F: TrialFunction,
    theta: Sequence[float],
    tol: float = 1e-9,
    max_iters: int = _MAX_PAIRS,
    keep_trace: bool = False,
) -> InnerMaxResult:
    """Certified maximum of the canonical-state functional over densities.

    A batch of one for the solver of :func:`certify_fmax`: the algebra
    generated by the projectors is split into invariant blocks in closed
    form, and each block is solved by a BFGS ascent that stops on its
    certified gap (see :func:`_maximize_block`).  Each station angle in
    ``theta`` is read modulo ``2 pi``, and the inputs are uniform.

    Returns
    -------
    InnerMaxResult
        ``value <= sup <= upper_bound``; ``converged`` reports whether the
        requested gap was met within the iteration budget.  ``iterations``
        counts the certified ``(value, bound)`` pairs computed over all
        blocks, one per point the ascent evaluates; ``max_iters`` caps that
        count per block.
    """
    config = _config_for(theta)
    value, tau, bound, converged, pairs, traces = _solve_vertices(
        F, config.input_dist, np.array([config.angles]), tol, max_iters, 0, keep_trace
    )
    return InnerMaxResult(
        value=float(value[0]),
        tau=HermitianOperator(tau[0]),
        upper_bound=float(bound[0]),
        converged=bool(converged[0]),
        iterations=int(pairs[0]),
        trace=tuple(traces[0]) if keep_trace else None,
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
    workers: int = 1,
    seed: int = 0,
    keep_regions: bool = False,
) -> CertificationResult:
    """Certify the supremum of the inner maximum over all station angles.

    Branch-and-bound over the angle cube ``[0, pi]^k`` in sweeps, starting
    from a uniform grid of ``4**k`` cells.  Every cell vertex is solved to
    ``gap_target / 4`` (its certified upper bound is the sound vertex
    value), and a cell is bounded axis-by-axis with :func:`interval_bound`,
    capped by its parent's bound.  Each sweep splits every cell whose bound
    exceeds the best witness by more than ``gap_target`` in half along every
    axis, highest bound first, until the region budget runs out (then
    ``gap_flag`` is set; the bounds stay sound either way).  The sweep's new
    vertices are then solved together: every block of one dimension, over
    all of them, advances in one lockstep ascent (:func:`_maximize_block`),
    whose BFGS start ``seed`` seeds.  The search ends when no cell is left
    to split.

    The supremum runs over all densities, so the bracket also covers
    probability estimation factors: for a pure ``tau``,
    ``tau**(1/alpha) = tau`` and the factor's functional equals
    :func:`q_alpha`.

    ``workers`` is ignored: each sweep's vertices are solved as one batch in
    this process.  The keyword is still accepted so that existing callers
    keep working.
    """
    if gap_target <= 0.0:
        raise ValueError("gap target must be positive")
    k = config.k
    order = RenyiOrder.from_beta(F.beta)
    bits_list = _bit_tuples(k)
    # Cell corners are dyadic fractions of pi, held as floats, in which
    # halving and subtracting them is exact.
    vertex_ub: dict[tuple[float, ...], float] = {}
    f_lower = -math.inf
    witness: tuple[tuple[float, ...], np.ndarray] | None = None

    def corners(lows, highs) -> list[tuple[float, ...]]:
        return [
            tuple(highs[a] if bits[a] else lows[a] for a in range(k)) for bits in bits_list
        ]

    grid = [j / 4 for j in range(5)]
    # Cells to bound, each ``(lows, highs, cap)``, and cells left to split.
    pending = [
        (tuple(grid[i] for i in idx), tuple(grid[i + 1] for i in idx), math.inf)
        for idx in np.ndindex(*([4] * k))
    ]
    live: list[tuple[float, tuple, tuple]] = []
    created = len(pending)
    pruned_cap = -math.inf
    gap_flag = False
    kept: list[Region] = []
    while pending:
        keys = sorted(
            {key for lows, highs, _ in pending for key in corners(lows, highs)}
            .difference(vertex_ub)
        )
        thetas = np.array(keys) * math.pi
        value, tau, bound, _, _, _ = _solve_vertices(
            F, config.input_dist, thetas, gap_target / 4.0, _MAX_PAIRS, seed, False
        )
        vertex_ub.update(zip(keys, bound.tolist()))
        best = int(np.argmax(value))
        if value[best] > f_lower:
            f_lower, witness = float(value[best]), (tuple(thetas[best].tolist()), tau[best])
        for lows, highs, cap in pending:
            ubs = [vertex_ub[key] for key in corners(lows, highs)]
            widths = [(highs[a] - lows[a]) * math.pi for a in range(k)]
            ub = min(_reduce_box(dict(zip(bits_list, ubs)), widths, order), cap)
            if keep_regions:
                kept.append(Region(
                    cuboid=tuple((lo * math.pi, hi * math.pi) for lo, hi in zip(lows, highs)),
                    vertex_values=tuple(ubs),
                    upper_bound=ub,
                ))
            live.append((ub, lows, highs))
        pending, unsplit = [], []
        live.sort(key=lambda cell: cell[0], reverse=True)
        for ub, lows, highs in live:
            if ub <= f_lower + gap_target:
                pruned_cap = max(pruned_cap, ub)
            elif created + (1 << k) > budget:
                gap_flag = True
                unsplit.append((ub, lows, highs))
            else:
                mids = tuple((lo + hi) / 2 for lo, hi in zip(lows, highs))
                for bits in bits_list:
                    pending.append((
                        tuple(mids[a] if bits[a] else lows[a] for a in range(k)),
                        tuple(highs[a] if bits[a] else mids[a] for a in range(k)),
                        ub,
                    ))
                created += 1 << k
        live = unsplit

    f_upper = max(f_lower, pruned_cap, *(ub for ub, _, _ in live)) + NUMERIC_SLACK
    theta_star, tau_star = witness
    return CertificationResult(
        beta=F.beta,
        f_lower=f_lower,
        f_upper=f_upper,
        witness_theta=theta_star,
        witness_tau=HermitianOperator(tau_star),
        regions_explored=created,
        gap_flag=gap_flag,
        regions=tuple(kept) if keep_regions else None,
        gap_target=gap_target,
    )
