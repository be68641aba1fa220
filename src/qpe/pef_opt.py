"""Probability estimation factors for two-station trials.

A probability estimation factor constrains outcome probabilities directly:
``sum_cz mu(z) nu(c|z)**alpha F(cz) <= 1`` must hold for every distribution
the model admits.  Here the model is a polytope whose vertices are
conditional tables ``t[c, z]``: by default ``MODEL_TABLES``, the 16 local
deterministic tables and the 64 points where the quantum correlation bounds
cut the no-signaling polytope.  Each table is one linear constraint row, so
optimizing the log-factor rate is a finite convex program, solved by
primal-dual interior-point Newton steps that stop on a closed-form duality
gap.  The factor's supremum over quantum models is bracketed by
:func:`qpe.qef_engine.certify_fmax`.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .models import _LD_STACK, TrialDistribution, correlators
from .qef_engine import TrialFunction


def local_deterministic_vertices() -> tuple[TrialDistribution, ...]:
    """The 16 local deterministic tables, uniform inputs."""
    return tuple(
        TrialDistribution(
            2, 2, {(c, z): 0.25 * float(t[c, z]) for z in range(4) for c in range(4)}
        )
        for t in _LD_STACK
    )


def _tsirelson_cuts() -> np.ndarray:
    """The 64 points where the quantum correlation bounds cut the
    no-signaling polytope, eight per nonlocal vertex (PR box).

    Box ``ax + 2 by + 4 g`` puts 1/2 on each outcome ``c = a + 2 b`` with
    ``a ^ b = x y ^ ax x ^ by y ^ g`` at input ``z = x + 2 y``.  Each box
    exceeds ``2 sqrt(2)`` on one CHSH sign pattern, the signs of its
    correlators, and the quantum bound on that pattern cuts the edges toward
    the 8 local tables that reach 2 on it at the box weight ``sqrt(2) - 1``.
    With the local tables, the cuts are all the vertices of the no-signaling
    polytope restricted by the eight correlation bounds.  The mixtures are
    taken of joint tables at uniform inputs and normalized over ``c``, like
    :attr:`qpe.models.TrialDistribution.cond`.
    """
    c, z, flags = np.arange(4)[:, None], np.arange(4), np.arange(8)[:, None, None]
    target = (z & (z >> 1)) ^ (flags & z & 1) ^ ((flags >> 1) & (z >> 1)) ^ (flags >> 2)
    boxes = 0.5 * (((c ^ (c >> 1)) & 1) == target)
    box, ld = np.nonzero(correlators(boxes) @ correlators(_LD_STACK).T == 2.0)
    w = math.sqrt(2.0) - 1.0
    joint = w * (0.25 * boxes[box]) + (1.0 - w) * (0.25 * _LD_STACK[ld])
    return joint / joint.sum(axis=1, keepdims=True)


CUT_TABLES = _tsirelson_cuts()
LOCAL_TABLES = _LD_STACK
# The default model: the 16 local tables, then the 64 cuts.  Every call
# shares these arrays, so they are read-only.
MODEL_TABLES = np.concatenate([LOCAL_TABLES, CUT_TABLES])
CUT_TABLES.flags.writeable = False
MODEL_TABLES.flags.writeable = False


def pef_inequality_check(F: TrialFunction) -> float:
    """Worst-case slack ``1 - sum_cz mu(z) t[c, z]**alpha F(cz)`` over the
    tables ``t`` of ``MODEL_TABLES`` at uniform inputs, one table at a time."""
    keys = sorted(F.keys())
    mu = 1.0 / len({z for _, z in keys})
    alpha = F.alpha
    worst = -math.inf
    for t in MODEL_TABLES:
        total = sum(
            mu * float(t[c, z]) ** alpha * F.value(c, z) for c, z in keys
        )
        worst = max(worst, total)
    return 1.0 - worst


# The factor program's solver: the duality gap it certifies, its iteration
# cap, the centering weight of each Newton target and the fraction of the
# step to the boundary that it takes.
_TOL = 1e-10
_MAX_ITERS = 100
_SIGMA = 0.1
_TO_BOUNDARY = 0.99


def _max_log_factor(a: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, float]:
    """Maximize ``sum nu log x`` subject to ``a x <= 1`` by primal-dual Newton steps.

    The iterates are the primal ``x``, the slacks ``r = 1 - a x`` and the
    multipliers ``y >= 0`` of the rows.  Each step linearizes
    ``x * (a^T y) = nu`` and ``y * r = sigma * mean(y r)``, which is one
    symmetric positive definite solve
    ``(diag(a^T y / x) + a^T diag(y / r) a) dx = nu / x - a^T (sigma mean(y r) / r)``,
    and goes ``_TO_BOUNDARY`` of the way to the boundary of ``x, r, y > 0``.
    Using ``a^T y / x`` for the objective's curvature ``nu / x**2`` keeps
    the steps stable when some ``nu`` are tiny.

    Every ``y`` gives the dual point ``x = nu / (a^T y)``, feasible once
    rescaled by ``max(a x)``, with the closed-form duality gap
    ``sum y - 1 + log max(a x)``.  Stops once that gap is at most ``_TOL``,
    or when roundoff leaves no step, and returns the unscaled dual point
    with the smallest gap, and that gap.
    """
    m, n = a.shape
    x = np.full(n, 0.5 / float(a.sum(axis=1).max()))
    r = 1.0 - a @ x
    y = np.full(m, 1.0 / m)
    best, best_gap = x, math.inf
    for _ in range(_MAX_ITERS):
        s = a.T @ y
        gap = float(y.sum()) - 1.0 + math.log(float((a @ (nu / s)).max()))
        if gap < best_gap:
            best, best_gap = nu / s, gap
        if gap <= _TOL:
            break
        target = _SIGMA * float(y @ r) / m
        w = y / r
        try:
            dx = np.linalg.solve(
                np.diag(s / x) + (a.T * w) @ a, nu / x - a.T @ (target / r)
            )
        except np.linalg.LinAlgError:
            break
        dr = -(a @ dx)
        dy = target / r - y - w * dr
        step = 1.0
        for v, dv in ((x, dx), (r, dr), (y, dy)):
            down = dv < 0.0
            if down.any():
                step = min(step, _TO_BOUNDARY * float((-v[down] / dv[down]).min()))
        x = x + step * dx
        r = r + step * dr
        y = y + step * dy
    return best, best_gap


def optimize_pef_polytope(
    nu: TrialDistribution,
    beta: float,
    tables: np.ndarray | None = None,
) -> tuple[TrialFunction, float]:
    """Best polytope-sound factor at power ``beta`` for the observed table.

    ``tables`` is an ``(m, n_c, n_z)`` array of the model's vertex tables
    ``t[c, z]`` (default ``MODEL_TABLES``), and each gives the constraint
    row ``mu(z) t[c, z]**alpha``.  Maximizes ``sum_cz nu(cz) log F(cz)``
    subject to those rows with :func:`_max_log_factor`, a primal-dual
    interior-point method whose point is certified within a duality gap of
    ``_TOL``; the factor is rescaled onto the polytope's boundary, so it is
    always feasible.  The
    all-ones factor (scaled down if a row exceeds one on it) is returned
    instead unless the optimum beats it by more than the gap, so a table
    inside the polytope gets a rate of at most zero, not roundoff.  Returns
    the factor and its rate in nats per trial.
    """
    if beta <= 0.0:
        raise ValueError("the power must be positive")
    if tables is None:
        tables = MODEL_TABLES
    if tables.shape[1:] != nu.joint.shape:
        raise ValueError(f"model tables of shape {tables.shape} do not fit the table")
    mask = nu.joint > 0.0
    a_m = (nu.mu * tables ** (1.0 + beta))[:, mask]
    nu_m = nu.joint[mask]
    if np.any(a_m.max(axis=0) <= 0.0):
        raise ValueError("an observed outcome is outside the model polytope")

    f_raw, gap = _max_log_factor(a_m, nu_m)
    if gap > _TOL:
        warnings.warn(
            f"polytope optimizer stopped at duality gap {gap:.3g}",
            RuntimeWarning,
        )
    f_opt = f_raw / float((a_m @ f_raw).max())
    f_one = np.full(nu_m.size, 1.0 / max(1.0, float(a_m.sum(axis=1).max())))
    log_opt = float(nu_m @ np.log(f_opt))
    log_one = float(nu_m @ np.log(f_one))
    f_m, log_f = (f_opt, log_opt) if log_opt - log_one > gap else (f_one, log_one)
    f = np.zeros(nu.joint.shape)
    f[mask] = f_m
    values = {(c, z): float(f[c, z]) for c, z in np.ndindex(f.shape)}
    return TrialFunction(values, beta, role="pef"), log_f / beta
