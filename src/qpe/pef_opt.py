"""Probability estimation factors for two-station trials.

A probability estimation factor constrains outcome probabilities directly:
``sum_cz mu(z) nu(c|z)**alpha F(cz) <= 1`` must hold for every distribution
the model admits.  Here the model is a polytope whose vertices are
conditional tables ``t[c, z]``: by default ``MODEL_TABLES``, the 16 local
deterministic tables and the 64 points where the quantum correlation bounds
cut the no-signaling polytope.  Each table is one linear constraint row, so
optimizing the log-factor rate is a finite convex program, solved by
primal-dual interior-point Newton steps that stop on a closed-form duality
gap.  :func:`optimize_pef_grid` solves the programs of many tables and
powers in lockstep, and :func:`optimize_pef_polytope` is its batch of one.
The factor's supremum over quantum models is bracketed by
:func:`qpe.qef_engine.certify_fmax`.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from typing import Sequence

import numpy as np

from .models import _LD_STACK, TrialDistribution, correlators
from .qef_engine import TrialFunction


def local_deterministic_vertices() -> tuple[TrialDistribution, ...]:
    """The 16 local deterministic tables, uniform inputs."""
    return tuple(TrialDistribution(2, 2, 0.25 * t) for t in _LD_STACK)


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
    cells = sorted(F.values.items())  # the view once: it is built on each read
    mu = 1.0 / len({z for (_, z), _ in cells})
    alpha = F.alpha
    worst = -math.inf
    for t in MODEL_TABLES:
        total = sum(
            mu * float(t[c, z]) ** alpha * v for (c, z), v in cells
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


def _max_log_factor(a: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximize ``sum nu log x`` subject to ``a x <= 1`` by primal-dual Newton steps.

    ``a`` is a ``(B, m, n)`` stack of programs and ``nu`` their ``(B, n)``
    weights.  The running programs are one stack, compacted when some stop,
    and stacked ``matmul``, ``solve`` and reductions act slice by slice, so
    each program's iterates are those of a solve of it alone.

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
    ``sum y - 1 + log max(a x)``.  A program stops once that gap is at most
    ``_TOL``, or when roundoff leaves its Newton system singular, and returns
    the unscaled dual point with the smallest gap, and that gap.
    """
    b, m, n = a.shape
    a_t, nu = a.transpose(0, 2, 1), nu[:, :, None]
    # Program ``row[j]`` is held as the column ``z[j] = (x, r, y)``, and its
    # smallest gap so far is ``low[j]``, at the dual point ``top[j]``.
    x = np.repeat(0.5 / a.sum(axis=2).max(axis=1), n).reshape(b, n, 1)
    z = np.concatenate([x, 1.0 - a @ x, np.full((b, m, 1), 1.0 / m)], axis=1)
    row, low, top = np.arange(b), [math.inf] * b, x
    best, best_gap = np.empty((b, n)), np.empty(b)
    for it in range(_MAX_ITERS):
        x, r, y = z[:, :n], z[:, n : n + m], z[:, n + m :]
        s = a_t @ y
        dual = nu / s
        peak = (a @ dual).max(axis=1).ravel().tolist()
        gap = [t - 1.0 + math.log(p) for t, p in zip(y.sum(axis=1).ravel().tolist(), peak)]
        better = [g < g_low for g, g_low in zip(gap, low)]
        if all(better):
            low, top = gap, dual
        else:
            low = [g if up else g_low for g, g_low, up in zip(gap, low, better)]
            top = np.where(np.array(better)[:, None, None], dual, top)
        # A NaN gap marks a program whose Newton system was singular.
        if it == _MAX_ITERS - 1 or not all(g > _TOL for g in gap):
            stop = ~(np.array(gap) > _TOL) | (it == _MAX_ITERS - 1)
            best[row[stop]], best_gap[row[stop]] = top[stop, :, 0], np.array(low)[stop]
            if stop.all():
                break
            row, a, nu, z, s, top = (v[~stop] for v in (row, a, nu, z, s, top))
            low, a_t = np.array(low)[~stop].tolist(), a.transpose(0, 2, 1)
            x, r, y = z[:, :n], z[:, n : n + m], z[:, n + m :]
        target = _SIGMA * (y.transpose(0, 2, 1) @ r) / m
        w, t_r = y / r, target / r
        k = (a_t * w.transpose(0, 2, 1)) @ a
        k.reshape(-1, n * n, 1)[:, :: n + 1] += s / x
        rhs = nu / x - a_t @ t_r
        try:
            dx = np.linalg.solve(k, rhs)
        except np.linalg.LinAlgError:
            # Solve the slices one at a time, and step the singular ones to NaN.
            dx = np.full_like(x, math.nan)
            for j in range(row.size):
                with contextlib.suppress(np.linalg.LinAlgError):
                    dx[j] = np.linalg.solve(k[j], rhs[j])
        dr = -(a @ dx)
        dz = np.concatenate([dx, dr, t_r - y - w * dr], axis=1)
        ratio = np.divide(-z, dz, out=np.full_like(z, math.inf), where=dz < 0.0)
        step = [min(1.0, _TO_BOUNDARY * v) for v in ratio.min(axis=1).ravel().tolist()]
        z = z + np.array(step)[:, None, None] * dz
    return best, best_gap


def optimize_pef_grid(
    nus: Sequence[TrialDistribution],
    betas: Sequence[float],
    tables: np.ndarray | None = None,
) -> list[list[tuple[TrialFunction, float]]]:
    """:func:`optimize_pef_polytope` for every table and power, as
    ``[[(F, rate) for beta in betas] for nu in nus]``.  Every power and table
    is checked before any solve, and the programs of tables that observe the
    same cells are solved in one lockstep run."""
    for beta in betas:
        if not (math.isfinite(beta) and beta > 0.0):
            raise ValueError(f"the power must be finite and positive, not {beta!r}")
    tables = MODEL_TABLES if tables is None else tables
    powered = [tables ** (1.0 + beta) for beta in betas]
    groups: dict[bytes, list] = {}
    for i, nu in enumerate(nus):
        if tables.shape[1:] != nu.joint.shape:
            raise ValueError(f"model tables of shape {tables.shape} do not fit the table")
        mask = nu.joint > 0.0
        if not (tables.max(axis=0)[mask] > 0.0).all():
            raise ValueError("an observed outcome is outside the model polytope")
        for j, t in enumerate(powered):
            groups.setdefault(mask.tobytes(), []).append(
                (i, j, mask, (nu.mu * t)[:, mask], nu.joint[mask])
            )
    out: list[list] = [[None] * len(betas) for _ in nus]
    for progs in groups.values():
        # Masking leaves each ``a_m`` column-major, and ``np.stack`` keeps
        # that layout, so BLAS is called as for a program alone.
        duals, gaps = _max_log_factor(
            np.stack([p[3] for p in progs]), np.array([p[4] for p in progs])
        )
        for (i, j, mask, a_m, nu_m), f_raw, gap in zip(progs, duals, gaps.tolist()):
            if gap > _TOL:
                warnings.warn(
                    f"polytope optimizer stopped at duality gap {gap:.3g}", RuntimeWarning
                )
            f_opt = f_raw / float((a_m @ f_raw).max())
            f_one = np.full(nu_m.size, 1.0 / max(1.0, float(a_m.sum(axis=1).max())))
            log_opt = float(nu_m @ np.log(f_opt))
            log_one = float(nu_m @ np.log(f_one))
            f_m, log_f = (f_opt, log_opt) if log_opt - log_one > gap else (f_one, log_one)
            f = np.zeros(mask.shape)
            f[mask] = f_m
            out[i][j] = (TrialFunction(f, betas[j], "pef"), log_f / betas[j])
    return out


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
    the factor and its rate in nats per trial: :func:`optimize_pef_grid`'s.
    """
    return optimize_pef_grid([nu], [beta], tables)[0][0]
