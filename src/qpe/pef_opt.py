"""Probability estimation factors for two-station trials.

A probability estimation factor constrains outcome probabilities directly:
``sum_cz mu(z) nu(c|z)**alpha F(cz) <= 1`` must hold for every distribution
the model admits.  Here the model is a polytope of conditional tables
(local-deterministic vertices, optionally tightened toward the quantum set),
so optimizing the log-factor rate is a finite convex program, solved by
primal-dual interior-point Newton steps that stop on a closed-form duality
gap.  The factor's supremum over quantum models is bracketed by
:func:`qpe.qef_engine.certify_fmax`.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Sequence

import numpy as np

from .models import _LD_STACK, TrialDistribution
from .qef_engine import TrialFunction


def local_deterministic_vertices() -> tuple[TrialDistribution, ...]:
    """The 16 local deterministic tables, uniform inputs."""
    return tuple(
        TrialDistribution(
            2,
            2,
            {(c, z): 0.25 * float(t[c, z]) for z in range(4) for c in range(4)},
            provenance=f"ld {i // 4}{i % 4}",
        )
        for i, t in enumerate(_LD_STACK)
    )


def pr_box_vertices() -> tuple[TrialDistribution, ...]:
    """The 8 nonlocal no-signaling vertices (uniform marginals)."""
    out = []
    for flags in range(8):
        ax, by, g = flags & 1, (flags >> 1) & 1, (flags >> 2) & 1
        probs = {}
        for z in range(4):
            x, y = z & 1, (z >> 1) & 1
            target = (x & y) ^ (ax & x) ^ (by & y) ^ g
            for c in range(4):
                a, b = c & 1, (c >> 1) & 1
                probs[(c, z)] = 0.125 if (a ^ b) == target else 0.0
        out.append(TrialDistribution(2, 2, probs, provenance=f"pr {flags}"))
    return tuple(out)


def chsh_variant_value(dist: TrialDistribution, signs: Sequence[int]) -> float:
    """Signed correlator sum ``sum_xy signs[x+2y] E(xy)`` of a two-station table."""
    total = 0.0
    for z in range(4):
        e = sum(
            (-1) ** ((c & 1) + ((c >> 1) & 1)) * dist.cond(c, z) for c in range(4)
        )
        total += signs[z] * e
    return total


def tsirelson_cut_vertices() -> tuple[TrialDistribution, ...]:
    """The 64 points where the quantum correlation bounds cut no-signaling edges.

    Each nonlocal vertex exceeds ``2 sqrt(2)`` on exactly one CHSH sign
    pattern, and the bounding plane for that pattern crosses the edges toward
    the eight deterministic tables on the same face at the mixture weight
    ``sqrt(2) - 1``.  Together with the deterministic tables, these mixtures
    are all the vertices of the no-signaling polytope restricted by the
    eight correlation bounds.
    """
    t = math.sqrt(2.0) - 1.0
    locals_ = local_deterministic_vertices()
    out = []
    for box in pr_box_vertices():
        signs = tuple(
            round(
                sum(
                    (-1) ** ((c & 1) + ((c >> 1) & 1)) * box.cond(c, z)
                    for c in range(4)
                )
            )
            for z in range(4)
        )
        for ld in locals_:
            if round(chsh_variant_value(ld, signs)) != 2:
                continue
            probs = {
                key: t * box.probs[key] + (1.0 - t) * ld.probs[key]
                for key in box.probs
            }
            out.append(
                TrialDistribution(
                    2, 2, probs, provenance=f"cut {box.provenance}|{ld.provenance}"
                )
            )
    return tuple(out)


@functools.cache
def default_model_vertices() -> tuple[TrialDistribution, ...]:
    """The 80 default vertices, built once: building them checks every
    table and takes about three quarters of an optimizer call."""
    return local_deterministic_vertices() + tsirelson_cut_vertices()


def pef_inequality_check(
    F: TrialFunction,
    vertices: Sequence[TrialDistribution] | None = None,
    input_dist: Sequence[float] | None = None,
) -> float:
    """Worst-case slack ``1 - sum_cz mu(z) nu(c|z)**alpha F(cz)`` over vertices."""
    if vertices is None:
        vertices = default_model_vertices()
    keys = sorted(F.keys())
    if input_dist is None:
        nz = len({z for _, z in keys})
        mu = {z: 1.0 / nz for _, z in keys}
    else:
        mu = {z: input_dist[z] for _, z in keys}
    alpha = F.alpha
    worst = -math.inf
    for v in vertices:
        total = sum(
            mu[z] * v.cond(c, z) ** alpha * F.value(c, z) for c, z in keys
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
    vertices: Sequence[TrialDistribution] | None = None,
) -> tuple[TrialFunction, float]:
    """Best polytope-sound factor at power ``beta`` for the observed table.

    Maximizes ``sum_cz nu(cz) log F(cz)`` subject to the vertex constraints
    with :func:`_max_log_factor`, a primal-dual interior-point method whose
    point is certified within a duality gap of ``_TOL``; the factor is
    rescaled onto the polytope's boundary, so it is always feasible.  The
    all-ones factor (scaled down if a vertex exceeds one on it) is returned
    instead unless the optimum beats it by more than the gap, so a table
    inside the polytope gets a rate of at most zero, not roundoff.  Returns
    the factor and its rate in nats per trial.
    """
    if beta <= 0.0:
        raise ValueError("the power must be positive")
    if vertices is None:
        vertices = default_model_vertices()
    alpha = 1.0 + beta
    keys = sorted(nu.probs)
    nu_vec = np.array([nu.probs[k] for k in keys])
    mu = nu.input_marginal()
    a_full = np.array(
        [[mu[z] * v.cond(c, z) ** alpha for c, z in keys] for v in vertices]
    )
    mask = nu_vec > 0.0
    a_m = a_full[:, mask]
    nu_m = nu_vec[mask]
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
    values = dict.fromkeys(keys, 0.0)
    for key, val in zip(np.array(keys)[mask], f_m):
        values[tuple(key)] = float(val)
    return TrialFunction(values, beta, role="pef"), log_f / beta
