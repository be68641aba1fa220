"""Probability estimation factors for two-station trials.

A probability estimation factor constrains outcome probabilities directly:
``sum_cz mu(z) nu(c|z)**alpha F(cz) <= 1`` must hold for every distribution
the model admits.  Here the model is a polytope of conditional tables
(local-deterministic vertices, optionally tightened toward the quantum set),
so optimizing the log-factor rate is a finite convex program, solved in its
dual by exponentiated gradient steps.  The factor's supremum over quantum
models is bracketed by :func:`qpe.qef_engine.certify_fmax`.
"""

from __future__ import annotations

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


def default_model_vertices() -> tuple[TrialDistribution, ...]:
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


def optimize_pef_polytope(
    nu: TrialDistribution,
    beta: float,
    vertices: Sequence[TrialDistribution] | None = None,
    tol: float = 1e-10,
    max_iters: int = 20000,
) -> tuple[TrialFunction, float]:
    """Best polytope-sound factor at power ``beta`` for the observed table.

    Maximizes ``sum_cz nu(cz) log F(cz)`` subject to the vertex constraints
    by minimizing the dual ``sum_v y_v - sum_cz nu(cz) log((A^T y)_cz)`` over
    nonnegative multipliers with multiplicative gradient steps; the primal
    iterate ``nu / (A^T y)`` is rescaled onto the polytope's boundary, so the
    returned factor is always feasible.  Returns the factor and its rate in
    nats per trial.
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

    y = np.full(len(vertices), 1.0 / len(vertices))
    s = a_m.T @ y
    d_val = float(y.sum() - nu_m @ np.log(s))
    lr = 0.5
    gap = math.inf
    for _ in range(max_iters):
        # Duality gap of the rescaled primal point, in closed form.
        h_max = float((a_m @ (nu_m / s)).max())
        gap = float(y.sum()) - 1.0 + math.log(h_max)
        if gap <= tol:
            break
        grad = 1.0 - a_m @ (nu_m / s)
        np.clip(grad, -50.0, 50.0, out=grad)
        for _ in range(60):
            y_new = y * np.exp(-lr * grad)
            s_new = a_m.T @ y_new
            if np.all(s_new > 0.0):
                d_new = float(y_new.sum() - nu_m @ np.log(s_new))
                if d_new < d_val:
                    y, s, d_val = y_new, s_new, d_new
                    lr *= 1.2
                    break
            lr *= 0.5
        else:
            break
    if gap > max(tol * 1e3, 1e-4):
        warnings.warn(
            f"polytope optimizer stopped at duality gap {gap:.3g}",
            RuntimeWarning,
        )

    f_raw = nu_m / s
    h_max = float((a_m @ f_raw).max())
    values = dict.fromkeys(keys, 0.0)
    for key, val in zip(np.array(keys)[mask], f_raw / h_max):
        values[tuple(key)] = float(val)
    rate = float(nu_m @ np.log(f_raw / h_max)) / beta
    return TrialFunction(values, beta, role="pef"), rate
