"""Probability estimation factors for two-station trials.

A probability estimation factor constrains outcome probabilities directly:
``sum_cz mu(z) nu(c|z)**alpha F(cz) <= 1`` must hold for every distribution
the model admits.  Here the model is a polytope of conditional tables
(local-deterministic vertices, optionally tightened toward the quantum set),
so optimizing the log-factor rate is a finite convex program, solved in its
dual by exponentiated gradient steps.

Soundness against the full quantum set is restored by a branch-and-bound
certificate over real pure states and measurement angles: spherical facets
bound the state dependence through their corner cones, and the interval
bound from the factor engine handles the angle dependence.
"""

from __future__ import annotations

import heapq
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .models import BellConfig, TrialDistribution
from .qef_engine import (
    NUMERIC_SLACK,
    CertificationResult,
    Region,
    TrialFunction,
    _bit_tuples,
    _config_for,
    _reduce_box,
    _weights_and_vectors,
)
from .quantum_core import HermitianOperator, RenyiOrder

# Cones whose minimum pairwise overlap falls below this margin give no bound.
CONE_MARGIN = 1e-9


def local_deterministic_vertices() -> tuple[TrialDistribution, ...]:
    """The 16 local deterministic tables, uniform inputs."""
    strategies = (lambda x: 0, lambda x: 1, lambda x: x, lambda x: 1 - x)
    out = []
    for ia, fa in enumerate(strategies):
        for ib, fb in enumerate(strategies):
            probs = {}
            for z in range(4):
                x, y = z & 1, (z >> 1) & 1
                hit = fa(x) + 2 * fb(y)
                for c in range(4):
                    probs[(c, z)] = 0.25 if c == hit else 0.0
            out.append(
                TrialDistribution(2, 2, probs, provenance=f"ld {ia}{ib}")
            )
    return tuple(out)


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


# -- certification against quantum models ------------------------------------


@dataclass(frozen=True)
class FacetCone:
    """Finitely many unit vectors whose cone covers a patch of pure states."""

    vertices: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        arr = np.asarray(self.vertices, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 2:
            raise ValueError("a cone needs at least two vectors")
        norms = np.linalg.norm(arr, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("cone vertices must be unit vectors")

    @property
    def min_overlap(self) -> float:
        arr = np.asarray(self.vertices, dtype=float)
        return float((arr @ arr.T).min())

    @property
    def epsilon(self) -> float:
        return 1.0 - self.min_overlap

    def is_valid(self, margin: float = CONE_MARGIN) -> bool:
        return self.min_overlap > margin


def cone_witness_state(
    facet: FacetCone, weights: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Dominating state for a cone member: ``sum_i l_i x_i x_i^T / (x_i . y)``.

    With ``y`` the normalized weighted combination, the returned operator
    dominates ``y y^T`` and has trace at most ``1/(1 - epsilon)``; it is the
    object behind the facet bound.
    """
    lam = np.asarray(weights, dtype=float)
    if np.any(lam < 0.0) or lam.sum() <= 0.0:
        raise ValueError("weights must be nonnegative with positive sum")
    xs = np.asarray(facet.vertices, dtype=float)
    if lam.shape != (xs.shape[0],):
        raise ValueError("one weight per cone vertex is required")
    y_raw = lam @ xs
    norm = float(np.linalg.norm(y_raw))
    if norm <= 0.0:
        raise ValueError("weighted combination vanishes")
    y = y_raw / norm
    lam = lam / norm
    rho = np.zeros((xs.shape[1], xs.shape[1]))
    for li, x in zip(lam, xs):
        if li > 0.0:
            rho += li * np.outer(x, x) / float(x @ y)
    return rho, y


def facet_bound(
    F: TrialFunction,
    theta: Sequence[float],
    facet: FacetCone,
    input_dist: Sequence[float] | None = None,
) -> float:
    """Upper bound on the pure-state functional over a facet's cone.

    Evaluates ``sum_cz mu(z) F(cz) (v_cz . x)**(2 alpha)`` at the cone's
    vertices and inflates by ``(1 - epsilon)**(-alpha)``; an invalid cone
    (nonpositive overlaps) yields an infinite bound.
    """
    mo = facet.min_overlap
    if mo <= CONE_MARGIN:
        return math.inf
    w, v = _weights_and_vectors(F, _config_for(theta, input_dist))
    xs = np.asarray(facet.vertices, dtype=float)
    vals = w @ ((v @ xs.T) ** 2) ** F.alpha
    return float(vals.max()) * mo ** (-F.alpha)


def _phi_vector(p1: float, p2: float, p3: float) -> np.ndarray:
    s1, c1 = math.sin(p1), math.cos(p1)
    return np.array(
        [
            s1 * math.sin(p2),
            s1 * math.cos(p2),
            c1 * math.sin(p3),
            c1 * math.cos(p3),
        ]
    )


def certify_pef_fmax(
    F: TrialFunction,
    config: BellConfig,
    gap_target: float,
    budget: int = 40000,
    grid_m: int = 3,
    keep_regions: bool = False,
) -> CertificationResult:
    """Certified bracket on the factor's supremum over quantum models.

    Real pure states of two qubits are parametrized on the unit sphere by
    ``x = sin(p1) (sin p2, cos p2, 0, 0) + cos(p1) (0, 0, sin p3, cos p3)``
    with ``p1 in [0, pi/2]``, ``p2 in [0, pi]``, ``p3 in [0, 2 pi]`` (complex
    states and mixtures never exceed real pure ones here), and station angles
    range over ``[0, pi]**2``.  Each five-dimensional cell is bounded by the
    facet-cone bound at its state corners combined with the angle interval
    bound; cells bisect along the single axis whose slack contribution
    dominates.  The returned upper bound is sound regardless of budget; the
    flag records whether the target gap was met.

    A cell's parametrized patch can leave its corner cone near edges, but
    never by more than ``delta = (1 - cos(W/2)) / (2 cos(W/2))`` with ``W``
    the larger of the ``p2`` and ``p3`` widths: splitting the corner mixture
    between the two blocks handles ``p1`` exactly and leaves only the
    block-shrink mismatch.  The cone bound is therefore enlarged through
    ``x x^T <= (1+delta)^3 rho' + (1+1/delta) delta^2 I``, which adds a
    uniform-state term and vanishes quadratically under refinement.
    """
    if config.k != 2:
        raise ValueError("pef certification handles two stations")
    if gap_target <= 0.0:
        raise ValueError("gap target must be positive")
    alpha = F.alpha
    order = RenyiOrder(alpha)
    m = int(grid_m)
    if m < 1:
        raise ValueError("grid_m must be at least 1")
    step = Fraction(1, 2 * m)
    pi = math.pi

    x_cache: dict[tuple[Fraction, ...], np.ndarray] = {}
    wv_cache: dict[tuple[Fraction, ...], tuple[np.ndarray, np.ndarray]] = {}
    q_cache: dict[tuple, float] = {}
    f_lower = -math.inf
    witness: tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None = None

    def x_of(pk: tuple[Fraction, ...]) -> np.ndarray:
        got = x_cache.get(pk)
        if got is None:
            got = _phi_vector(*(float(f) * pi for f in pk))
            x_cache[pk] = got
        return got

    def wv_of(tk: tuple[Fraction, ...]):
        got = wv_cache.get(tk)
        if got is None:
            cfg = BellConfig(
                2, tuple(float(f) * pi for f in tk), config.input_dist
            )
            got = _weights_and_vectors(F, cfg)
            wv_cache[tk] = got
        return got

    def q_of(pk: tuple[Fraction, ...], tk: tuple[Fraction, ...]) -> float:
        nonlocal f_lower, witness
        key = (pk, tk)
        got = q_cache.get(key)
        if got is None:
            w, v = wv_of(tk)
            t = (v @ x_of(pk)) ** 2
            got = float(w @ t**alpha)
            q_cache[key] = got
            if got > f_lower:
                f_lower, witness = got, (tk, pk)
        return got

    # Bulk-evaluate the full initial grid, one matrix product per angle pair.
    phi_grid = [
        (Fraction(i, 2 * m), Fraction(j, 2 * m), Fraction(l, 2 * m))
        for i in range(m + 1)
        for j in range(2 * m + 1)
        for l in range(4 * m + 1)
    ]
    theta_grid = [
        (Fraction(i, 2 * m), Fraction(j, 2 * m))
        for i in range(2 * m + 1)
        for j in range(2 * m + 1)
    ]
    x_all = np.stack([x_of(pk) for pk in phi_grid])
    for tk in theta_grid:
        w, v = wv_of(tk)
        vals = w @ ((v @ x_all.T) ** 2) ** alpha
        best = int(np.argmax(vals))
        for pk, val in zip(phi_grid, vals):
            q_cache[(pk, tk)] = float(val)
        if vals[best] > f_lower:
            f_lower, witness = float(vals[best]), (tk, phi_grid[best])

    pbits = _bit_tuples(3)
    tbits = _bit_tuples(2)
    # The uniform-state term of the enlarged bound; weights are angle-free.
    w0, _ = wv_of(theta_grid[0])
    q_unif = float(w0.sum()) * 4.0 ** (-alpha)

    def evaluate(plo, pw, tlo, tw, cap):
        pkeys = [
            tuple(plo[a] + b[a] * pw[a] for a in range(3)) for b in pbits
        ]
        xs = np.stack([x_of(pk) for pk in pkeys])
        mo = float((xs @ xs.T).min())
        corners: dict[tuple[int, ...], float] = {}
        if mo <= CONE_MARGIN:
            return math.inf, ("p", int(np.argmax([float(w) for w in pw]))), corners
        cm = math.cos(float(max(pw[1], pw[2])) * pi / 2.0)
        delta = (1.0 - cm) / (2.0 * cm)
        inflate = (1.0 + delta) ** 3 / mo
        extra = 4.0 * delta * (1.0 + delta)
        scale = (inflate + extra) ** (alpha - 1.0)
        fb = {}
        q_max = 0.0
        for tb in tbits:
            tk = tuple(tlo[a] + tb[a] * tw[a] for a in range(2))
            qs = [q_of(pk, tk) for pk in pkeys]
            for pb, qv in zip(pbits, qs):
                corners[tb + pb] = qv
            top = max(qs)
            q_max = max(q_max, top)
            fb[tb] = scale * (inflate * top + extra * q_unif)
        widths = [float(tw[0]) * pi, float(tw[1]) * pi]
        ub = min(_reduce_box(fb, widths, order), cap)
        cone_slack = max(fb.values()) - q_max
        theta_slack = ub - max(fb.values())
        if cone_slack >= theta_slack:
            # Ties favor the block angles, which also shrink the bulge term.
            axis = max(range(3), key=lambda a: (pw[a], a != 0))
            kind = ("p", axis)
        else:
            kind = ("t", 0 if tw[0] >= tw[1] else 1)
        return ub, kind, corners

    heap: list = []
    counter = itertools.count()
    regions: list[Region] = []
    pruned_cap = 0.0
    created = 0
    gap_flag = False

    def record(plo, pw, tlo, tw, corners, ub):
        cuboid = tuple(
            (float(plo[a]) * pi, float(plo[a] + pw[a]) * pi) for a in range(3)
        ) + tuple(
            (float(tlo[a]) * pi, float(tlo[a] + tw[a]) * pi) for a in range(2)
        )
        regions.append(Region(cuboid, corners, ub))

    def push(plo, pw, tlo, tw, cap):
        nonlocal pruned_cap, created
        ub, kind, corners = evaluate(plo, pw, tlo, tw, cap)
        created += 1
        if ub <= f_lower + gap_target:
            pruned_cap = max(pruned_cap, ub)
            if keep_regions:
                record(plo, pw, tlo, tw, corners, ub)
            return
        heapq.heappush(
            heap, (-ub, next(counter), plo, pw, tlo, tw, kind)
        )

    unit = (step, step, step)
    for i in range(m):
        for j in range(2 * m):
            for l in range(4 * m):
                plo = (step * i, step * j, step * l)
                for a in range(2 * m):
                    for b in range(2 * m):
                        push(plo, unit, (step * a, step * b), unit[:2], math.inf)

    top_ub = 0.0
    while heap:
        neg, _, plo, pw, tlo, tw, kind = heapq.heappop(heap)
        ub = -neg
        if ub <= f_lower + gap_target:
            pruned_cap = max(pruned_cap, ub)
            break
        if created + 2 > budget:
            gap_flag = True
            top_ub = ub
            if keep_regions:
                record(plo, pw, tlo, tw, {}, ub)
            break
        group, axis = kind
        if group == "p":
            half = pw[axis] / 2
            pw2 = pw[:axis] + (half,) + pw[axis + 1 :]
            for side in range(2):
                child = tuple(
                    plo[a] + (half if side and a == axis else 0)
                    for a in range(3)
                )
                push(child, pw2, tlo, tw, ub)
        else:
            half = tw[axis] / 2
            tw2 = tw[:axis] + (half,) + tw[axis + 1 :]
            for side in range(2):
                child = tuple(
                    tlo[a] + (half if side and a == axis else 0)
                    for a in range(2)
                )
                push(plo, pw, child, tw2, ub)

    if keep_regions:
        for neg, _, plo, pw, tlo, tw, _kind in heap:
            record(plo, pw, tlo, tw, {}, -neg)
    f_upper = max(f_lower, pruned_cap, top_ub) + NUMERIC_SLACK

    tk, pk = witness
    x = x_of(pk)
    return CertificationResult(
        beta=F.beta,
        f_lower=f_lower,
        f_upper=f_upper,
        witness_theta=tuple(float(f) * pi for f in tk),
        witness_tau=HermitianOperator(np.outer(x, x)),
        regions_explored=created,
        gap_flag=gap_flag,
        regions=tuple(regions) if keep_regions else None,
        gap_target=gap_target,
    )
