"""Entropy estimators and the probability estimation factors built from them.

An entropy estimator assigns to each outcome/input pair a real value whose
expectation lower-bounds conditional entropy against the model.  This module
converts estimation factors to estimators, builds the second-order constant
that turns an estimator back into a probability estimation factor at small
powers, builds estimators from guessing-probability tables (one formula
serves a plain table and the rescaled table of a spot-check scheme), and
gives the optimal factor of the two-outcome constrained model.  Each
conversion is an expression over its input's ``table``, cell by cell
through ``math.log`` or ``math.exp`` where it takes one.

Everything is in nats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .qef_engine import TrialFunction

_IOTA0_CACHE: list[float] = []


def iota0() -> float:
    """The positive root of ``2 coth(x) = x`` (about 2.0653), cached.

    Newton's method from ``x = 2``: the function is decreasing and convex,
    so the iterates rise monotonically to the root, and three steps leave a
    residual of one rounding error.
    """
    if not _IOTA0_CACHE:
        x = 2.0
        for _ in range(3):
            x += (2.0 / math.tanh(x) - x) / (2.0 / math.sinh(x) ** 2 + 1.0)
        _IOTA0_CACHE.append(x)
    return _IOTA0_CACHE[0]


def _bracket(w: float) -> float:
    """``max(iota0, w)``: the floor under which the weight bound saturates."""
    return max(iota0(), w)


def _A(w: float) -> float:
    """``W (W + 2 coth W)`` at ``W = max(iota0, w)``."""
    ww = _bracket(w)
    return ww * (ww + 2.0 / math.tanh(ww))


def ee_from_qef(F: TrialFunction) -> TrialFunction:
    """Entropy estimator ``K = log(F) / beta`` from an estimation factor.

    Zero values map to ``-inf`` (the estimator claims nothing there) with a
    warning, since downstream constructions may not accept them.
    """
    if F.beta is None:
        raise ValueError("an estimation factor with a power is required")
    for cell in np.argwhere(F.table <= 0.0).tolist():
        if F.table[tuple(cell)] < 0.0:
            raise ValueError(f"negative value at {tuple(cell)}")
        warnings.warn(f"zero estimation-factor value at {tuple(cell)}", RuntimeWarning)
    # ``math.log`` per cell (NumPy's can differ in the last bit); NaN stays NaN.
    logs = [-math.inf if v == 0.0 else math.log(v) / F.beta for v in F.table.ravel().tolist()]
    return TrialFunction(np.reshape(logs, F.table.shape), None, role="ee")


@dataclass(frozen=True)
class QefpConstant:
    """Second-order constant ``c`` for a Petz-type factor ``e^{beta K}/(1 + c beta^2/2)``."""

    beta: float
    c_value: float


def _second_order_sum(spread: float, k_max: float, beta: float) -> float:
    """``2 A(w0) + exp(k_max beta) / (1 - beta)**2 A(wb)``, three times a
    second-order constant, at ``w0 = spread + log 2`` and
    ``wb = (1 - beta) spread + log 2``."""
    log2_ = math.log(2.0)
    return 2.0 * _A(spread + log2_) + math.exp(k_max * beta) / (1.0 - beta) ** 2 * _A(
        (1.0 - beta) * spread + log2_
    )


def _headline_c(K: TrialFunction, nu_z: Mapping[int, float], beta: float, n: int) -> float:
    log_n = math.log(n)
    total = 0.0
    for z, weight in nu_z.items():
        ks = K.table[:, z].tolist()
        spread = max(max(log_n - k, k) for k in ks)
        total += weight * _second_order_sum(spread, max(ks), beta)
    return total / 3.0


def _w_gamma(a: float, gamma: float, n: int) -> float:
    """Log of the larger root of ``x + 1/x = exp(l(a))`` (tight weight bound)."""
    n_pow = n ** (1.0 - 2.0 * gamma) if gamma <= 0.5 else 1.0
    el = n_pow * math.exp(-(1.0 - gamma) * a) + math.exp((1.0 - gamma) * a)
    root = (el + math.sqrt(max(el * el - 4.0, 0.0))) / 2.0
    return math.log(root)


def _lambda0(a: float, gamma: float, n: int) -> float:
    w = _bracket(_w_gamma(a, gamma, n))
    return max(0.0, w * (w - 2.0 / math.tanh(w))) / (1.0 - gamma) ** 2


def _lambda1(a: float, gamma: float, n: int) -> float:
    w = _bracket(_w_gamma(a, gamma, n))
    return w / math.sinh(w) / (1.0 - gamma) ** 2


def _tight_c(K: TrialFunction, nu_z: Mapping[int, float], beta: float, n: int) -> float:
    total = 0.0
    for z, weight in nu_z.items():
        ks = K.table[:, z].tolist()
        if any(not math.isfinite(k) for k in ks):
            raise ValueError("tight mode requires finite estimator values")
        k_min, k_max = min(ks), max(ks)
        k_bar = sum(ks) / n
        lo = _lambda1(k_min, 0.0, n) * math.exp(-k_min)
        if k_max - k_min > 1e-12:
            hi = _lambda1(k_max, 0.0, n) * math.exp(-k_max)
            t1 = lo + (k_bar - k_min) / (k_max - k_min) * (hi - lo)
        else:
            t1 = lo
        t1 *= 2.0 * n / 3.0
        ends = (k_min, k_max)
        t2 = max(
            n ** (1.0 - 2.0 * beta)
            * _lambda1(a, beta, n)
            * math.exp(-a * (1.0 - 2.0 * beta))
            for a in ends
        ) / 3.0
        t3 = max(
            2.0 * _lambda0(a, 0.0, n)
            + _lambda0(a, beta, n) * math.exp(a * beta)
            + (2.0 * _lambda1(a, 0.0, n) + _lambda1(a, beta, n)) * math.exp(a)
            for a in ends
        ) / 3.0
        total += weight * (t1 + t2 + t3)
    return total


def qefp_constant(
    K: TrialFunction,
    nu_z: Mapping[int, float],
    beta: float,
    mode: str = "headline",
) -> QefpConstant:
    """Second-order constant for the estimator-to-factor conversion.

    Parameters
    ----------
    K : TrialFunction
        Entropy estimator keyed by ``(c, z)``.
    nu_z : mapping
        Input distribution; keys must match the estimator's inputs.
    beta : float
        Target power in ``(0, 1/2)``.
    mode : {"headline", "tight"}
        The headline constant uses one outcome-independent weight bound per
        input; the tight variant splits the kernel into its three parts and
        optimizes each over the estimator's per-input range.
    """
    if not (0.0 < beta < 0.5):
        raise ValueError("the conversion needs beta in (0, 1/2)")
    if K.table.ndim != 2 or np.isnan(K.table).any():
        raise ValueError("the estimator needs a value at every (c, z) cell")
    n, n_z = K.table.shape
    if sorted(nu_z) != list(range(n_z)):
        raise ValueError("input distribution keys must match the estimator")
    total_w = sum(nu_z.values())
    if abs(total_w - 1.0) > 1e-9 or any(w < 0.0 for w in nu_z.values()):
        raise ValueError("input distribution must be a probability vector")
    if mode == "headline":
        c = _headline_c(K, nu_z, beta, n)
    elif mode == "tight":
        c = _tight_c(K, nu_z, beta, n)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return QefpConstant(beta=beta, c_value=c)


def qefp_from_constant(K: TrialFunction, const: QefpConstant) -> TrialFunction:
    """The Petz-type factor ``e^{beta K} / (1 + c beta^2 / 2)``."""
    beta, ks = const.beta, K.table.ravel().tolist()
    denom = 1.0 + const.c_value * beta * beta / 2.0
    # ``math.exp`` per cell (NumPy's can differ in the last bit); NaN stays NaN.
    vals = [0.0 if k == -math.inf else math.exp(beta * k) / denom for k in ks]
    return TrialFunction(np.reshape(vals, K.table.shape), beta, role="qefp")


# -- estimators from guessing probabilities ----------------------------------


def ee_from_maxprob(
    B: TrialFunction, b_bar: float, conditional: bool = True
) -> TrialFunction:
    """Estimator ``K = -log(b_bar) + 1 - B/b_bar`` from a guessing table.

    ``B`` reports (rescaled) maximum guessing probabilities and ``b_bar``
    the model bound on its expectation, so the estimator's expectation is
    ``-log(b_bar)`` whenever the expectation of ``B`` meets the bound.  With
    ``conditional`` set, entries are checked to be probabilities; without
    it any real entry is taken, as in the rescaled spot-check table.
    """
    if not (0.0 < b_bar <= 1.0):
        raise ValueError("the expectation bound must lie in (0, 1]")
    outside = np.argwhere((B.table < 0.0) | (B.table > 1.0 + 1e-12)) if conditional else ()
    if len(outside):
        b, cell = B.table[tuple(outside[0])], tuple(outside[0].tolist())
        raise ValueError(f"conditional guessing probability {b} outside [0, 1] at {cell}")
    return TrialFunction(-math.log(b_bar) + 1.0 - B.table / b_bar, None, role="ee")


@dataclass(frozen=True, eq=False)
class SpotCheckScheme:
    """Spot-check extension of a guessing table over inputs ``(z, t)``.

    ``t = 1`` marks a test trial (probability ``r``, input uniform over the
    original range); ``t = 0`` pins the input to ``z0``.  The rescaled table
    ``B_r`` keeps the expectation of the original, and ``K_r`` is the matching
    estimator.
    """

    r: float
    b_bar: float
    mu: Mapping[tuple[int, int], float]
    B_r: TrialFunction
    K_r: TrialFunction

    def input_entropy(self) -> float:
        """Shannon entropy (nats) of the ``(z, t)`` input distribution."""
        return -sum(p * math.log(p) for p in self.mu.values() if p > 0.0)


def spot_check_scheme(
    B: TrialFunction, r: float, z0: int, b_bar: float
) -> SpotCheckScheme:
    """Build the spot-check scheme at test rate ``r`` around table ``B``."""
    if not (0.0 < r <= 1.0):
        raise ValueError("test rate must lie in (0, 1]")
    zs = range(B.table.shape[1])
    if z0 not in zs:
        raise ValueError(f"spot-check input {z0} not in the input range")
    q = 1.0 / len(zs)
    mu = {}
    for z in zs:
        mu[(z, 1)] = r * q
        mu[(z, 0)] = (1.0 - r) if z == z0 else 0.0
    # B_r(c, z, 0) = 1 and B_r(c, z, 1) = 1 + (B - 1)/r on B's domain.
    tests = 1.0 + (B.table - 1.0) / r
    table = np.stack([np.where(np.isnan(tests), np.nan, 1.0), tests], axis=-1)
    b_r = TrialFunction(table, None, "maxprob")
    k_r = ee_from_maxprob(b_r, b_bar, conditional=False)
    return SpotCheckScheme(r=r, b_bar=b_bar, mu=mu, B_r=b_r, K_r=k_r)


@dataclass(frozen=True)
class ExpansionRate:
    """Certified net-rate ingredients for a spot-check scheme."""

    beta: float
    d: float
    d_prime: float
    g_lower: float


def expansion_rate(scheme: SpotCheckScheme, beta: float) -> ExpansionRate:
    """Entropy-rate lower bound ``-log(b_bar) - d' beta / r`` for small powers.

    ``d`` caps the admissible power (``beta <= d r`` is required) and ``d'``
    is the second-order penalty constant; both depend only on the original
    table's spread.
    """
    b_bar, r = scheme.b_bar, scheme.r
    tests = scheme.B_r.table[..., 1]
    n_outcomes = tests.shape[0]
    # B_r(c, z, 1) = 1 + (B - 1)/r, so the original entry is 1 + (B_r - 1) r.
    spread = max(
        -math.log(b_bar) + 1.0 + (abs(1.0 + (b - 1.0) * r) + 1.0) / b_bar
        for b in tests[~np.isnan(tests)].tolist()
    )
    d = 1.0 / (2.0 * spread)
    if not (0.0 < beta <= d * r):
        raise ValueError(f"power must lie in (0, d*r] = (0, {d * r:.3e}]")
    d_prime = (
        10.0
        * (1.0 / (2.0 * d) + math.log(2.0 * n_outcomes) + 2.0 * iota0()) ** 2
        / 3.0
    )
    g_lower = -math.log(b_bar) - d_prime * beta / r
    return ExpansionRate(beta=beta, d=d, d_prime=d_prime, g_lower=g_lower)


# -- the two-outcome constrained model ---------------------------------------


@dataclass(frozen=True)
class BinaryModel:
    """Optimal estimation factor for the model ``{nu : nu(1) <= p}``, and its rate."""

    F: TrialFunction
    rate: float


def binary_model(p: float, q: float, beta: float) -> BinaryModel:
    """Best factor for a two-outcome model with a capped success probability.

    The model admits all distributions with ``nu(1) <= p``; the evaluation
    distribution has ``nu(1) = q <= p``.  The optimal factor has
    ``F(0) = 1`` and ``F(1) = (1 - (1-p)^alpha) / p^alpha`` (both model
    vertices are tight), giving rate
    ``(q / beta) log((1 - (1-p)^(1+beta)) / p^(1+beta))`` nats per trial,
    which converges to ``(q/p) H(p)`` as the power vanishes.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("the cap must lie in (0, 1)")
    if not (0.0 < q <= p):
        raise ValueError("the evaluation probability must lie in (0, p]")
    if not (beta > 0.0):
        raise ValueError("the power must be positive")
    alpha = 1.0 + beta
    f1 = (1.0 - (1.0 - p) ** alpha) / p**alpha
    F = TrialFunction({(0, 0): 1.0, (1, 0): f1}, beta, role="pef")
    rate = q * math.log(f1) / beta
    return BinaryModel(F=F, rate=rate)
