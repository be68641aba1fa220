"""Finite-data accounting: from accumulated log factors to min-entropy bits.

Converts a protocol's accumulated log estimation factor into a smooth
min-entropy certificate, provides the closed-form minimum trial counts for
factor-based and reference entropy-accumulation analyses, and generates the
rate-versus-log-error curves used to compare the two.

The paper's certificates may also assume a lower bound kappa on the
probability that the run is accepted, at a cost of ``log(kappa)`` terms.
Here every certificate, trial count and protocol threshold is at
``kappa = 1``, where those terms vanish, so no kappa is carried.

Rates and penalties are in nats unless a name says bits.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

# Called as module attributes, so that wrappers installed on those modules
# (perfbench's spans) see the family calls made here.
from . import models, pef_opt
from .estimators import _second_order_sum

_LOG2 = math.log(2.0)
_LOG2_E = 1.0 / _LOG2


@dataclass(frozen=True)
class ErrorBudget:
    """Target error ``epsilon`` of the run, at acceptance bound ``kappa = 1``."""

    epsilon: float

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")


@dataclass(frozen=True)
class EntropyCertificate:
    """Smooth min-entropy statement extracted from an accumulated factor."""

    bits: float
    smoothness: float
    delta: float
    beta: float


def _log2_offset(epsilon: float) -> float:
    """The threshold offset ``-log2(epsilon**2 / 2)`` in bits."""
    return -math.log2(epsilon**2 / 2.0)


def minentropy_bound(
    log_qef: float, beta: float, budget: ErrorBudget
) -> EntropyCertificate:
    """Certificate from an accumulated log factor (nats).

    The conditional probability of the outcome sequence exceeds ``p`` with
    probability at most ``delta = epsilon**2 / 2``, where ``-log2(p) =
    (log2_qef - offset) / beta`` with ``offset = -log2(delta)``.  Smoothing
    at ``sqrt(2 delta) = epsilon`` turns this into that many min-entropy
    bits.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    log2_qef = log_qef * _LOG2_E
    delta = budget.epsilon**2 / 2.0
    return EntropyCertificate(
        bits=(log2_qef - _log2_offset(budget.epsilon)) / beta,
        smoothness=math.sqrt(2.0 * delta),
        delta=delta,
        beta=beta,
    )


def n_min_qef(g_bits: float, beta: float, budget: ErrorBudget) -> float:
    """Trials needed before the factor-based certificate goes positive."""
    if g_bits <= 0.0 or beta <= 0.0:
        raise ValueError("rate and power must be positive")
    return _log2_offset(budget.epsilon) / (g_bits * beta)


def n_min_eat_from_ee(
    g_bits: float, k_inf_bits: float, n_outcomes: int, budget: ErrorBudget
) -> float:
    """Trials needed by the reference accumulation analysis.

    Uses the published second-order constant with the estimator's range
    ceiling ``k_inf_bits`` (bits per trial).
    """
    if g_bits <= 0.0:
        raise ValueError("rate must be positive")
    width = math.log2(1.0 + 2.0 * n_outcomes) + math.ceil(k_inf_bits)
    off = 1.0 - 2.0 * math.log2(budget.epsilon)
    return 4.0 / g_bits**2 * width**2 * off


def eat_reference_bound(
    h_nats: float,
    k_inf_bits: float,
    n_outcomes: int,
    n: int,
    budget: ErrorBudget,
) -> float:
    """Reference accumulation bound (nats) after ``n`` trials at rate ``h_nats``."""
    big_l = _log2_offset(budget.epsilon) * _LOG2
    width = math.log(1.0 + 2.0 * n_outcomes) + math.ceil(k_inf_bits)
    return h_nats * n - 2.0 * math.sqrt(_LOG2_E) * width * math.sqrt(big_l) * math.sqrt(n)


def c_tilde(beta: float, n_outcomes: int, k_inf: float) -> float:
    """Worst-case second-order constant given only a range bound ``k_inf`` (nats)."""
    if not (0.0 <= beta < 1.0):
        raise ValueError("beta must lie in [0, 1)")
    return _second_order_sum(math.log(n_outcomes) + k_inf, k_inf, beta) / 3.0


# The largest power ``eat_from_qef_bound`` may choose.
_BETA_MAX = 0.4999


def eat_from_qef_bound(
    h_nats: float,
    tilde_c: Callable[[float], float],
    n: int,
    budget: ErrorBudget,
) -> float:
    """Accumulation-style bound (nats) derived from the factor machinery.

    Optimizes the power at ``beta = sqrt(2 L / (n c(0)))`` and evaluates the
    second-order constant there; the choice must stay below ``_BETA_MAX``.
    """
    big_l = _log2_offset(budget.epsilon) * _LOG2
    beta_bar = math.sqrt(2.0 * big_l / (n * tilde_c(0.0)))
    if beta_bar > _BETA_MAX:
        raise ValueError(
            f"optimal power {beta_bar:.4f} exceeds {_BETA_MAX}; need more trials"
        )
    penalty = math.sqrt(2.0) * math.sqrt(tilde_c(beta_bar)) * math.sqrt(big_l) * math.sqrt(n)
    return h_nats * n - penalty


# -- rate/penalty curves ------------------------------------------------------


def qef_penalty(r: float, n_outcomes: int, k_inf: float) -> float:
    """Factor-based per-trial penalty (nats) at log-error ratio ``r = L/n``.

    Chooses the power ``sqrt(2 r / c(0))`` and pays ``sqrt(2 c(beta) r)``;
    defined only while that power stays below 1.
    """
    c0 = c_tilde(0.0, n_outcomes, k_inf)
    beta_bar = math.sqrt(2.0 * r / c0)
    if beta_bar >= 1.0:
        raise ValueError("log-error ratio too large for the factor analysis")
    return math.sqrt(2.0 * c_tilde(beta_bar, n_outcomes, k_inf) * r)


def r_max_eat(h_nats: float, n_outcomes: int, k_inf: float) -> float:
    """Largest ``L/n`` with a nonnegative reference bound at rate ``h_nats``."""
    width = math.log(1.0 + 2.0 * n_outcomes) + k_inf
    return h_nats**2 / (4.0 * _LOG2_E * width**2)


def r_max_qef(h_nats: float, n_outcomes: int, k_inf: float) -> float:
    """Largest ``L/n`` with a nonnegative factor-based bound at rate ``h_nats``.

    The ratio at which :func:`qef_penalty` reaches ``h_nats``.  The penalty
    rises from 0 to infinity over ``(0, c(0)/2)``, so the root exists; its
    log is bisected there, and 64 halvings find it to float resolution at
    any scale.
    """
    if h_nats <= 0.0:
        raise ValueError("rate must be positive")
    lo = math.log(1e-300)
    hi = math.log(c_tilde(0.0, n_outcomes, k_inf) / 2.0 * (1.0 - 1e-12))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if qef_penalty(math.exp(mid), n_outcomes, k_inf) < h_nats:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


# Rate grid of the comparison curves: from 0.01 nats in steps of 0.05.
_H_START = 0.01
_H_STEP = 0.05


def write_rmax_csv(path: str, n_outcomes: int, k_inf: float) -> int:
    """Write ``h_nats,r_eat,r_qef`` rows for rates up to ``log(n_outcomes)``."""
    h_max = math.log(n_outcomes)
    rows = []
    h = _H_START
    while h <= h_max + 1e-12:
        rows.append(
            (
                h,
                r_max_eat(h, n_outcomes, k_inf),
                r_max_qef(h, n_outcomes, k_inf),
            )
        )
        h += _H_STEP
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h_nats", "r_eat", "r_qef"])
        for h, r_e, r_q in rows:
            writer.writerow([f"{h:.6f}", f"{r_e:.12g}", f"{r_q:.12g}"])
    return len(rows)


# -- minimum-trials comparison across a model family --------------------------


@dataclass(frozen=True)
class MinTrialsRow:
    """One family point: best factor-based count against the reference."""

    param: float
    i_hat: float
    beta: float
    g_bits: float
    n_qef: float
    n_eat: float

    @property
    def ratio(self) -> float:
        return self.n_eat / self.n_qef


def min_trials_row(
    nu,
    param: float,
    beta_grid: Sequence[float],
    budget: ErrorBudget,
) -> MinTrialsRow:
    """Optimize the factor power over a grid and compare trial counts.

    The power with the fewest factor-based trials wins.  A count is
    proportional to ``1 / (beta rate)``, and the optimizer certifies
    ``beta rate`` to within its duality gap ``pef_opt._TOL``, so a power
    whose count is within a relative ``_TOL / (beta rate)`` of the fewest is
    tied, as when the rate is exactly inverse in the power.  The rule holds
    only where the optimizer raised no gap ``RuntimeWarning``: a warned gap
    exceeds ``_TOL``, and the choice among the powers is then not certified.
    The tie goes to the smallest reference count, so the comparison is made
    against the stronger reference.  The reference count reuses each
    power's optimal factor's estimator, whose range ceiling is
    ``max |log2 F| / beta``.  The powers' programs are solved in one
    :func:`pef_opt.optimize_pef_grid` call, as in :func:`min_trials_table`.
    """
    factors = pef_opt.optimize_pef_grid([nu], beta_grid)[0]
    return _best_row(nu, param, beta_grid, factors, budget)


def _best_row(nu, param, beta_grid, factors, budget) -> MinTrialsRow:
    """:func:`min_trials_row` from each power's ``(F, rate)``."""
    i_hat = models.chsh_value(nu)
    rows = []
    for beta, (F, rate) in zip(beta_grid, factors):
        if rate <= 0.0:
            continue
        zero = next((key for key, v in F.values.items() if v == 0.0), None)
        if zero is not None:
            raise ValueError(
                f"the power {beta:g} factor is 0 at cell {zero}, so the reference "
                "count has no finite range ceiling"
            )
        g_bits = rate * _LOG2_E
        k_inf_bits = F.max_abs_log() * _LOG2_E / beta
        n_outcomes = len({k[0] for k in F.keys()})
        rows.append(
            MinTrialsRow(
                param=param,
                i_hat=i_hat,
                beta=beta,
                g_bits=g_bits,
                n_qef=n_min_qef(g_bits, beta, budget),
                n_eat=n_min_eat_from_ee(g_bits, k_inf_bits, n_outcomes, budget),
            )
        )
    if not rows:
        raise ValueError("no positive rate on the power grid")
    n_best = min(row.n_qef for row in rows)
    tied = [
        row for row in rows
        if row.n_qef * (1.0 - pef_opt._TOL / (row.beta * row.g_bits * _LOG2)) <= n_best
    ]
    return min(tied, key=lambda row: row.n_eat)


def min_trials_table(
    family: str,
    params: Iterable[float],
    beta_grid: Sequence[float],
    budget: ErrorBudget,
) -> list[MinTrialsRow]:
    """:func:`min_trials_row` at each family point, with all their programs
    solved in one :func:`pef_opt.optimize_pef_grid` call.  A point the model
    cannot reach, with no positive rate, or with a factor of positive rate
    that is 0 on some cell (its reference count is unbounded), is skipped
    with a warning."""
    points, rows = [], []
    for param in params:
        nu = models.family_distribution(family, param)
        try:  # A grid of no powers checks the table against the model.
            pef_opt.optimize_pef_grid([nu], [])
        except ValueError as exc:
            warnings.warn(f"{family} param {param:g} skipped: {exc}", RuntimeWarning)
        else:
            points.append((param, nu))
    grid = pef_opt.optimize_pef_grid([nu for _, nu in points], beta_grid)
    for (param, nu), factors in zip(points, grid):
        try:
            rows.append(_best_row(nu, param, beta_grid, factors, budget))
        except ValueError as exc:
            warnings.warn(f"{family} param {param:g} skipped: {exc}", RuntimeWarning)
    return rows


def write_mintrials_csv(path: str, rows: Sequence[MinTrialsRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family_param", "I_hat", "n_qef", "n_eat_F", "ratio"])
        for row in rows:
            writer.writerow(
                [
                    f"{row.param:.6f}",
                    f"{row.i_hat:.6f}",
                    f"{row.n_qef:.6g}",
                    f"{row.n_eat:.6g}",
                    f"{row.ratio:.6g}",
                ]
            )
