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
vertices together: one lockstep ascent advances every block problem of 2 to
4 dimensions, the 2-dim ones padded to 4, and the 8-dim blocks of three
stations get one of their own; :func:`inner_max_tau` is the same solver on a
batch of one.
The ascent holds only its running problems, as one contiguous stack that is
compacted on the steps where some problem stops, and it updates every
inverse Hessian of the stack in place with the rank-two form of the BFGS
update.
A sweep's cells are arrays, bounded along each axis by one call of
:func:`interval_bound`, whose interior maxima have a closed form.
The search runs over a fundamental domain of the factor's symmetries: the
station permutations and reflections ``theta_i -> pi - theta_i`` that a
relabeling of cells turns into a symmetry of the factor (:func:`_fold`).
It bounds the factor's largest value over each cell's orbit, which is
exactly symmetric and no smaller, and keeps only the cells that no map
fixing their parent sends to a lexicographically smaller sibling
(:func:`_kept`); the kept cells' images under the maps tile the cube.

All logs are natural except the record sums of :func:`chain`, in bits.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .models import BellConfig, json_cells, json_fields, povm_vectors
from .quantum_core import (
    CqDistribution,
    HermitianOperator,
    RenyiOrder,
    _renyi_on_support,
    renyi_power,  # noqa: F401  (perfbench's traced run wraps it here)
)

_ROLES = ("candidate", "qef", "qefp", "pef", "ee", "maxprob")
_NONNEG_ROLES = ("candidate", "qef", "qefp", "pef")
# Additive slack folded into certified suprema to cover float roundoff.
NUMERIC_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class TrialFunction:
    """A weight for each outcome/input cell of one trial, tagged with a power.

    ``table`` is its one stored form: a read-only array ``table[c, z]``, or
    ``table[c, z, t]`` with ``t`` marking a spot-check test round, NaN off
    the domain; only an entropy estimator may hold ``-inf``.  Every engine
    path reads it.  Producers in ``qpe`` pass the array; JSON and outside
    input pass a ``{key: weight}`` mapping, whose keys are tuples ``(c, z)``
    or ``(c, z, t)`` of nonnegative integers below 4 times the key count, as
    wide as the first key and spanning at most 4 cells a key (a ValueError
    names a key that breaks this rule).  :attr:`values` is the read-only mapping
    view.  ``beta`` is the power of the defining inequality, or ``None`` for
    roles without one (entropy estimators, guessing-probability tables).
    """

    table: np.ndarray | Mapping[tuple, float]
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
        # A power below the float resolution of 1 leaves no Renyi order alpha > 1.
        if self.beta is not None and not (
            math.isfinite(self.beta) and 1.0 + self.beta > 1.0
        ):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if isinstance(self.table, Mapping):
            if not self.table:
                raise ValueError("at least one key is required")
            cols = _key_columns(list(self.table))
            shape = [max(col) + 1 for col in cols]
            if math.prod(shape) > 4 * len(self.table):  # a full grid spans 1 cell a key
                n, size = len(self.table), math.prod(shape)
                raise ValueError(f"the {n} keys span a table of {size} cells, more than 4 a key")
            table = np.full(shape, np.nan)
            table[cols] = list(self.table.values())
            # NaN marks a cell off the domain, so it cannot stand for a value.
            if np.count_nonzero(table == table) < len(self.table):
                nan = next(key for key in zip(*cols) if math.isnan(table[key]))
                raise ValueError(f"non-finite value at {nan}")
        else:
            # A copy, C-ordered; a complex array raises TypeError.
            table = np.asarray(self.table).astype(float, order="C", casting="same_kind")
            on = table == table
            if 0 < np.count_nonzero(on) < table.size:
                # Each axis ends at its last index with a value, as a mapping's largest key ends it.
                table = table[tuple(slice(int(ix.max()) + 1) for ix in np.nonzero(on))].copy()
        # Entropy estimators may claim nothing (-inf) on an outcome.
        bad = table == math.inf if self.role == "ee" else np.isinf(table)
        if bad.any():
            raise ValueError(f"non-finite value at {tuple(np.argwhere(bad)[0].tolist())}")
        low = np.fmin.reduce(table, axis=None, initial=math.nan)
        if table.ndim not in (2, 3) or math.isnan(low):
            raise ValueError(f"a table of shape {table.shape} is not 2 or 3 axes with a value")
        if self.role in _NONNEG_ROLES and low < 0.0:
            raise ValueError(f"role {self.role!r} requires nonnegative values")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def values(self) -> Mapping[tuple, float]:
        """``{key: weight}`` on the domain in C order: the read-only view of ``table``."""
        on = ~np.isnan(self.table)
        return MappingProxyType(dict(zip(map(tuple, np.argwhere(on).tolist()), self.table[on].tolist())))

    @property
    def alpha(self) -> float:
        if self.beta is None:
            raise ValueError("this trial function carries no power")
        return 1.0 + self.beta

    @property
    def stations(self) -> int:
        """Station count ``k``: the factor's inputs, ``table.shape[1]``, number ``2**k``."""
        n_z = self.table.shape[1]
        k = max(1, (n_z - 1).bit_length())
        if 1 << k != n_z:
            raise ValueError("trial function inputs do not fill a power of two")
        return k

    def value(self, *key) -> float:
        """The weight at ``key``; a KeyError off the domain."""
        return self.values[key]

    def keys(self):
        return self.values.keys()

    def max_abs_log(self) -> float:
        """Largest ``|log value|``; infinite if any value is zero."""
        vals = self.table[~np.isnan(self.table)].tolist()
        if min(vals) <= 0.0:
            return math.inf
        return max(map(abs, map(math.log, vals)))

    def scaled(self, factor: float, role: str | None = None) -> "TrialFunction":
        table = self.table * factor
        lost = np.argwhere(np.isnan(table) & ~np.isnan(self.table))  # -inf x 0 is not off the domain
        if lost.size:
            raise ValueError(f"non-finite value at {tuple(lost[0].tolist())}")
        return TrialFunction(table, self.beta, self.role if role is None else role)

    def to_json(self) -> str:
        return json.dumps(
            {
                "beta": self.beta,
                "role": self.role,
                "domain": "cz" if self.table.ndim == 2 else "czt",
                "values": [[*k, v] for k, v in self.values.items()],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TrialFunction":
        data = json.loads(text)
        rows, beta = json_fields(data, "factor", "values", "beta")
        values = json_cells(rows, "factor")
        return cls(values, None if beta is None else float(beta), data.get("role", "candidate"))


def _key_columns(keys: list) -> tuple[tuple[int, ...], ...]:
    """The index columns of ``keys`` (the ``c``'s, the ``z``'s, any ``t``'s)
    under the key rule of ``TrialFunction``; a ValueError names the first key
    that breaks it.  An index at or past 4 times the key count would span
    more than 4 cells a key, so it is refused before any table is sized."""
    n = 4 * len(keys)
    uniform = set(map(type, keys)) == {tuple} and len(set(map(len, keys))) == 1
    cols = tuple(zip(*keys)) if uniform else ()
    flat = list(itertools.chain(*cols))
    if len(cols) in (2, 3) and set(map(type, flat)) == {int} and 0 <= min(flat) and max(flat) < n:
        return cols
    for key in keys:
        if not (isinstance(key, tuple) and len(key) in (2, 3) and all(
            isinstance(i, (int, np.integer)) and 0 <= i < n for i in key
        )):
            raise ValueError(f"key {key!r} is not a tuple of 2 or 3 nonnegative integers "
                             f"below {n}, 4 times the key count")
        if len(key) != len(keys[0]):
            raise ValueError(f"key {key!r} is not as wide as the first key {keys[0]!r}")
    return tuple(zip(*(map(int, key) for key in keys)))  # tuple subclasses, NumPy integers


def constant_one(c_bits: int, z_bits: int, beta: float) -> TrialFunction:
    """The all-ones quantum estimation factor on a packed ``(c, z)`` grid."""
    return TrialFunction(np.ones((1 << c_bits, 1 << z_bits)), beta, "qef")


# -- the defining inequality on explicit states -----------------------------


def qef_inequality_check(
    F: TrialFunction,
    rho: CqDistribution,
    kind: str = "sandwiched",
) -> float:
    """Slack ``tr rho - sum_cz F(cz) S_alpha(rho(cz) | rho(z))``.

    Nonnegative slack on every model state is the defining property of an
    estimation factor at power ``F.beta`` (sandwiched kind; the Petz kind
    with ``beta <= 1`` defines the stronger variant).  The powers are
    :func:`renyi_power` of the state's ``(n_z, n_c)`` block stack against
    its ``(n_z, 1)`` marginal stack, evaluated in one broadcast, so every
    block is checked, zero-weight blocks included.  They are taken from the
    support geometry that ``rho`` builds on its first check and keeps, so
    checks of one state at further orders and kinds decompose nothing but
    the sandwiched kind's ``r x r`` matrices, and nothing at all when every
    block has rank one, as a canonical state's do.  The weights are read from
    ``F.table``.  Every cell of ``rho`` must be in ``F``'s domain; a
    ValueError names the first one, ``z`` major, that is not.
    """
    order = RenyiOrder(F.alpha)
    weights, missing = _values_on(F, len(rho.z_range), len(rho.c_range))
    if missing is not None:
        raise ValueError(f"cell {missing} of the state is outside the factor's domain")
    powers = _renyi_on_support(rho._support(), order, kind, normalized=False)
    return rho.trace_total() - float((weights * powers).sum())


def _values_on(F: TrialFunction, n_z: int, n_c: int) -> tuple[np.ndarray | None, tuple | None]:
    """``(values, None)``: ``F(c, z)`` at ``[z, c]`` over ``range(n_c) x
    range(n_z)``, read from ``F.table``; or ``(None, cell)`` with the first
    cell of that range, ``z`` major, that ``F`` lacks (a ``(c, z, t)``
    factor lacks them all)."""
    block = F.table[:n_c, :n_z]
    if block.shape == (n_c, n_z) and not np.isnan(block).any():
        return block.T, None
    off = np.ones((n_z, n_c), dtype=bool)
    if F.table.ndim == 2:
        off[: block.shape[1], : block.shape[0]] = np.isnan(block.T)
    z, c = np.argwhere(off)[0].tolist()
    return None, (c, z)


def _as_records(records: ArrayLike) -> np.ndarray:
    """Records as an ``(n, 2)`` int64 array of ``(c, z)`` rows."""
    arr = np.asarray(records, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"records must be (c, z) pairs, got shape {arr.shape}")
    return arr


def chain(F: TrialFunction, records: ArrayLike) -> np.ndarray:
    """Running sums ``sum_{j <= i} log2 F(c_j, z_j)`` over a record stream.

    ``records`` holds ``(c, z)`` rows.  Every outcome must fit in the
    factor's ``F.stations`` bits and every cell must lie in its domain;
    otherwise a ValueError names the first bad record (1-based).  The sums
    are one ``cumsum`` over a table of ``log2 F``, which adds in record
    order exactly as a sequential loop does.  A zero value makes the sums
    ``-inf`` from its record on, with a warning.
    """
    records = _as_records(records)
    k = F.stations
    c, z = records[:, 0], records[:, 1]
    bad = np.flatnonzero((c < 0) | (c >= 1 << k))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"record {i + 1}: outcome {c[i]} does not fit in {k} bits")
    # log2 F at [c, z], by ``math.log2`` (NumPy's log2 can differ in the last bit): -inf
    # at zeros, NaN off the domain and in a last column for inputs clipped past n_z.
    table = np.full((1 << k, F.table.shape[1] + 1), np.nan)
    if F.table.ndim == 2:
        rows = F.table[: 1 << k].tolist()
        table[: len(rows), :-1] = [[-math.inf if v == 0 else math.log2(v) for v in r] for r in rows]
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
    # Python's ``**`` per cell (NumPy's can differ in the last bit); NaN stays NaN.
    powers = [v**gamma for v in F.table.ravel().tolist()]
    return TrialFunction(np.reshape(powers, F.table.shape), F.beta * gamma, F.role)


# -- canonical-state functional ---------------------------------------------


def _cell_values(F: TrialFunction, d: int) -> np.ndarray:
    """``F(c, z)`` over the full ``d x d`` grid, flat at ``z d + c``.

    A missing cell raises ValueError naming the first one, in that order.
    """
    values, missing = _values_on(F, d, d)
    if missing is not None:
        raise ValueError(f"trial function has no value at cell {missing}")
    return values.reshape(-1)


def _weights_and_vectors(F: TrialFunction, angles: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero weights ``F(cz) / 2**k`` (uniform inputs) and matching projector vectors.

    Rows run over ``z`` then ``c``.  ``angles`` is one configuration's
    station angles, or a stack of them along leading axes (see
    :func:`povm_vectors`); the weights are shared by the whole stack.
    """
    k = np.shape(angles)[-1]
    if k != F.stations:
        raise ValueError(f"{k} station angles for a trial function of {F.stations} stations")
    d = 1 << k
    w = _cell_values(F, d) / d
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
    w, V = _weights_and_vectors(F, config.angles)
    op = tau if isinstance(tau, HermitianOperator) else HermitianOperator(tau)
    if op.dim != config.dim:
        raise ValueError("state dimension must match the configuration")
    root = op.power(1.0 / F.alpha)
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
    lam = np.maximum(lam, 0.0)
    f = lam**p
    li, lj = lam[..., :, None], lam[..., None, :]
    diff = li - lj
    scale = np.maximum(lam.max(axis=-1, initial=0.0), 1e-300)
    close = np.abs(diff) <= 1e-9 * scale[..., None, None]
    mid = np.maximum((li + lj) / 2.0, 1e-300)
    # The derivative at the midpoint, overwritten by the quotient off ``close``.
    k = p * mid ** (p - 1.0)
    np.divide(f[..., :, None] - f[..., None, :], diff, out=k, where=~close)
    # A zero cluster has infinite derivative; those entries only multiply
    # kernel components, so cap them at a large finite value.
    return np.minimum(k, 1e300, out=k)


class _BlockProblem:
    """Maximize ``sum_i w_i (v_i^T tau^{1/alpha} v_i)^alpha`` over densities.

    ``V`` is ``(..., n, m)`` and ``w`` is ``(..., n)``: leading axes stack
    problems of one shape, and every method broadcasts over them, taking
    ``tau`` as ``(..., m, m)`` and giving one value per problem.  ``dim``
    holds each problem's own dimension, ``m`` unless :meth:`_pad` sets it.
    A problem of dimension ``d < m`` is padded: its ``V`` is zero past column
    ``d``, and :func:`_evaluate` keeps its iterate, floor and gradient on the
    top-left ``d x d`` corner, so it is solved as its ``d``-dimensional self
    up to roundoff.
    """

    def __init__(self, V: np.ndarray, w: np.ndarray, alpha: float):
        self.V = V
        self.w = w
        self.alpha = alpha
        self.m = V.shape[-1]
        self._pad(np.full(V.shape[:-2], self.m))

    def _pad(self, dim: np.ndarray) -> "_BlockProblem":
        """The stack, with each problem's own dimension set to ``dim``."""
        self.dim = dim
        # 1.0 on each problem's own coordinates and 0.0 on its padding.
        self.on = (np.arange(self.m) < dim[..., None]).astype(float)
        return self

    def __getitem__(self, idx) -> "_BlockProblem":
        """The problems ``idx`` of a stack."""
        return _BlockProblem(self.V[idx], self.w[idx], self.alpha)._pad(self.dim[idx])

    def _decompose(self, tau: np.ndarray):
        lam, U = np.linalg.eigh((tau + tau.swapaxes(-1, -2)) / 2.0)
        return np.maximum(lam, 0.0), U

    def value(self, tau: np.ndarray):
        lam, U = self._decompose(tau)
        return self._value_from(lam, U)[0]

    def _value_from(self, lam, U):
        root = (U * lam[..., None, :] ** (1.0 / self.alpha)) @ U.swapaxes(-1, -2)
        t = np.maximum(((self.V @ root) * self.V).sum(axis=-1), 0.0)
        return (self.w * t**self.alpha).sum(axis=-1), t

    def gradient(self, lam, U, t) -> np.ndarray:
        coeff = self.w * self.alpha * t ** (self.alpha - 1.0)
        M = (self.V * coeff[..., None]).swapaxes(-1, -2) @ self.V
        Ut = U.swapaxes(-1, -2)
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
    k = angles.shape[-1]
    # Row ``j`` holds the bits of basis index ``j``, station 0 leftmost; a
    # Kronecker product of z-basis and identity factors keeps the indices
    # whose commuting stations' bits are fixed, in increasing order.
    bits = np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1) & 1
    # Each configuration's commuting stations, as the bits of one code.
    codes = (np.abs(np.sin(angles)) <= _COMMUTING_SIN) @ (1 << np.arange(k - 1, -1, -1))
    eye, groups = np.eye(1 << k), []
    for code in np.unique(codes):
        commuting = bits[code] == 1
        block = bits[:, commuting] @ (1 << np.arange(commuting.sum() - 1, -1, -1))
        bases = [eye[:, block == i] for i in range(1 << commuting.sum())]
        groups.append((np.flatnonzero(codes == code), bases))
    return groups


# Weight of the maximally mixed state mixed into every solver iterate.
_FLOOR = 1e-13
# Cap on the certified pairs of one block solve.
_MAX_PAIRS = 10000
# The blocks of 2 to this many dimensions share one lockstep ascent, the
# smaller ones padded to the largest: a step's fixed cost outweighs its
# per-problem cost at these sizes.  Larger blocks, the k = 3 interiors, keep
# a stack per dimension.  Padded to 8 dimensions, with 64 x 64 inverse
# Hessians, a k = 3 certification took 60-66 % longer than unpadded; capped
# at 4, it takes as long as unpadded.
_PAD_DIM = 4


def _evaluate(prob: _BlockProblem, x: np.ndarray):
    """``(g, lambda_max(grad g(tau)), tau, d g / d A)`` at the flat iterate ``A``.

    ``tau = (1 - floor) A A^T / tr(A A^T) + floor I / d``: the identity floor
    keeps every ``t_i`` positive, so no projector drops out of the gradient
    and its top eigenvalue stays a sound bound.  ``x`` is ``(..., m * m)``,
    one iterate per problem of a stack.  A padded problem of dimension ``d``
    (see :class:`_BlockProblem`) has ``A`` zero off its top-left ``d x d``
    corner; its floor is that corner's ``I / d``, and ``grad g(tau)`` is
    masked to the corner, so ``d g / d A`` keeps ``A`` there.  The padding
    adds exact zero eigenvalues to ``tau``; as ``tau`` is exactly block
    diagonal, ``eigh`` gives them eigenvectors off the corner, and every
    product they enter is an exact zero.  On a full-size problem the masks
    multiply by 1.0 and the floor is ``I / m``, bit for bit as unmasked.
    """
    m = prob.m
    A = x.reshape(x.shape[:-1] + (m, m))
    tau = A @ A.swapaxes(-1, -2)
    # The diagonal of each flat ``m x m`` matrix, as a writable view.
    diag = tau.reshape(x.shape)[..., :: m + 1]
    s = diag.sum(axis=-1)[..., None, None]
    tau /= s
    tau *= 1.0 - _FLOOR
    diag += (_FLOOR / prob.dim)[..., None] * prob.on
    lam, U = prob._decompose(tau)
    g, t = prob._value_from(lam, U)
    G = prob.gradient(lam, U, t)
    G *= prob.on[..., :, None] * prob.on[..., None, :]
    # d g / d A = (2 (1 - floor) / s) (G A - <G, S / s> A), and by Euler's
    # identity <G, tau> = g gives <G, S / s> below.
    c = (g - _FLOOR * G.reshape(x.shape)[..., :: m + 1].sum(axis=-1) / prob.dim) / (1.0 - _FLOOR)
    GA = G @ A
    GA -= c[..., None, None] * A
    GA *= 2.0 * (1.0 - _FLOOR) / s
    return g, np.linalg.eigvalsh(G)[..., -1], tau, GA.reshape(x.shape)


def _maximize_block(
    prob: _BlockProblem,
    tol: float,
    max_iters: int,
    seed: int,
    keep_trace: bool,
):
    """BFGS ascents over ``A`` (see :func:`_evaluate`) that stop on their certified gaps.

    ``prob`` is a stack of problems of one shape, the smaller ones padded
    (see :class:`_BlockProblem`), and each is solved as if alone: the ascents
    run in lockstep, each step evaluating one trial point of every problem
    still running.  Every problem of dimension ``d`` starts from the same
    seeded ``d x d`` point, in its corner.  The running problems are held as
    one contiguous stack (iterates with their values, gaps and gradients,
    inverse Hessians, step sizes, best pairs and the problems' own rows),
    and every step updates all of it in place, masked row by row; the stack
    is compacted only on a step where some problem stops, when its results
    are written out.  A padded problem's steps stay in its corner, and it
    runs its native ascent to roundoff: its sums run over ``m * m`` entries
    and associate differently, so at a tolerance within roundoff of its
    gap it can stop a pair apart.

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
    ascent whenever its direction does not ascend.  Its BFGS update
    ``(I - r s y^T) H (I - r y s^T) + r s s^T``, with ``r = 1 / s^T y``, is
    applied in the equal rank-two form ``H + a s^T + s a^T``, where
    ``a = (c / 2) s - r H y`` and ``c = r (1 + r y^T H y)`` (see
    :func:`_bfgs_update`), on the rows that moved with ``s^T y > 0``.
    Steps are halved from 1 until the value passes the Armijo test, or the
    trial point's own gap ``lambda_max - g`` is below the current point's and
    its value is at most ``tol`` below it.  Near the optimum the gap shrinks
    linearly in the distance but the value only quadratically, so at tight
    tolerances values differ by roundoff alone; the gap test keeps the ascent
    moving there.  Without its value floor, a point with a smaller gap but a
    far lower value could be taken, and from such points the ascent can creep
    on for thousands of steps.

    Returns ``(value, tau, bound, converged, pairs, trace)`` indexed by
    problem; a padded problem's ``tau`` is zero off its corner, and
    ``trace`` lists each problem's ``(value, bound)`` pairs, or is None
    without ``keep_trace``.
    """
    b, m = prob.w.shape[0], prob.m
    if m == 1:
        tau = np.ones((b, 1, 1))
        val = prob.value(tau)
        trace = [((v, v),) for v in val.tolist()] if keep_trace else None
        return val, tau, val.copy(), np.ones(b, dtype=bool), np.ones(b, dtype=int), trace

    eye = np.eye(m * m)
    x = np.zeros((b, m, m))
    for d in np.unique(prob.dim).tolist():
        rng = np.random.default_rng(seed)
        x[prob.dim == d, :d, :d] = np.eye(d) + 0.05 * rng.standard_normal((d, d))
    x = x.reshape(b, -1)
    g, ub, tau, grad = _evaluate(prob, x)
    trace = [[pair] for pair in zip(g.tolist(), ub.tolist())] if keep_trace else None
    # Each problem's results, written when it stops.
    value, bound, best_tau = np.empty(b), np.empty(b), np.empty_like(tau)
    pairs = np.empty(b, dtype=int)
    # The running stack: row ``j`` is problem ``row[j]``, whose best value
    # and bound are ``val[j]`` and ``bnd[j]``, at the iterate ``x[j]`` of
    # value ``g[j]`` and gap ``gap[j]``.  Every running problem has ``n`` pairs.
    row, n = np.arange(b), 1
    val, bnd, gap = g.copy(), ub.copy(), ub - g
    H = eye / np.linalg.norm(grad, axis=-1)[:, None, None]
    rescale = np.ones(b, dtype=bool)
    step = np.ones(b)
    while True:
        stop = (bnd - val <= tol) | (n >= max_iters)
        if stop.any():
            done = row[stop]
            value[done], bound[done], best_tau[done] = val[stop], bnd[stop], tau[stop]
            pairs[done] = n
            if stop.all():
                break
            keep = ~stop
            prob = prob[keep]
            row, x, g, gap, grad, H, val, bnd, tau, rescale, step = (
                a[keep] for a in (row, x, g, gap, grad, H, val, bnd, tau, rescale, step)
            )
        # Aim along ``H grad``, resetting ``H`` where that does not ascend.
        d = (H @ grad[:, :, None])[:, :, 0]
        slope = (grad * d).sum(axis=-1)
        bad = ~(slope > 0.0)
        if bad.any():
            H[bad] = eye / np.linalg.norm(grad[bad], axis=-1)[:, None, None]
            d[bad] = (H[bad] @ grad[bad][:, :, None])[:, :, 0]
            slope[bad] = (grad[bad] * d[bad]).sum(axis=-1)

        x_new = x + step[:, None] * d
        g_new, ub_new, tau_new, grad_new = _evaluate(prob, x_new)
        n += 1
        up = g_new > val
        np.copyto(val, g_new, where=up)
        np.copyto(tau, tau_new, where=up[:, None, None])
        np.minimum(bnd, ub_new, out=bnd)
        if keep_trace:
            for i, pair in zip(row.tolist(), zip(g_new.tolist(), ub_new.tolist())):
                trace[i].append(pair)
        gap_new = ub_new - g_new
        moved = (g_new >= g + 1e-4 * step * slope) | ((gap_new < gap) & (g_new >= g - tol))
        step = np.where(moved, 1.0, 0.5 * step)
        s = x_new - x
        y = grad - grad_new
        sy = (s * y).sum(axis=-1)
        curved = moved & (sy > 0.0)
        first = curved & rescale
        if first.any():
            yy = (y[first] * y[first]).sum(axis=-1)
            H[first] = eye * sy[first, None, None] / yy[:, None, None]
            rescale &= ~first
        _bfgs_update(H, s, y, sy, curved)
        np.copyto(x, x_new, where=moved[:, None])
        np.copyto(grad, grad_new, where=moved[:, None])
        np.copyto(g, g_new, where=moved)
        np.copyto(gap, gap_new, where=moved)
    return (
        value,
        best_tau,
        bound,
        bound - value <= tol,
        pairs,
        [tuple(t) for t in trace] if keep_trace else None,
    )


def _bfgs_update(H: np.ndarray, s: np.ndarray, y: np.ndarray, sy: np.ndarray, mask: np.ndarray):
    """BFGS update, in place, of the inverse Hessians ``H[mask]``.

    ``s`` holds the steps and ``y`` the gradient changes, row by row, and
    ``sy`` holds ``s^T y``, positive on ``mask``.  The product form
    ``(I - r s y^T) H (I - r y s^T) + r s s^T``, with ``r = 1 / s^T y``,
    equals ``H + a s^T + s a^T`` for symmetric ``H``, where
    ``a = (c / 2) s - r H y`` and ``c = r (1 + r y^T H y)``.  It is applied
    as ``H + b u^T + u b^T``, with ``u = r s`` and
    ``b = a / r = ((s^T y + y^T H y) / 2) u - H y``: the same rank-two term,
    whose factors keep the scale of the update, where ``c`` alone overflows
    for steps below about 1e-150.  Rows off ``mask`` are left bit for bit as
    they are.
    """
    Hy = (H @ y[:, :, None])[:, :, 0]
    r = np.divide(1.0, sy, out=np.zeros_like(sy), where=mask)
    u = r[:, None] * s
    b = (0.5 * (sy + (y * Hy).sum(axis=-1)))[:, None] * u - Hy
    D = b[:, :, None] * u[:, None, :]
    np.add(H, D + D.swapaxes(-1, -2), out=H, where=mask[:, None, None])


def _solve_vertices(
    F: TrialFunction,
    angles: np.ndarray,
    tol: float,
    seed: int,
    keep_trace: bool,
):
    """Certified inner maxima at a ``(P, k)`` stack of station angles in (-pi, pi].

    Each configuration splits into the invariant blocks of
    :func:`_invariant_blocks`.  The supremum over block-diagonal states
    equals the best single block by homogeneity, so each block is solved
    separately and the largest certified bound over blocks bounds the
    supremum.  The blocks of 2 to ``_PAD_DIM`` dimensions, over the whole
    stack, are solved by one call of :func:`_maximize_block`, padded to the
    largest of them; the blocks of each other dimension by one call each.
    A solve takes at most ``_MAX_PAIRS`` pairs a block, and a block that no
    projector reaches is skipped (its functional is zero).

    Returns ``(value, tau, bound, converged, pairs, trace)`` indexed by
    configuration; ``pairs`` sums the certified pairs over blocks, and
    ``trace`` merges the blocks' traces in block order (None without
    ``keep_trace``).
    """
    w, V = _weights_and_vectors(F, angles)
    P, d = V.shape[0], V.shape[2]
    value, bound = np.full(P, -math.inf), np.full(P, -math.inf)
    tau = np.zeros((P, d, d))
    pairs = np.zeros(P, dtype=int)
    converged = np.ones(P, dtype=bool)
    traces = [[] for _ in range(P)] if keep_trace else None
    groups = _invariant_blocks(angles)
    # Every block of one configuration has the same dimension.  The blocks
    # of 2 to ``_PAD_DIM`` dimensions share one stack, padded to the widest
    # of them by zero columns of their bases; any other dimension has its own.
    dims = {basis.shape[1] for _, bases in groups for basis in bases}
    shared = max((m for m in dims if 1 < m <= _PAD_DIM), default=0)
    stacks: dict[int, list] = {}
    for rows, bases in groups:
        for basis in bases:
            m = basis.shape[1]
            if 1 < m < shared:
                basis = np.concatenate([basis, np.zeros((d, shared - m))], axis=1)
            Vb = V[rows] @ basis
            keep = (Vb * Vb).sum(axis=-1) > 1e-12
            live = keep.any(axis=1)
            Vb = np.where(keep[:, :, None], Vb, 0.0)
            stacks.setdefault(basis.shape[1], []).append((rows[live], Vb[live], basis, m))
    for parts in stacks.values():
        owner = np.concatenate([rows for rows, _, _, _ in parts])
        prob = _BlockProblem(
            np.concatenate([Vb for _, Vb, _, _ in parts]),
            np.broadcast_to(w, (owner.size, w.size)),
            F.alpha,
        )._pad(np.concatenate([np.full(rows.size, m) for rows, _, _, m in parts]))
        val, tau_b, ub, conv, n, tr = _maximize_block(prob, tol, _MAX_PAIRS, seed, keep_trace)
        np.maximum.at(bound, owner, ub)
        np.add.at(pairs, owner, n)
        np.logical_and.at(converged, owner, conv)
        j = 0
        for rows, _, basis, _ in parts:
            part = slice(j, j + rows.size)
            better = val[part] > value[rows]
            value[rows[better]] = val[part][better]
            tau[rows[better]] = basis @ tau_b[part][better] @ basis.T
            if keep_trace:
                for p, t in zip(rows.tolist(), tr[part]):
                    traces[p].extend(t)
            j += rows.size
    return value, tau, bound, converged, pairs, traces


def inner_max_tau(
    F: TrialFunction,
    theta: Sequence[float],
    tol: float = 1e-9,
    keep_trace: bool = False,
) -> InnerMaxResult:
    """Certified maximum of the canonical-state functional over densities.

    A batch of one for the solver of :func:`certify_fmax`: the algebra
    generated by the projectors is split into invariant blocks in closed
    form.  One configuration's blocks share a dimension, so they are solved
    in one stack, unpadded, by BFGS ascents that stop on their certified
    gaps (see :func:`_maximize_block`).  Each station angle in
    ``theta`` is read modulo ``2 pi``, and the inputs are uniform.

    Returns
    -------
    InnerMaxResult
        ``value <= sup <= upper_bound``; ``converged`` reports whether the
        requested gap was met within the iteration budget.  ``iterations``
        counts the certified ``(value, bound)`` pairs computed over all
        blocks, one per point the ascent evaluates; ``_MAX_PAIRS`` (10000)
        caps that count per block.
    """
    config = _config_for(theta)
    value, tau, bound, converged, pairs, traces = _solve_vertices(
        F, np.array([config.angles]), tol, 0, keep_trace
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


def interval_bound(f: ArrayLike, f_prime: ArrayLike, phi: ArrayLike, order: RenyiOrder):
    """Upper bound for the supremum over an angle interval of width ``phi``.

    Given sound values ``f`` and ``f_prime`` at the two endpoints, the
    supremum over the interval is at most the maximum of

    ``u(x) = (sin(phi-x) + sin x)^beta (sin(phi-x) f + sin x f') / sin(phi)^alpha``

    whose log is concave on ``(0, phi)``.  As ``sin(phi-x) + sin x <= 2 sin(phi/2) <= phi``,
    ``u <= sec(phi/2)^alpha max(f, f') <= (phi / sin phi)^alpha max(f, f')``, so no cap binds.
    Requires ``phi in (0, pi/2]`` and finite ``f, f' >= 0``; anything else raises ValueError.
    With ``t = tan(x - phi/2)``, ``(log u)' = 0`` is the quadratic
    ``beta a t^2 + b t - a = 0``, where ``a = cos(phi/2) (f' - f)`` and
    ``b = (1 + beta) sin(phi/2) (f' + f)``, so the maximum has a closed form:
    at the root ``2a / (b + sqrt(b^2 + 4 beta a^2))`` when that lies inside
    the interval, else at the nearer endpoint.  (At the other root,
    ``sin(phi-x) f + sin x f' < 0``.)  The arguments broadcast, and each
    interval is bounded independently; a float is returned for scalar
    arguments.
    """
    # Flat arrays, so that scalars take NumPy's array loops, not its scalar
    # ones, whose powers may round differently.
    shape = np.broadcast_shapes(np.shape(f), np.shape(f_prime), np.shape(phi))
    f, f_prime, phi = (np.broadcast_to(a, shape).ravel() for a in (f, f_prime, phi))
    if not np.all((0.0 < phi) & (phi <= math.pi / 2.0 + 1e-12)):
        raise ValueError("interval width must lie in (0, pi/2]")
    # A NaN endpoint fails every comparison, so it is rejected here; let
    # through, it would drop out of ``certify_fmax``'s maximum of the bounds.
    if not np.all((0.0 <= f) & (f < math.inf) & (0.0 <= f_prime) & (f_prime < math.inf)):
        raise ValueError("endpoint values must be finite and nonnegative")
    alpha, beta = order.alpha, order.beta
    top = np.maximum(f, f_prime)
    a = np.cos(phi / 2.0) * (f_prime - f)
    b = (1.0 + beta) * np.sin(phi / 2.0) * (f_prime + f)
    # Both values 0 make t = 0/0, and then the bound is f = 0.
    with np.errstate(invalid="ignore"):
        t = 2.0 * a / (b + np.hypot(b, 2.0 * math.sqrt(beta) * a))
    x = phi / 2.0 + np.arctan(t)
    s0, s1 = np.sin(phi - x), np.sin(x)
    peak = (s0 + s1) ** beta * (s0 * f + s1 * f_prime) / np.sin(phi) ** alpha
    # ``top`` guards the interior peak against rounding below an endpoint.
    bound = np.where(
        np.abs(t) < np.tan(phi / 2.0), np.maximum(peak, top), np.where(t > 0.0, f_prime, f)
    ).reshape(shape)
    return float(bound) if bound.ndim == 0 else bound


# -- symmetries of the angle cube --------------------------------------------

# An angle map ``(perm, reflect)`` sends ``theta`` to the angles whose
# station ``j`` is ``theta[perm[j]]``, reflected to ``pi - theta[perm[j]]``
# where ``reflect[j]``.
AngleMap = tuple[tuple[int, ...], tuple[bool, ...]]
# Station counts whose candidate tables are built: at ``k = 3`` a table has
# 48 * 64 * 64 entries, and at ``k = 4`` it would have 25 million.
_FOLD_MAX_K = 3


@functools.lru_cache(maxsize=None)
def _angle_maps(k: int):
    """The cube's ``k! 2**k`` angle maps and their cell relabelings.

    Returns ``(maps, table)``, read-only.  ``maps`` lists the angle maps, the
    identity first.  A cell ``(c, z)`` has the flat index ``z 2**k + c``, and
    ``F[table[g, t]]`` is the factor whose inner maximum at ``theta`` equals
    that of ``F`` at ``maps[g]`` applied to ``theta``, for each of the
    ``4**k`` relabelings ``t`` that fix every angle (``t`` packs ``t_z``
    above ``t_c``).  The relabeling first maps ``(c, z)`` to
    ``(c ^ t_c, z ^ t_z)``: flipping all of a station's outcomes, or
    swapping its settings, leaves the inner maximum as it is.  It then moves
    station ``perm[j]``'s bits of ``c`` and ``z`` to bit ``j``, and flips
    ``c_j`` where ``z_j = 1`` for each reflected station ``j``: setting 1 at
    ``pi - theta_j`` is setting 1 at ``theta_j`` with its outcomes swapped.
    """
    d = 1 << k
    z, c = np.divmod(np.arange(d * d), d)
    t_z, t_c = np.divmod(np.arange(d * d), d)
    z, c = z ^ t_z[:, None], c ^ t_c[:, None]
    weights = 1 << np.arange(k)
    maps, table = [], []
    for perm in itertools.permutations(range(k)):
        moved_z, moved_c = ((x[..., None] >> np.array(perm) & 1) @ weights for x in (z, c))
        for mask in range(d):
            maps.append((perm, tuple(bool(mask >> j & 1) for j in range(k))))
            table.append(moved_z * d + (moved_c ^ (moved_z & mask)))
    table = np.array(table)
    # Every caller shares the cached array.
    table.setflags(write=False)
    return tuple(maps), table


def _fold(F: TrialFunction, k: int) -> tuple[TrialFunction, list[AngleMap]]:
    """``(F~, maps)``: a factor at least ``F`` whose inner maximum the angle maps leave as is.

    An angle map is a symmetry when one of its relabelings moves no value of
    ``F`` by more than ``NUMERIC_SLACK``.  ``F~`` is the largest value of
    ``F`` over each cell's orbit under the chosen relabelings, so it is
    exactly invariant under them and ``F <= F~`` on every cell; it is ``F``
    itself when ``F`` is exactly invariant.  ``maps`` is ``F~``'s
    stabilizer, the identity first: every map with a relabeling that leaves
    ``F~`` exactly as it is.  That is a group, and it holds every map the
    found symmetries generate.
    """
    if k > _FOLD_MAX_K:
        return F, [(tuple(range(k)), (False,) * k)]
    maps, table = _angle_maps(k)
    d = 1 << k
    values = _cell_values(F, d)
    moved = np.abs(values[table] - values).max(axis=-1)
    pick = moved.argmin(axis=1)
    found = np.flatnonzero(moved[np.arange(len(maps)), pick] <= NUMERIC_SLACK)
    folded, relabel = values, table[found, pick[found]]
    while True:
        grown = np.maximum(folded, folded[relabel].max(axis=0))
        if np.array_equal(grown, folded):
            break
        folded = grown
    if folded is not values:
        F = TrialFunction(folded.reshape(d, d).T, F.beta, F.role)
    group = np.flatnonzero((folded[table] == folded).all(axis=-1).any(axis=1))
    return F, [maps[g] for g in group]


def _map_lows(lows: np.ndarray, side: np.ndarray, perm: np.ndarray, reflect: np.ndarray):
    """Low corners ``(m, n, k)`` of the boxes ``lows + [0, side]^k`` under ``m`` angle maps.

    The boxes lie in ``[0, 1]^k``, the angle cube in units of ``pi``.
    """
    moved = lows[:, perm].swapaxes(0, 1)
    return np.where(reflect[:, None, :], 1.0 - moved - side[None, :, None], moved)


def _kept(lows, side, parent_lows, parent_side, perm, reflect) -> np.ndarray:
    """Which cells of ``[0, 1]^k`` the folded search keeps.

    A cell is dropped exactly when a map (a row of ``perm`` and ``reflect``)
    that sends its parent onto itself sends the cell to one whose low corner
    is lexicographically smaller.  Then every dropped cell is the image of a
    kept sibling under a map of the group, and the kept cells' images tile
    the parent's.  Corners and sides are dyadic, so the comparisons are
    exact.
    """
    fixed = (_map_lows(parent_lows, parent_side, perm, reflect) == parent_lows).all(axis=-1)
    image = _map_lows(lows, side, perm, reflect)
    differs = image != lows
    # The first axis on which the image differs decides the order.
    first = differs.argmax(axis=-1)
    cell = np.arange(len(lows))
    smaller = differs.any(axis=-1) & (
        image[np.arange(len(perm))[:, None], cell, first] < lows[cell, first]
    )
    return ~(fixed & smaller).any(axis=0)


# -- certified supremum over configurations ----------------------------------


@dataclass(frozen=True, eq=False)
class CertificationResult:
    """Two-sided certificate for a supremum over configurations.

    ``f_lower`` is attained by the stored witness; ``f_upper`` bounds the
    supremum from above (with a small additive roundoff allowance) and
    ``gap_flag`` marks budget exhaustion before the target gap
    ``gap_target`` was met.

    ``symmetries`` lists the angle maps (see ``AngleMap``) under which the
    search folded the cube, the identity first: the group of maps that leave
    the folded factor exactly as it is (see :func:`_fold`).  It is the
    identity alone for a factor with no symmetry.  ``cells`` holds every
    bounded cell, in sweep order, as the arrays of its angle intervals
    ``(n, k, 2)`` in radians, its corner bounds ``(n, 2**k)`` (corner ``j``
    is high on axis ``a`` when bit ``a`` of ``j`` is set) and its bounds
    ``(n,)``.  The images of the unsplit cells under the maps of
    ``symmetries`` tile ``[0, pi]^k``, and the cells' largest bound gives
    ``f_upper``.  JSON does not store the cells, so they are None for a
    certificate read from JSON; every other field must be in the JSON.
    """

    beta: float
    f_lower: float
    f_upper: float
    witness_theta: tuple[float, ...]
    witness_tau: HermitianOperator
    regions_explored: int
    symmetries: tuple[AngleMap, ...]
    gap_flag: bool = False
    cells: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    gap_target: float | None = None

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
                "symmetries": [[list(perm), list(reflect)] for perm, reflect in self.symmetries],
                "gap_flag": self.gap_flag,
                "gap_target": self.gap_target,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CertificationResult":
        data = json.loads(text)
        flat = np.array([complex(re, im) for re, im in data["witness_tau"]])
        dim = round(math.isqrt(flat.size))
        symmetries, gap_flag, target = json_fields(
            data, "certificate", "symmetries", "gap_flag", "gap_target"
        )
        return cls(
            beta=float(data["beta"]),
            f_lower=float(data["f_lower"]),
            f_upper=float(data["f_upper"]),
            witness_theta=tuple(float(t) for t in data["witness_theta"]),
            witness_tau=HermitianOperator(flat.reshape(dim, dim)),
            regions_explored=int(data["regions"]),
            symmetries=tuple(
                (tuple(int(p) for p in perm), tuple(bool(r) for r in reflect))
                for perm, reflect in symmetries
            ),
            gap_flag=bool(gap_flag),
            gap_target=None if target is None else float(target),
        )


def certify_fmax(
    F: TrialFunction,
    config: BellConfig,
    gap_target: float,
    budget: int = 20000,
    workers: int = 1,
    seed: int = 0,
) -> CertificationResult:
    """Certify the supremum of the inner maximum over all station angles.

    Branch-and-bound over the angle cube ``[0, pi]^k`` in sweeps, starting
    from a uniform grid of ``4**k`` cubic cells.  Every cell vertex is solved
    to ``gap_target / 4`` (its certified upper bound is the sound vertex
    value), and a cell is bounded axis-by-axis with :func:`interval_bound`,
    capped by its parent's bound.  Each sweep splits every cell whose bound
    exceeds the best witness by more than ``gap_target`` in half along every
    axis, highest bound first, until the region budget runs out (then
    ``gap_flag`` is set; the bounds stay sound either way).  The sweep's new
    vertices are then solved together: every block of 2 to 4 dimensions,
    over all of them, advances in one lockstep ascent
    (:func:`_maximize_block`), the 2-dim ones padded to 4, and the blocks of
    each other dimension in one more; ``seed`` seeds the BFGS start.  A
    sweep's cells are held as arrays, and each axis of all of them is cut by
    one :func:`interval_bound` call.
    The search ends when no cell is left to split.  Every bounded cell is
    kept in ``cells``, about 72 bytes a cell at ``k = 2``.

    The search runs over a fundamental domain of the factor's symmetries
    (:func:`_fold`): the angle maps, station permutations times reflections
    ``theta_i -> pi - theta_i``, that some relabeling of cells turns into a
    symmetry of ``F`` to within ``NUMERIC_SLACK``.  It bounds ``F~``, the
    largest value of ``F`` over each cell's orbit under those relabelings,
    which is exactly symmetric; the functional is monotone in the factor,
    so ``F~``'s supremum bounds ``F``'s.  ``f_lower`` is ``F``'s own value
    at the witness.  The maps folded over are ``F~``'s stabilizer, every
    map that some relabeling turns into an exact symmetry of ``F~``, which
    is a group.  The initial grid counts as the children of the whole
    cube, and a new cell is dropped exactly when a map that sends its
    parent onto itself sends it to a sibling with a lexicographically
    smaller low corner (:func:`_kept`).  The images of the unsplit kept
    cells under the maps then tile the cube, so their largest bound is
    sound.  The budget counts kept cells.  A factor with no symmetry keeps
    every cell and is certified as it would be without the fold.

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
    if k != F.stations:
        raise ValueError(f"{k} station angles for a trial function of {F.stations} stations")
    order = RenyiOrder(F.alpha)
    folded, symmetries = _fold(F, k)
    perm = np.array([p for p, _ in symmetries[1:]], dtype=int).reshape(-1, k)
    reflect = np.array([r for _, r in symmetries[1:]], dtype=bool).reshape(-1, k)
    # Row ``i`` holds the bits of ``i``, axis 0 lowest: a unit cube's corners.
    bits = np.arange(1 << k)[:, None] >> np.arange(k) & 1
    # The cells to bound: lower corners, sides and their parents' bounds.
    # Corners and sides are dyadic fractions of pi, held as floats, in which
    # halving and adding them is exact.
    lows = np.array(list(np.ndindex(*([4] * k)))) / 4.0
    side = np.full(len(lows), 0.25)
    # The initial grid's parent is the whole cube.
    kept = _kept(lows, side, np.zeros_like(lows), np.ones(len(lows)), perm, reflect)
    lows, side = lows[kept], side[kept]
    cap = np.full(len(lows), math.inf)
    # The solved vertices, sorted, and their certified bounds.
    vertices, vertex_ub = np.empty((0, k)), np.empty(0)
    f_lower = -math.inf
    witness: tuple[tuple[float, ...], np.ndarray] | None = None
    created = len(lows)
    unsplit_ub = -math.inf
    gap_flag = False
    cells = []
    while len(lows):
        corners = (lows[:, None, :] + side[:, None, None] * bits).reshape(-1, k)
        points, index = np.unique(
            np.concatenate([vertices, corners]), axis=0, return_inverse=True
        )
        index = index.ravel()  # NumPy 2.0.0 returns it as a column.
        new = np.ones(len(points), dtype=bool)
        new[index[: len(vertices)]] = False
        thetas = points[new] * math.pi
        value, tau, bound, _, _, _ = _solve_vertices(
            folded, thetas, gap_target / 4.0, seed, False
        )
        best = int(np.argmax(value))
        if value[best] > f_lower:
            f_lower, witness = float(value[best]), (tuple(thetas[best].tolist()), tau[best])
        ub_at = np.empty(len(points))
        ub_at[~new], ub_at[new] = vertex_ub, bound
        ubs = ub_at[index[len(vertices):]].reshape(-1, 1 << k)
        vertices, vertex_ub = points, ub_at
        # Corner bounds as ``[bit k-1, ..., bit 0, cell]``: axis 0 is cut first.
        box = ubs.T.reshape((2,) * k + (-1,))
        for _ in range(k):
            box = interval_bound(box[..., 0, :], box[..., 1, :], side * math.pi, order)
        ub = np.minimum(box, cap)
        cells.append((np.stack([lows, lows + side[:, None]], axis=-1) * math.pi, ubs, ub))
        # Split the cells above the witness by more than the gap, highest
        # bound first, while the budget lasts.
        rank = np.argsort(-ub, kind="stable")
        rank = rank[ub[rank] > f_lower + gap_target]
        half = side[rank] / 2.0
        children = (lows[rank][:, None, :] + half[:, None, None] * bits).reshape(-1, k)
        parents = np.repeat(rank, 1 << k)
        kept = _kept(children, side[parents] / 2.0, lows[parents], side[parents], perm, reflect)
        # Split a prefix of the rank: the parents whose kept children fit.
        room = np.cumsum(kept.reshape(-1, 1 << k).sum(axis=1)) <= budget - created
        split = int(room.sum())
        gap_flag = gap_flag or split < len(rank)
        kept &= np.repeat(room, 1 << k)
        unsplit_ub = max(unsplit_ub, float(np.delete(ub, rank[:split]).max(initial=-math.inf)))
        lows, side, cap = children[kept], side[parents[kept]] / 2.0, ub[parents[kept]]
        created += len(lows)

    f_upper = max(f_lower, unsplit_ub) + NUMERIC_SLACK
    theta_star, tau_star = witness
    if folded is not F:
        f_lower = q_alpha(F, theta_star, tau_star)
    return CertificationResult(
        beta=F.beta,
        f_lower=f_lower,
        f_upper=f_upper,
        witness_theta=theta_star,
        witness_tau=HermitianOperator(tau_star),
        regions_explored=created,
        symmetries=tuple(symmetries),
        gap_flag=gap_flag,
        cells=tuple(np.concatenate(arrays) for arrays in zip(*cells)),
        gap_target=gap_target,
    )
