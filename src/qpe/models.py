"""(k,2,2) Bell-trial configurations, POVMs, canonical states, trial distributions.

Stations are binary-input binary-outcome.  In a configuration input 0
measures along z and input 1 in the xz-plane at a station angle ``phi``;
the reference families may turn setting 0 too.  Every projector is ``v
v^T`` for a real unit vector ``v``.  One table, :func:`_station_table`,
holds those vectors, and the detection-efficiency seed's observables are
built from it.  One builder, :func:`_product_vectors`, multiplies them
into the product vectors of the whole ``(c, z)`` grid (station 0 the
leftmost Kronecker factor); the certifier's projector rows, the canonical
blocks and the reference families' Born tables all read it, with detector
loss a binning of non-detections into outcome 1.  The
detection-efficiency family starts at the binned Bell operator's optimum
and is refined by a NumPy BFGS on the relative entropy to the local
polytope.  Outcome and input tuples pack into ints little-endian (bit ``i``
belongs to station ``i``).  A trial distribution is stored as its
``[c, z]`` array; its ``(c, z)`` dict is a read-only view of it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .quantum_core import CqDistribution, HermitianOperator, TOL_NORM

# Tolerance for the non-signaling checks on trial distributions.
TOL_NOSIG = 1e-10
# Tolerance on probability-table normalization.
TOL_PROB = 1e-12


def json_fields(data: Mapping, what: str, *names: str) -> list:
    """The named fields of a JSON object; a ValueError names any that are missing."""
    missing = [name for name in names if name not in data]
    if missing:
        raise ValueError(f"{what} JSON lacks {', '.join(missing)}")
    return [data[name] for name in names]


def json_cells(rows, what: str) -> dict:
    """``{(i, ...): value}`` from JSON rows ``[i, ..., value]``.

    The rows must be lists of numbers, each index an integer and each cell
    listed once; a ValueError names the first row that breaks a rule.
    """
    if not isinstance(rows, list):
        raise ValueError(f"{what} JSON cells must be a list of rows, got {rows!r}")
    table = {}
    for row in rows:
        # A JSON ``true`` is a bool, which Python counts as an int.
        if not (isinstance(row, list) and row and all(type(x) in (int, float) for x in row)):
            raise ValueError(f"{what} JSON row {row!r} is not a list of numbers")
        if not all(float(i).is_integer() for i in row[:-1]):
            raise ValueError(f"{what} JSON cell {row[:-1]} has an index that is not an integer")
        key = tuple(int(i) for i in row[:-1])
        if key in table:
            raise ValueError(f"{what} JSON lists cell {key} twice")
        table[key] = float(row[-1])
    return table


def bits_of(value: int, width: int) -> tuple[int, ...]:
    """Little-endian bit tuple of a nonnegative int."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return tuple((value >> i) & 1 for i in range(width))


def _station_table(angles: ArrayLike) -> np.ndarray:
    """``table[..., x, c, :]``: unit vector spanning outcome ``c`` of setting ``x``.

    ``angles[..., x]`` is setting ``x``'s measurement angle in the xz-plane:
    outcome 0 projects onto the +1 eigenvector of ``cos(a) Z + sin(a) X``,
    ``(cos(a/2), sin(a/2))``, and outcome 1 onto its orthogonal complement.
    Leading axes stack stations and configurations.
    """
    half = np.asarray(angles, dtype=float) / 2.0
    cos, sin = np.cos(half), np.sin(half)
    table = np.empty(half.shape + (2, 2))
    table[..., 0, 0], table[..., 0, 1] = cos, sin
    table[..., 1, 0], table[..., 1, 1] = -sin, cos
    return table


@dataclass(frozen=True)
class BellConfig:
    """A (k,2,2) measurement configuration with uniform inputs.

    ``angles[i]`` is station ``i``'s input-1 measurement angle; input 0 is
    fixed along z.  Each of the ``2**k`` packed inputs ``z`` has probability
    ``2**-k``.  Angles are held normalized to (-pi, pi] and anything else is
    rejected; the factor engine's entry points (``q_alpha``,
    ``inner_max_tau``) reduce raw angles modulo ``2 pi`` before building one.
    """

    angles: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.angles:
            raise ValueError("at least one station is required")
        for phi in self.angles:
            if not (-math.pi < phi <= math.pi):
                raise ValueError(f"station angle {phi} outside (-pi, pi]")

    @classmethod
    def uniform(cls, angles: Sequence[float]) -> "BellConfig":
        return cls(tuple(float(a) for a in angles))

    @property
    def k(self) -> int:
        return len(self.angles)

    @property
    def dim(self) -> int:
        return 1 << self.k


def _product_vectors(settings: ArrayLike) -> np.ndarray:
    """Real unit vectors spanning every product projector, ``(..., 4**k, 2**k)``.

    ``settings[..., i, x]`` is station ``i``'s measurement angle under
    setting ``x`` (see :func:`_station_table`); leading axes stack
    configurations.  Row ``z * 2**k + c`` is the ``np.kron`` product, station
    0 leftmost, of the stations' vectors for the packed outcome ``c`` and
    input ``z``.  The stations' vectors sit on one axis per input bit and per
    outcome bit, highest bit first, so each station's factor is one
    broadcast multiply; that multiply is the one the ``np.kron`` chain
    performs, so the rows are bit-identical to it.
    """
    table = _station_table(settings)
    lead, k = table.shape[:-4], table.shape[-4]
    for i in range(k):
        # Station i's ``[x, c, :]`` table on the axes of input bit i and outcome bit i.
        shape = [1] * (2 * k) + [1, 2]
        shape[k - 1 - i] = shape[2 * k - 1 - i] = 2
        S = table[..., i, :, :, :].reshape(lead + tuple(shape))
        V = S if i == 0 else V[..., :, None] * S
        V = V.reshape(V.shape[:-2] + (-1,))
    return V.reshape(lead + (1 << 2 * k, 1 << k))


def povm_vectors(angles: ArrayLike) -> np.ndarray:
    """:func:`_product_vectors` of configurations, ``(..., 4**k, 2**k)``.

    ``angles`` holds the ``k`` station angles along its last axis; leading
    axes stack configurations.  Each station measures setting 0 at angle 0
    and setting 1 at its angle, and row ``z * 2**k + c`` spans the product
    projector of ``(c, z)``.
    """
    angles = np.asarray(angles, dtype=float)
    settings = np.zeros(angles.shape + (2,))
    settings[..., 1] = angles
    return _product_vectors(settings)


@dataclass(frozen=True)
class CanonicalState:
    """A state ``tau`` measured under a configuration, inputs drawn i.i.d."""

    config: BellConfig
    tau: HermitianOperator

    def __post_init__(self) -> None:
        if self.tau.dim != self.config.dim:
            raise ValueError("state dimension must be 2**k")
        if not self.tau.is_psd():
            raise ValueError("state must be positive semidefinite")
        if abs(self.tau.trace() - 1.0) > TOL_NORM:
            raise ValueError("state must have unit trace")


def canonical_cq_state(s: CanonicalState) -> CqDistribution:
    """Blocks ``2**-k sqrt(tau) P_{c|z} sqrt(tau)`` over the full ``(c, z)`` grid.

    With ``P_{c|z} = v v^T`` for a row ``v`` of :func:`povm_vectors`, a block
    is ``conj(u) u^T`` for ``u = v^T sqrt(tau) / sqrt(2**k)``.  The ``u`` form
    one ``(2**k, 2**k, d)`` array indexed ``[z, c]``, the grid's rows in
    order.  Each input's projectors sum to the identity, so every marginal
    is ``tau / 2**k`` on ``tau``'s support: its spectrum is ``tau``'s, which
    the state's positivity check decomposed, over ``2**k``.  The
    distribution is built from ``u`` and that spectrum
    (``CqDistribution._rank_one``), so no block or marginal is decomposed.
    """
    d = s.config.dim
    U = povm_vectors(s.config.angles) @ s.tau.power(0.5) / math.sqrt(d)
    marginal = (s.tau._on_support(lambda w: w) / d, s.tau.eigenvectors)
    return CqDistribution._rank_one(U.reshape(d, d, d), marginal)


# -- trial distributions ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class TrialDistribution:
    """Joint distribution of packed outcomes and inputs for one trial.

    ``joint[c, z]``, the joint probability, is its one stored form: a
    read-only array, given as such or as a ``{(c, z): p}`` mapping over the
    full grid (JSON and outside input), whose read-only view is
    :attr:`probs`.  Construction also builds the read-only ``mu[z]``, the
    input marginal, and ``cond[c, z]``, the conditional table, 0 on an
    unused input.  Two-station tables are checked for non-signaling.
    """

    c_bits: int
    z_bits: int
    joint: np.ndarray | Mapping[tuple[int, int], float]
    mu: np.ndarray = field(init=False, repr=False)
    cond: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.c_bits < 1 or self.z_bits < 1:
            raise ValueError("bit widths must be positive")
        nc, nz = 1 << self.c_bits, 1 << self.z_bits
        joint = self.joint
        if isinstance(joint, Mapping):
            # The count first: the grid is sized by the declared widths.
            full = len(joint) == nc * nz and set(joint) == set(np.ndindex(nc, nz))
            joint = [[joint[(c, z)] for z in range(nz)] for c in range(nc)] if full else []
        joint = np.asarray(joint).astype(float, order="C", casting="same_kind")
        if joint.shape != (nc, nz):
            raise ValueError("probability table must cover the full (c, z) grid")
        for what, bad in (("non-finite", ~np.isfinite(joint)), ("negative", joint < -TOL_PROB)):
            if bad.any():
                raise ValueError(f"{what} probability at {tuple(np.argwhere(bad)[0].tolist())}")
        # ``max(p, 0.0)`` per cell: a -0.0 stays as it is.
        joint = np.where(joint < 0.0, 0.0, joint)
        total = sum(joint.ravel().tolist())  # cell by cell, in the JSON's C order
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total:.12g}, not 1")
        mu = joint.sum(axis=0)
        cond = np.divide(joint, mu, out=np.zeros_like(joint), where=mu > 0.0)
        for name, value in (("joint", joint), ("mu", mu), ("cond", cond)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if self.c_bits == 2 and self.z_bits == 2:
            self._check_nosignaling()

    @property
    def probs(self) -> Mapping[tuple[int, int], float]:
        """``{(c, z): p}`` in C order: the read-only view of ``joint``."""
        return MappingProxyType(dict(zip(np.ndindex(self.joint.shape), self.joint.ravel().tolist())))

    def _check_nosignaling(self) -> None:
        # Each station's conditional marginal must not depend on the other
        # station's setting: t[b, a, y, x] = cond[a + 2 b, x + 2 y].
        if (self.mu <= 0.0).any():
            raise ValueError("two-station tables require all inputs used")
        t = self.cond.reshape(2, 2, 2, 2)
        station0, station1 = t.sum(axis=0), t.sum(axis=1)
        if (np.abs(station0[:, 0] - station0[:, 1]) > TOL_NOSIG).any():
            raise ValueError("station-0 marginal signals station 1")
        if (np.abs(station1[..., 0] - station1[..., 1]) > TOL_NOSIG).any():
            raise ValueError("station-1 marginal signals station 0")

    def to_json(self) -> str:
        return json.dumps(
            {
                "c_bits": self.c_bits,
                "z_bits": self.z_bits,
                "probs": [[c, z, p] for (c, z), p in self.probs.items()],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TrialDistribution":
        data = json.loads(text)
        c_bits, z_bits, rows = json_fields(data, "distribution", "c_bits", "z_bits", "probs")
        return cls(int(c_bits), int(z_bits), json_cells(rows, "distribution"))


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of 2x2 matrices over broadcast leading axes, without its
    general-shape overhead."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (4, 4))


def _quantum_cond_table(
    rho: np.ndarray,
    angles_a: tuple[float, float],
    angles_b: tuple[float, float],
    eta: float,
) -> np.ndarray:
    """Conditional table ``cond[c, z]`` without distribution validation.

    The ideal table is ``Re v^T rho v`` over the 16 :func:`_product_vectors`
    rows of the two stations' settings; detector loss then acts on each
    station's outcome as the column-stochastic ``m = [[eta, 0], [1 - eta,
    1]]``, one ``kron(m, m)`` on the packed ``c = a + 2 b`` axis.
    """
    v = _product_vectors((angles_a, angles_b))
    # Row z * 4 + c of v gives p[z, c]; clipped at zero after the loss.
    p = np.real(((v @ rho) * v).sum(axis=1)).reshape(4, 4)
    m = np.array([[eta, 0.0], [1.0 - eta, 1.0]])
    return np.maximum(_kron2(m, m) @ p.T, 0.0)


def distribution_from_quantum(
    rho: np.ndarray,
    angles_a: tuple[float, float],
    angles_b: tuple[float, float],
    efficiency: float = 1.0,
) -> TrialDistribution:
    """Two-station trial distribution of a two-qubit state, uniform inputs.

    ``angles_a[x]`` is station 0's measurement angle under setting ``x``
    (likewise station 1), read by :func:`_product_vectors`.  With
    ``efficiency < 1`` each station's detector fires with that probability
    and non-detections are binned into outcome 1: the ideal table's outcome
    0 keeps weight ``eta`` and passes ``1 - eta`` to outcome 1.
    """
    eta = float(efficiency)
    if not (0.0 < eta <= 1.0):
        raise ValueError("efficiency must lie in (0, 1]")
    return TrialDistribution(2, 2, 0.25 * _quantum_cond_table(rho, angles_a, angles_b, eta))


# ``(-1)**(a + b)`` of the packed two-station outcome ``c = a + 2 b``.
_PARITY = np.array([1.0, -1.0, -1.0, 1.0])


def correlators(t: np.ndarray) -> np.ndarray:
    """``E[..., z] = sum_c (-1)**(a + b) t[..., c, z]`` of two-station tables."""
    return (_PARITY[:, None] * t).sum(axis=-2)


def chsh_value(nu: TrialDistribution) -> float:
    """CHSH functional of a two-station table with uniform inputs.

    Sign convention: correlators ``E(xy)`` enter as
    ``E(00) + E(01) + E(10) - E(11)``; local realism caps the value at 2.
    """
    if nu.c_bits != 2 or nu.z_bits != 2:
        raise ValueError("CHSH needs a two-station table")
    if (np.abs(nu.mu - 0.25) > 1e-9).any():
        raise ValueError("CHSH evaluation expects uniform inputs")
    e = correlators(nu.cond)
    return float(e[0] + e[1] + e[2] - e[3])


# -- reference families -----------------------------------------------------


def _partially_entangled(theta: float) -> np.ndarray:
    psi = np.zeros(4)
    psi[0] = math.cos(theta)
    psi[3] = math.sin(theta)
    return np.outer(psi, psi)


def family_distribution(family: str, param: float, seed: int = 0) -> TrialDistribution:
    """Reference two-station distributions, built deterministically.

    Parameters
    ----------
    family : {"E", "W", "P"}
        ``"E"``: pure partially entangled state ``cos(theta)|00> +
        sin(theta)|11>`` with ``param = theta`` in ``[0, pi/4]``, measured at
        the closed-form CHSH-optimal settings: station 0 along z and x,
        station 1 at ``+-b`` with ``tan b = sin(2 theta)``.  By the Horodecki
        criterion (Phys. Lett. A 200, 340 (1995)) its CHSH value is
        ``2 sqrt(1 + sin(2 theta)**2)``.
        ``"W"``: isotropically mixed singlet-fidelity state with
        ``param = p`` in ``[0, 1]``, at the ``theta = pi/4`` settings; its
        CHSH value is ``2 sqrt(2) p``.
        ``"P"``: detector-efficiency family with ``param = eta`` in
        ``(2/3, 1]``: the state ``cos(t)|00> + sin(t)|11>`` and four angles
        maximize the relative entropy to the local polytope, non-detections
        binned into outcome 1.  The seed is the Bell operator's optimum: with
        binned observables ``eta (cos(phi) Z + sin(phi) X) - (1 - eta) I``
        and setting 0 at ``phi = 0``, the top eigenvector of ``sum s_xy A_x
        kron B_y`` with the standard CHSH signs (minus on ``A_1 B_1``) over
        the ``pa <= pb`` half of a 25 x 25 grid of setting-1 angles ``(pa,
        pb)``.  The other sign patterns and the other half of the grid reach
        the same maximum (a Z-reflection of one station, a swap of the
        stations).  Its Schmidt decomposition gives ``t`` and one rotation
        ``Ry(g)`` per station, a shift of that station's angles by ``-g``.
        BFGS on the exact gradient of the strength refines all five; each
        strength evaluation's local projection starts from the previous
        one's mixture.
    seed : int
        Ignored; no family depends on it.
    """
    if family == "E":
        theta = float(param)
        if not (0.0 <= theta <= math.pi / 4.0 + 1e-12):
            raise ValueError("E-family angle must lie in [0, pi/4]")
        rho = _partially_entangled(theta)
    elif family == "W":
        p = float(param)
        if not (0.0 <= p <= 1.0):
            raise ValueError("W-family mixing weight must lie in [0, 1]")
        theta = math.pi / 4.0
        rho = p * _partially_entangled(theta) + (1.0 - p) * np.eye(4) / 4.0
    elif family == "P":
        eta = float(param)
        if not (2.0 / 3.0 < eta <= 1.0):
            raise ValueError("P-family efficiency must lie in (2/3, 1]")
        return _p_family(eta)
    else:
        raise ValueError(f"unknown family {family!r}")
    b = math.atan(math.sin(2.0 * theta))
    return distribution_from_quantum(rho, (0.0, math.pi / 2.0), (b, -b))


def _local_deterministic_tables() -> np.ndarray:
    """All 16 two-station deterministic conditional tables ``t[c, z]``.

    Table ``4 i + j`` answers ``a = f_i(x)`` and ``b = f_j(y)``, with the
    strategies ``f(x) = 0, 1, x, 1 - x``.
    """
    f = np.array([[0, 0], [1, 1], [0, 1], [1, 0]])  # f[i, x]
    n = np.arange(4)  # the packed values of both c and z
    c = f[:, None, n & 1] + 2 * f[None, :, n >> 1]  # the answer c[i, j, z]
    return np.ascontiguousarray(n[:, None] == c[:, :, None, :], float).reshape(16, 4, 4)


# Shared by the local-polytope helpers here and by ``pef_opt``, so read-only.
_LD_STACK = _local_deterministic_tables()
_LD_STACK.flags.writeable = False


# Cycle cap of :func:`_local_projection`'s EM, which raises if it is reached.
_EM_CYCLES = 100000


def _local_projection(cond: np.ndarray, mu: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The local table ``lam*[c, z]`` closest to ``cond[c, z]`` in relative entropy.

    The minimization over mixtures ``w`` of deterministic tables uses
    multiplicative (expectation-maximization) updates ``w_i <- w_i g_i`` with
    ``g_i = sum_p nu_p t_i(p) / lam(p)``, accelerated by SQUAREM (Varadhan
    and Roland, Scand. J. Stat. 35, 335 (2008)): two EM steps ``w -> w1 ->
    w2`` give ``r = w1 - w`` and ``v = w2 - 2 w1 + w``, and the cycle moves to
    ``w - 2 a r + a**2 v`` with ``a = min(-|r|/|v|, -1)``, halving ``a``
    toward ``-1`` (which is ``w2``) while any weight would be nonpositive.
    ``log max_i g_i`` bounds the remaining gap of the iterate it is evaluated
    at, and the loop returns only an iterate whose gap is below 1e-12; it
    raises ``RuntimeError`` if none is reached in ``_EM_CYCLES`` cycles.

    The EM starts from the mixture ``weights``, such as a nearby table's or
    the uniform ``np.full(16, 1 / 16)``, floored at 1e-30 so that the
    multiplicative updates can revive every strategy.  ``weights`` then
    receives the final mixture, so that consecutive calls warm-start.
    """
    mask = cond > 0.0
    w_cz = (mu[None, :] * cond)[mask]
    vals = _LD_STACK[:, mask]  # (16, npts)

    def em(w: np.ndarray, g: np.ndarray) -> np.ndarray:
        w = w * g
        return w / w.sum()

    def gains(w: np.ndarray) -> np.ndarray:
        return vals @ (w_cz / np.maximum(w @ vals, 1e-300))

    w = np.maximum(weights, 1e-30)
    w = w / w.sum()
    for _ in range(_EM_CYCLES):
        g = gains(w)
        gap = math.log(max(float(g.max()), 1e-300))
        if gap < 1e-12:
            break
        w1 = em(w, g)
        w2 = em(w1, gains(w1))
        r = w1 - w
        v = w2 - w1 - r
        nv = math.sqrt(v @ v)
        a = min(-math.sqrt(r @ r) / nv, -1.0) if nv > 0.0 else -1.0
        for _ in range(30):
            x = w - 2.0 * a * r + a * a * v
            if (x > 0.0).all():
                break
            a = (a - 1.0) / 2.0
        else:
            x = w2
        w = x / x.sum()
    else:
        raise RuntimeError(
            f"local projection: EM gap {gap:.3g} after {_EM_CYCLES} cycles"
        )
    weights[:] = w
    return np.maximum(np.tensordot(w, _LD_STACK, axes=1), 1e-300)


def _p_seed(eta: float) -> np.ndarray:
    """``(t, a0, a1, b0, b1)`` at the binned Bell operator's optimum on a grid.

    Only the standard CHSH pattern (minus on setting pair (1, 1)) is searched:
    a Z-reflection of one station maps each single-minus pattern to another
    at the same maximum.  Swapping the stations maps its setting-1 angles
    ``(pa, pb)`` to ``(pb, pa)``, so the search covers the ``pa <= pb`` half
    of the grid: one ``eigvalsh`` over 325 operators, one ``eigh`` at the best.
    """
    grid = np.linspace(0.0, math.pi, 25)
    # Binned, eta (cos Z + sin X) - (1 - eta) I is 2 eta v0 v0^T - I.
    v0 = _station_table(grid)[:, 0]
    obs = 2.0 * eta * v0[:, :, None] * v0[:, None, :] - np.eye(2)
    i, j = np.triu_indices(grid.size)
    # Setting 0 is obs[0] at both stations: A0 (B0 + B1) + A1 (B0 - B1).
    z, a1, b1 = obs[0], obs[i], obs[j]
    ops = _kron2(z, z + b1) + _kron2(a1, z - b1)
    k = int(np.argmax(np.linalg.eigvalsh(ops)[:, -1]))
    vec = np.linalg.eigh(ops[k])[1][:, -1]
    u, schmidt, wt = np.linalg.svd(vec.reshape(2, 2))
    # A reflection in u or w moves into the sign of the second Schmidt weight;
    # the first columns then give the stations' rotations Ry(ga), Ry(gb).
    t = math.atan2(np.linalg.det(u) * np.linalg.det(wt) * schmidt[1], schmidt[0])
    ga, gb = 2.0 * math.atan2(u[1, 0], u[0, 0]), 2.0 * math.atan2(wt[0, 1], wt[0, 0])
    return np.array([t, -ga, grid[i[k]] - ga, -gb, grid[j[k]] - gb])


def _p_strength(v: np.ndarray, eta: float, weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Strength of the P table at ``v = (t, a0, a1, b0, b1)``, and its gradient.

    The table is :func:`_quantum_cond_table`'s for ``cos(t)|00> + sin(t)|11>``
    at angles ``(a0, a1)`` and ``(b0, b1)``.  By the envelope theorem the
    strength's derivative in ``cond`` is ``mu (log(cond / lam*) + 1)`` at the
    closest local table ``lam*``.  A Born probability is an amplitude squared;
    the amplitude's derivative in ``t`` is the amplitude at ``t + pi/2``, and
    in a station angle half the amplitude at that angle ``+ pi``.
    ``weights`` is passed on to :func:`_local_projection`.
    """
    # Rows: v, then t + pi/2, then station 0's angles + pi, then station 1's.
    pts = v + np.array([[0.0] * 5, [math.pi / 2.0, 0, 0, 0, 0],
                        [0, math.pi, math.pi, 0, 0], [0, 0, 0, math.pi, math.pi]])
    coef = np.stack([np.cos(pts[:, 0]), np.sin(pts[:, 0])], -1)
    ta, tb = _station_table(pts[:, 1:3]), _station_table(pts[:, 3:])
    amp = np.einsum("nk,nxak,nybk->nxyab", coef, ta, tb)
    m = np.array([[eta, 0.0], [1.0 - eta, 1.0]])
    loss = _kron2(m, m)
    # _quantum_cond_table's ideal table: ideal[a + 2 b, x + 2 y] = amp[0, x, y, a, b]**2.
    cond = np.maximum(loss @ (amp[0] ** 2).transpose(3, 2, 1, 0).reshape(4, 4), 0.0)
    mask = cond > 0.0
    lam = _local_projection(cond, np.full(4, 0.25), weights)
    log_ratio = np.log(np.where(mask, cond, 1.0) / lam)
    d_cond = np.where(mask, 0.25 * (log_ratio + 1.0), 0.0)
    d_amp = amp[0] * (loss.T @ d_cond).reshape(2, 2, 2, 2).transpose(3, 2, 1, 0)
    grad = [2.0 * np.sum(d_amp * amp[1]), *(d_amp * amp[2]).sum(axis=(1, 2, 3)),
            *(d_amp * amp[3]).sum(axis=(0, 2, 3))]
    return float(np.sum(0.25 * cond * log_ratio)), np.array(grad)


def _bfgs_max(fun, x: np.ndarray) -> np.ndarray:
    """Maximize ``fun(x) -> (value, gradient)`` by BFGS with Armijo backtracking,
    until the model's ascent ``g^T H g`` (twice the gain it predicts) or an
    accepted step's gain is at most 1e-13 of the value, or no step is found.
    The first test ends the search before steps whose gain is only the
    noise of ``fun``."""
    f, g = fun(x)
    h = np.eye(x.size)
    for it in range(200):
        d = h @ g
        slope = g @ d
        if slope <= 1e-13 * abs(f):
            return x
        for step in 0.5 ** np.arange(50):
            f1, g1 = fun(x + step * d)
            if f1 >= f + 1e-4 * step * slope:
                break
        else:
            return x
        s, y = step * d, g - g1
        x, gain, f, g = x + s, f1 - f, f1, g1
        if gain <= 1e-13 * abs(f):
            return x
        sy = float(s @ y)
        if sy > 0.0:
            if it == 0:
                h *= sy / float(y @ y)
            r = np.eye(x.size) - np.outer(s, y) / sy
            h = r @ h @ r.T + np.outer(s, s) / sy
    return x


def _p_family(eta: float) -> TrialDistribution:
    # Each evaluation's local projection warm-starts from the previous one's.
    weights = np.full(16, 1.0 / 16.0)
    t, a0, a1, b0, b1 = _bfgs_max(lambda v: _p_strength(v, eta, weights), _p_seed(eta))
    return distribution_from_quantum(_partially_entangled(t), (a0, a1), (b0, b1), eta)
