"""(k,2,2) Bell-trial configurations, POVMs, canonical states, trial distributions.

Stations are binary-input binary-outcome.  Input 0 always measures along z;
input 1 measures in the xz-plane at a station angle ``phi``, so every
projector in a configuration is real symmetric and rank one.  Multi-station
operators are Kronecker products with station 0 as the leftmost factor;
outcome and input tuples pack into ints little-endian (bit ``i`` belongs to
station ``i``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike
from scipy.optimize import minimize

from .quantum_core import CqDistribution, HermitianOperator, TOL_NORM

_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_ID2 = np.eye(2)

# Tolerance for the non-signaling checks on trial distributions.
TOL_NOSIG = 1e-10
# Tolerance on probability-table normalization.
TOL_PROB = 1e-12


def _station_direction(phi: float) -> np.ndarray:
    return math.cos(phi) * _PAULI_Z + math.sin(phi) * _PAULI_X


def qubit_povm(c: int, z: int, phi: float) -> HermitianOperator:
    """Rank-one projector for outcome ``c`` of setting ``z`` at one station.

    Setting 0 measures z; setting 1 measures ``cos(phi) z + sin(phi) x``.
    """
    if c not in (0, 1) or z not in (0, 1):
        raise ValueError(f"outcome and setting must be bits, got c={c}, z={z}")
    if not (-math.pi < phi <= math.pi):
        raise ValueError(f"station angle must lie in (-pi, pi], got {phi}")
    direction = _PAULI_Z if z == 0 else _station_direction(phi)
    sign = 1.0 if c == 0 else -1.0
    return HermitianOperator((_ID2 + sign * direction) / 2.0)


def _station_vector(c: int, z: int, phi: float) -> np.ndarray:
    """Unit eigenvector spanning ``qubit_povm(c, z, phi)``."""
    angle = 0.0 if z == 0 else phi
    v = np.array([math.cos(angle / 2.0), math.sin(angle / 2.0)])
    if c == 1:
        v = np.array([-v[1], v[0]])
    return v


def bits_of(value: int, width: int) -> tuple[int, ...]:
    """Little-endian bit tuple of a nonnegative int."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return tuple((value >> i) & 1 for i in range(width))


@dataclass(frozen=True)
class BellConfig:
    """A (k,2,2) measurement configuration.

    ``angles[i]`` is station ``i``'s input-1 measurement angle; input 0 is
    fixed along z.  ``input_dist`` is the distribution of the packed input
    ``z`` over ``2**k`` values.  Angles are held normalized to (-pi, pi] and
    anything else is rejected; the factor engine's entry points (``q_alpha``,
    ``inner_max_tau``) reduce raw angles modulo ``2 pi`` before building one.
    """

    k: int
    angles: tuple[float, ...]
    input_dist: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("at least one station is required")
        if len(self.angles) != self.k:
            raise ValueError("one angle per station is required")
        for phi in self.angles:
            if not (-math.pi < phi <= math.pi):
                raise ValueError(f"station angle {phi} outside (-pi, pi]")
        if len(self.input_dist) != 1 << self.k:
            raise ValueError("input distribution must cover 2**k inputs")
        if any(p < 0.0 for p in self.input_dist):
            raise ValueError("input probabilities must be nonnegative")
        if abs(sum(self.input_dist) - 1.0) > TOL_NORM:
            raise ValueError("input distribution must sum to one")

    @classmethod
    def uniform(cls, angles: Sequence[float]) -> "BellConfig":
        k = len(angles)
        return cls(k, tuple(float(a) for a in angles), (1.0 / (1 << k),) * (1 << k))

    @property
    def dim(self) -> int:
        return 1 << self.k

    def mu(self, z: int) -> float:
        return self.input_dist[z]


def povm_tensor(config: BellConfig, c: int, z: int) -> HermitianOperator:
    """Product projector for packed outcome ``c`` under packed input ``z``."""
    cb, zb = bits_of(c, config.k), bits_of(z, config.k)
    m = np.array([[1.0]])
    for i in range(config.k):
        m = np.kron(m, qubit_povm(cb[i], zb[i], config.angles[i]).matrix)
    return HermitianOperator(m)


def povm_vectors(angles: ArrayLike, c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Real unit vectors spanning the product projectors of ``(c[j], z[j])``.

    ``angles`` holds the ``k`` station angles along its last axis; leading
    axes stack configurations, and the result is ``(..., n, 2**k)``.  Row
    ``j`` is the ``np.kron`` product of the stations' vectors (those of
    :func:`_station_vector`) for the packed outcome ``c[j]`` and input
    ``z[j]``.  One broadcast outer product per station performs the same
    multiplications as that ``np.kron`` chain, so the rows are bit-identical
    to it.
    """
    angles = np.asarray(angles, dtype=float)
    c, z = np.asarray(c), np.asarray(z)
    lead = angles.shape[:-1]
    V = np.ones(lead + (c.size, 1))
    for i in range(angles.shape[-1]):
        phi = angles[..., i]
        # Setting 0 measures at angle 0, setting 1 at phi.
        half = np.stack([np.zeros_like(phi), phi], -1) / 2.0
        cos, sin = np.cos(half), np.sin(half)
        # table[..., z_i, c_i, :] is station i's unit vector for that setting and outcome.
        table = np.stack([np.stack([cos, sin], -1), np.stack([-sin, cos], -1)], -2)
        S = table[..., (z >> i) & 1, (c >> i) & 1, :]
        V = (V[..., :, :, None] * S[..., :, None, :]).reshape(lead + (c.size, -1))
    return V


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
    """Blocks ``mu(z) sqrt(tau) P_{c|z} sqrt(tau)`` over the full ``(c, z)`` grid."""
    root = s.tau.power(0.5).matrix
    blocks = {}
    for z in range(s.config.dim):
        mu = s.config.mu(z)
        for c in range(s.config.dim):
            p = povm_tensor(s.config, c, z).matrix
            blocks[(c, z)] = HermitianOperator(mu * (root @ p @ root))
    return CqDistribution(blocks)


# -- trial distributions ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class TrialDistribution:
    """Joint distribution of packed outcomes and inputs for one trial.

    ``probs[(c, z)]`` is the joint probability.  For two stations the
    conditional tables are checked for non-signaling.
    """

    c_bits: int
    z_bits: int
    probs: Mapping[tuple[int, int], float]
    provenance: str = ""

    def __post_init__(self) -> None:
        if self.c_bits < 1 or self.z_bits < 1:
            raise ValueError("bit widths must be positive")
        nc, nz = 1 << self.c_bits, 1 << self.z_bits
        table = dict(self.probs)
        expected = {(c, z) for c in range(nc) for z in range(nz)}
        if set(table) != expected:
            raise ValueError("probability table must cover the full (c, z) grid")
        for key, p in table.items():
            if p < -TOL_PROB:
                raise ValueError(f"negative probability at {key}")
            table[key] = max(float(p), 0.0)
        total = sum(table.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total:.12g}, not 1")
        object.__setattr__(self, "probs", table)
        object.__setattr__(self, "_mu", tuple(
            sum(table[(c, z)] for c in range(nc)) for z in range(nz)
        ))
        if self.c_bits == 2 and self.z_bits == 2:
            self._check_nosignaling()

    def _check_nosignaling(self) -> None:
        # Each station's conditional marginal must not depend on the other
        # station's setting.
        for z in range(4):
            if self.mu_z(z) <= 0.0:
                raise ValueError("two-station tables require all inputs used")
        for a in (0, 1):
            for x in (0, 1):
                vals = {
                    y: sum(self.cond(a + 2 * b, x + 2 * y) for b in (0, 1))
                    for y in (0, 1)
                }
                if abs(vals[0] - vals[1]) > TOL_NOSIG:
                    raise ValueError("station-0 marginal signals station 1")
        for b in (0, 1):
            for y in (0, 1):
                vals = {
                    x: sum(self.cond(a + 2 * b, x + 2 * y) for a in (0, 1))
                    for x in (0, 1)
                }
                if abs(vals[0] - vals[1]) > TOL_NOSIG:
                    raise ValueError("station-1 marginal signals station 0")

    def mu_z(self, z: int) -> float:
        return self._mu[z]

    def cond(self, c: int, z: int) -> float:
        mu = self.mu_z(z)
        return self.probs[(c, z)] / mu if mu > 0.0 else 0.0

    def input_marginal(self) -> dict[int, float]:
        return {z: self.mu_z(z) for z in range(1 << self.z_bits)}

    def to_json(self) -> str:
        items = sorted(self.probs.items())
        return json.dumps(
            {
                "c_bits": self.c_bits,
                "z_bits": self.z_bits,
                "probs": [[c, z, p] for (c, z), p in items],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TrialDistribution":
        data = json.loads(text)
        probs = {(int(c), int(z)): float(p) for c, z, p in data["probs"]}
        return cls(int(data["c_bits"]), int(data["z_bits"]), probs)


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 2x2 matrices, without its general-shape overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _joint_traces(rho: np.ndarray, ea: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """``p[x, y, a, b] = Re tr(rho kron(ea[x, a], eb[y, b]))`` for station effects."""
    ops = (
        ea[:, None, :, None, :, None, :, None]
        * eb[None, :, None, :, None, :, None, :]
    ).reshape(16, 4, 4)
    return np.real(np.trace(rho @ ops, axis1=1, axis2=2)).reshape(2, 2, 2, 2)


def _station_effects(angles: tuple[float, float], eta: float) -> np.ndarray:
    """``out[x, c]``: one station's effect for outcome ``c`` at setting ``x``.

    The detector fires with probability ``eta``; non-detections are binned
    into outcome 1.
    """
    out = np.empty((2, 2, 2, 2))
    for x in (0, 1):
        q0 = (_ID2 + _station_direction(angles[x])) / 2.0
        out[x, 0] = eta * q0
        out[x, 1] = _ID2 - eta * q0
    return out


def _quantum_cond_table(
    rho: np.ndarray,
    angles_a: tuple[float, float],
    angles_b: tuple[float, float],
    eta: float,
) -> np.ndarray:
    """Conditional table ``cond[c, z]`` without distribution validation."""
    p = _joint_traces(rho, _station_effects(angles_a, eta), _station_effects(angles_b, eta))
    # cond[a + 2 b, x + 2 y] = p[x, y, a, b], clipped at zero.
    return np.maximum(p.transpose(3, 2, 1, 0).reshape(4, 4), 0.0)


def distribution_from_quantum(
    rho: np.ndarray,
    angles_a: tuple[float, float],
    angles_b: tuple[float, float],
    efficiency: float = 1.0,
    provenance: str = "",
) -> TrialDistribution:
    """Two-station trial distribution of a two-qubit state, uniform inputs.

    ``angles_a[x]`` is station 0's measurement angle under setting ``x``
    (likewise station 1).  With ``efficiency < 1`` each station's detector
    fires with that probability and non-detections are binned into
    outcome 1.
    """
    eta = float(efficiency)
    if not (0.0 < eta <= 1.0):
        raise ValueError("efficiency must lie in (0, 1]")
    cond = _quantum_cond_table(rho, angles_a, angles_b, eta)
    probs = {(c, z): 0.25 * float(cond[c, z]) for c in range(4) for z in range(4)}
    return TrialDistribution(2, 2, probs, provenance=provenance)


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
    for z in range(4):
        if abs(nu.mu_z(z) - 0.25) > 1e-9:
            raise ValueError("CHSH evaluation expects uniform inputs")
    e = correlators(np.array([[nu.cond(c, z) for z in range(4)] for c in range(4)]))
    return float(e[0] + e[1] + e[2] - e[3])


# -- reference families -----------------------------------------------------


def _ry(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]])


def _partially_entangled(theta: float) -> np.ndarray:
    psi = np.zeros(4)
    psi[0] = math.cos(theta)
    psi[3] = math.sin(theta)
    return np.outer(psi, psi)


def _rotated(rho: np.ndarray, gamma_a: float, gamma_b: float) -> np.ndarray:
    r = _kron2(_ry(gamma_a), _ry(gamma_b))
    return r @ rho @ r.T


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
        ``(2/3, 1]``; the state's Schmidt angle and the angles maximize the
        relative entropy to the local polytope, with non-detections binned
        into outcome 1.  Nelder-Mead follows the maximizer by continuation
        from the CHSH-optimal point at ``eta = 1`` down in steps of 0.05,
        with no restarts: on 13 efficiencies in [0.68, 1] two fixed and two
        random restarts never beat the continuation by more than 1e-16.
        At ``eta <= 0.70`` the continuation loses the nonlocal branch and
        returns a local table (CHSH value below 2, zero relative entropy),
        although Eberhard's settings violate the local bound for every
        ``eta > 2/3``; ``qpe mintrials`` skips such points with a warning.
    seed : int
        Ignored; no family depends on it.
    """
    if family == "E":
        theta = float(param)
        if not (0.0 <= theta <= math.pi / 4.0 + 1e-12):
            raise ValueError("E-family angle must lie in [0, pi/4]")
        rho = _partially_entangled(theta)
        provenance = f"E theta={theta:.12g}"
    elif family == "W":
        p = float(param)
        if not (0.0 <= p <= 1.0):
            raise ValueError("W-family mixing weight must lie in [0, 1]")
        theta = math.pi / 4.0
        rho = p * _partially_entangled(theta) + (1.0 - p) * np.eye(4) / 4.0
        provenance = f"W p={p:.12g}"
    elif family == "P":
        eta = float(param)
        if not (2.0 / 3.0 < eta <= 1.0):
            raise ValueError("P-family efficiency must lie in (2/3, 1]")
        return _p_family(eta)
    else:
        raise ValueError(f"unknown family {family!r}")
    b = math.atan(math.sin(2.0 * theta))
    return distribution_from_quantum(
        rho, (0.0, math.pi / 2.0), (b, -b), provenance=provenance
    )


def _local_deterministic_tables() -> list[np.ndarray]:
    """All 16 two-station deterministic conditional tables ``t[c, z]``."""
    tables = []
    strategies = [lambda x: 0, lambda x: 1, lambda x: x, lambda x: 1 - x]
    for fa in strategies:
        for fb in strategies:
            t = np.zeros((4, 4))
            for x in (0, 1):
                for y in (0, 1):
                    t[fa(x) + 2 * fb(y), x + 2 * y] = 1.0
            tables.append(t)
    return tables


# Shared by the local-polytope helpers here and by ``pef_opt``, so read-only.
_LD_STACK = np.stack(_local_deterministic_tables())  # (16, 4, 4)
_LD_STACK.flags.writeable = False


def _kl_to_local(cond: np.ndarray, mu: np.ndarray) -> float:
    """Relative entropy (nats) from ``cond[c, z]`` to the local polytope.

    This is the statistical strength of van Dam, Gill and Gruenwald (IEEE
    Trans. Inf. Theory 51, 2812 (2005)).  The minimization over mixtures
    ``w`` of deterministic tables uses multiplicative (expectation-
    maximization) updates ``w_i <- w_i g_i`` with ``g_i = sum_p nu_p t_i(p) /
    lam(p)``, accelerated by SQUAREM (Varadhan and Roland, Scand. J. Stat. 35,
    335 (2008)): two EM steps ``w -> w1 -> w2`` give ``r = w1 - w`` and
    ``v = w2 - 2 w1 + w``, and the cycle moves to ``w - 2 a r + a**2 v`` with
    ``a = min(-|r|/|v|, -1)``, halving ``a`` toward ``-1`` (which is ``w2``)
    while any weight would be nonpositive.  ``log max_i g_i`` bounds the
    remaining gap of the iterate it is evaluated at, and the loop returns
    only an iterate whose gap is below 1e-12, so the value exceeds the
    minimum by less than that.  It is never negative.
    """
    mask = cond > 0.0
    w_cz = (mu[None, :] * cond)[mask]
    vals = _LD_STACK[:, mask]  # (16, npts)

    def em(w: np.ndarray, g: np.ndarray) -> np.ndarray:
        w = w * g
        return w / w.sum()

    def gains(w: np.ndarray) -> np.ndarray:
        return vals @ (w_cz / np.maximum(w @ vals, 1e-300))

    w = np.full(16, 1.0 / 16.0)
    for _ in range(100000):
        g = gains(w)
        if math.log(max(float(g.max()), 1e-300)) < 1e-12:
            break
        w1 = em(w, g)
        w2 = em(w1, gains(w1))
        r = w1 - w
        v = w2 - w1 - r
        nv = float(np.linalg.norm(v))
        a = min(-float(np.linalg.norm(r)) / nv, -1.0) if nv > 0.0 else -1.0
        for _ in range(30):
            x = w - 2.0 * a * r + a * a * v
            if (x > 0.0).all():
                break
            a = (a - 1.0) / 2.0
        else:
            x = w2
        w = x / x.sum()
    lam = np.maximum(w @ vals, 1e-300)
    # Rounding can leave a local table a few 1e-17 below zero.
    return max(0.0, float(np.sum(w_cz * (np.log(cond[mask]) - np.log(lam)))))


def _p_family(eta: float) -> TrialDistribution:
    mu = np.full(4, 0.25)

    def negative_kl(v, e):
        t, pa, pb, ga, gb = v
        rho = _rotated(_partially_entangled(t), ga, gb)
        return -_kl_to_local(_quantum_cond_table(rho, (0.0, pa), (0.0, pb), e), mu)

    # Continuation in the efficiency: at eta = 1 the strength maximizer is the
    # CHSH-optimal configuration, and the divergence landscape at low eta is
    # dominated by a flat zero-divergence basin that traps cold starts.
    rungs = [1.0]
    while rungs[-1] - 0.05 > eta + 1e-12:
        rungs.append(rungs[-1] - 0.05)
    if abs(rungs[-1] - eta) > 1e-12:
        rungs.append(eta)
    opts = {"xatol": 1e-9, "fatol": 1e-12, "maxiter": 1500, "maxfev": 3000}
    x = np.array([math.pi / 4.0, math.pi / 2.0, -math.pi / 2.0, 0.0, -math.pi / 4.0])
    for e in rungs:
        x = minimize(negative_kl, x, args=(e,), method="Nelder-Mead", options=opts).x
    t, pa, pb, ga, gb = x
    rho = _rotated(_partially_entangled(t), ga, gb)
    # The divergence is blind to which input is labeled 0, so the optimizer may
    # return any of four equally strong setting relabelings; keep the one that
    # puts the violation on the standard CHSH orientation.
    candidates = [
        distribution_from_quantum(
            rho, aa, bb, eta, provenance=f"P eta={eta:.12g}"
        )
        for aa in ((0.0, pa), (pa, 0.0))
        for bb in ((0.0, pb), (pb, 0.0))
    ]
    return max(candidates, key=chsh_value)
