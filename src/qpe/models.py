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


def pack_bits(bits: Sequence[int]) -> int:
    return sum(b << i for i, b in enumerate(bits))


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


def povm_vector(config: BellConfig, c: int, z: int) -> np.ndarray:
    """Real unit vector spanning the rank-one product projector."""
    cb, zb = bits_of(c, config.k), bits_of(z, config.k)
    v = np.array([1.0])
    for i in range(config.k):
        v = np.kron(v, _station_vector(cb[i], zb[i], config.angles[i]))
    return v


def povm_vectors(config: BellConfig, c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rows ``povm_vector(config, c[j], z[j])`` for packed outcome/input arrays.

    One broadcast outer product per station performs the same
    multiplications as the ``np.kron`` chain of :func:`povm_vector`, so the
    rows are bit-identical to it.
    """
    c, z = np.asarray(c), np.asarray(z)
    V = np.ones((c.size, 1))
    for i, phi in enumerate(config.angles):
        # table[z_i, c_i] is station i's unit vector for that setting and outcome.
        table = np.array([
            [_station_vector(cb, zb, phi) for cb in (0, 1)] for zb in (0, 1)
        ])
        S = table[(z >> i) & 1, (c >> i) & 1]
        V = (V[:, :, None] * S[:, None, :]).reshape(c.size, -1)
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

    def effects(angles):
        # ``out[x, c]``: one station's effect for outcome ``c`` at setting ``x``.
        out = np.empty((2, 2, 2, 2))
        for x in (0, 1):
            for c in (0, 1):
                q = (_ID2 + (1 - 2 * c) * _station_direction(angles[x])) / 2.0
                out[x, c] = eta * q + (1.0 - eta) * (_ID2 if c == 1 else 0.0)
        return out

    p = _joint_traces(rho, effects(angles_a), effects(angles_b))
    probs = {}
    for x in (0, 1):
        for y in (0, 1):
            for a in (0, 1):
                for b in (0, 1):
                    probs[(a + 2 * b, x + 2 * y)] = 0.25 * max(float(p[x, y, a, b]), 0.0)
    return TrialDistribution(2, 2, probs, provenance=provenance)


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
    total = 0.0
    for x in (0, 1):
        for y in (0, 1):
            corr = 0.0
            for a in (0, 1):
                for b in (0, 1):
                    corr += (-1.0) ** (a + b) * nu.cond(a + 2 * b, x + 2 * y)
            total += corr * (1.0 if x * y == 0 else -1.0)
    return total


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


def _chsh_of(rho, phi_a, phi_b, gamma_a, gamma_b, eta=1.0) -> float:
    nu = distribution_from_quantum(
        _rotated(rho, gamma_a, gamma_b), (0.0, phi_a), (0.0, phi_b), eta
    )
    return chsh_value(nu)


_NM_OPTIONS = {"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000, "maxfev": 8000}


def _maximize_chsh(rho: np.ndarray, seeds: list):
    best = None
    for x0 in seeds:
        res = minimize(
            lambda v: -_chsh_of(rho, *v),
            np.asarray(x0, dtype=float),
            method="Nelder-Mead",
            options=_NM_OPTIONS,
        )
        if best is None or res.fun < best.fun:
            best = res
    return best.x


def _chsh_seeds(theta: float, rng: np.random.Generator, extra: int = 16) -> list:
    # Analytic optimum for a Schmidt angle theta: station 0 measures z and x,
    # station 1 at +-b with tan b = sin(2 theta); expressed in the rotated
    # parametrization as (phi_a, phi_b, gamma_a, gamma_b).
    b = math.atan(max(math.sin(2.0 * theta), 1e-12))
    seeds = [
        (math.pi / 2.0, -2.0 * b, 0.0, -b),
        (math.pi / 2.0, 2.0 * b, 0.0, b),
    ]
    seeds += [tuple(rng.uniform(-math.pi / 2, math.pi / 2, size=4)) for _ in range(extra)]
    return seeds


_FAMILY_SEED = 20240117


def family_distribution(family: str, param: float, seed: int = 0) -> TrialDistribution:
    """Reference two-station distributions, optimized deterministically.

    Parameters
    ----------
    family : {"E", "W", "P"}
        ``"E"``: pure partially entangled state ``cos(theta)|00> +
        sin(theta)|11>`` with ``param = theta`` in ``[0, pi/4]``;
        measurement angles maximize the CHSH value.
        ``"W"``: isotropically mixed singlet-fidelity state with
        ``param = p`` in ``[0, 1]``; same objective.
        ``"P"``: detector-efficiency family with ``param = eta`` in
        ``(2/3, 1]``; the state's Schmidt angle and the angles maximize the
        relative entropy to the local polytope, with non-detections binned
        into outcome 1.
    seed : int
        Offsets the deterministic random multistarts.
    """
    rng = np.random.default_rng(_FAMILY_SEED + seed)
    if family == "E":
        theta = float(param)
        if not (0.0 <= theta <= math.pi / 4.0 + 1e-12):
            raise ValueError("E-family angle must lie in [0, pi/4]")
        rho = _partially_entangled(theta)
        x = _maximize_chsh(rho, _chsh_seeds(theta, rng))
        return distribution_from_quantum(
            _rotated(rho, x[2], x[3]), (0.0, x[0]), (0.0, x[1]),
            provenance=f"E theta={theta:.12g}",
        )
    if family == "W":
        p = float(param)
        if not (0.0 <= p <= 1.0):
            raise ValueError("W-family mixing weight must lie in [0, 1]")
        rho = p * _partially_entangled(math.pi / 4.0) + (1.0 - p) * np.eye(4) / 4.0
        x = _maximize_chsh(rho, _chsh_seeds(math.pi / 4.0, rng))
        return distribution_from_quantum(
            _rotated(rho, x[2], x[3]), (0.0, x[0]), (0.0, x[1]),
            provenance=f"W p={p:.12g}",
        )
    if family == "P":
        eta = float(param)
        if not (2.0 / 3.0 < eta <= 1.0):
            raise ValueError("P-family efficiency must lie in (2/3, 1]")
        return _p_family(eta, rng)
    raise ValueError(f"unknown family {family!r}")


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


_LD_STACK = np.stack(_local_deterministic_tables())  # (16, 4, 4)


def _kl_to_local(cond: np.ndarray, mu: np.ndarray) -> float:
    """Relative entropy (nats) from ``cond[c, z]`` to the local polytope.

    The inner minimization over mixtures of deterministic tables uses
    multiplicative (expectation-maximization) updates on the weight simplex.
    Each step increases the mixture likelihood, and `log max_i g_i` with
    `g_i = sum_p nu_p t_i(p) / lam(p)` bounds the remaining gap, so the loop
    exits with a certified accuracy rather than trusting a local solver.
    """
    mask = cond > 0.0
    w_cz = (mu[None, :] * cond)[mask]
    vals = _LD_STACK[:, mask]  # (16, npts)
    w = np.full(16, 1.0 / 16.0)
    for _ in range(100000):
        lam = np.maximum(w @ vals, 1e-300)
        g = vals @ (w_cz / lam)
        if math.log(max(float(g.max()), 1e-300)) < 1e-9:
            break
        w = w * g
        w /= w.sum()
    lam = np.maximum(w @ vals, 1e-300)
    return float(np.sum(w_cz * (np.log(cond[mask]) - np.log(lam))))


def _quantum_cond_table(
    rho: np.ndarray, pa: float, pb: float, eta: float
) -> np.ndarray:
    """Conditional table ``cond[c, z]`` without distribution validation."""
    cond = np.zeros((4, 4))
    effects = []
    for angles in ((0.0, pa), (0.0, pb)):
        out = np.empty((2, 2, 2, 2))
        for x in (0, 1):
            q0 = (_ID2 + _station_direction(angles[x])) / 2.0
            out[x, 0] = eta * q0
            out[x, 1] = _ID2 - eta * q0
        effects.append(out)
    p = _joint_traces(rho, *effects)
    for x in (0, 1):
        for y in (0, 1):
            for a in (0, 1):
                for b in (0, 1):
                    cond[a + 2 * b, x + 2 * y] = max(float(p[x, y, a, b]), 0.0)
    return cond


def _p_family(eta: float, rng: np.random.Generator) -> TrialDistribution:
    mu = np.full(4, 0.25)

    def negative_kl(v, e):
        t, pa, pb, ga, gb = v
        rho = _rotated(_partially_entangled(t), ga, gb)
        return -_kl_to_local(_quantum_cond_table(rho, pa, pb, e), mu)

    # Continuation in the efficiency: at eta = 1 the strength maximizer is the
    # CHSH-optimal configuration, and the divergence landscape at low eta is
    # dominated by a flat zero-divergence basin that traps cold restarts.
    rungs = [1.0]
    while rungs[-1] - 0.05 > eta + 1e-12:
        rungs.append(rungs[-1] - 0.05)
    if abs(rungs[-1] - eta) > 1e-12:
        rungs.append(eta)
    opts = {"xatol": 1e-9, "fatol": 1e-12, "maxiter": 1500, "maxfev": 3000}
    x = np.array([math.pi / 4.0, math.pi / 2.0, -math.pi / 2.0, 0.0, -math.pi / 4.0])
    best = None
    for e in rungs:
        best = minimize(negative_kl, x, args=(e,), method="Nelder-Mead", options=opts)
        x = best.x
    seeds = [
        (0.25, 1.2, -0.8, 0.0, -0.4),
        (0.12, 0.9, -0.5, 0.0, -0.25),
    ]
    seeds += [
        (rng.uniform(0.02, math.pi / 4), *rng.uniform(-1.5, 1.5, size=2), 0.0,
         rng.uniform(-0.8, 0.8))
        for _ in range(2)
    ]
    for x0 in seeds:
        res = minimize(
            negative_kl,
            np.asarray(x0, dtype=float),
            args=(eta,),
            method="Nelder-Mead",
            options=opts,
        )
        if res.fun < best.fun - 1e-10:
            best = res
    t, pa, pb, ga, gb = best.x
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
