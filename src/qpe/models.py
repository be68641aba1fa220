"""(k,2,2) Bell-trial configurations, POVMs, canonical states, trial distributions.

Stations are binary-input binary-outcome.  Input 0 always measures along z;
input 1 measures in the xz-plane at a station angle ``phi``, so every
projector is ``v v^T`` for a real unit vector ``v``.  One table,
:func:`_station_table`, holds those vectors; product vectors (station 0 the
leftmost Kronecker factor), canonical blocks and the reference families'
Born tables are built from it, with detector loss a binning of
non-detections into outcome 1.  The detection-efficiency family starts at
the binned Bell operator's optimum and is refined by a NumPy BFGS on the
relative entropy to the local polytope.  Outcome and input tuples pack into
ints little-endian (bit ``i`` belongs to station ``i``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .quantum_core import CqDistribution, HermitianOperator, TOL_NORM

# Tolerance for the non-signaling checks on trial distributions.
TOL_NOSIG = 1e-10
# Tolerance on probability-table normalization.
TOL_PROB = 1e-12


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


def povm_vectors(angles: ArrayLike, c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Real unit vectors spanning the product projectors of ``(c[j], z[j])``.

    ``angles`` holds the ``k`` station angles along its last axis; leading
    axes stack configurations, and the result is ``(..., n, 2**k)``.  Each
    station measures setting 0 at angle 0 and setting 1 at its angle (see
    :func:`_station_table`).  Row ``j`` is the ``np.kron`` product, station 0
    leftmost, of the stations' vectors for the packed outcome ``c[j]`` and
    input ``z[j]``; one broadcast outer product per station performs the
    same multiplications as that chain, so the rows are bit-identical to it.
    """
    angles = np.asarray(angles, dtype=float)
    c, z = np.asarray(c), np.asarray(z)
    lead = angles.shape[:-1]
    table = _station_table(np.stack([np.zeros_like(angles), angles], -1))
    V = np.ones(lead + (c.size, 1))
    for i in range(angles.shape[-1]):
        S = table[..., i, (z >> i) & 1, (c >> i) & 1, :]
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
    """Blocks ``2**-k sqrt(tau) P_{c|z} sqrt(tau)`` over the full ``(c, z)`` grid.

    With ``P_{c|z} = v v^T`` for a row ``v`` of :func:`povm_vectors`, a block
    is ``conj(u) u^T`` for ``u = v^T sqrt(tau) / sqrt(2**k)``.  The ``u`` form
    one ``(2**k, 2**k, d)`` array indexed ``[z, c]``, and one broadcast outer
    product builds the distribution's ``(n_z, n_c, d, d)`` block stack.
    """
    d = s.config.dim
    z, c = np.divmod(np.arange(d * d), d)
    U = povm_vectors(s.config.angles, c, z) @ s.tau.power(0.5).matrix / math.sqrt(d)
    U = U.reshape(d, d, d)
    return CqDistribution(U.conj()[..., :, None] * U[..., None, :])


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


def _quantum_cond_table(
    rho: np.ndarray,
    angles_a: tuple[float, float],
    angles_b: tuple[float, float],
    eta: float,
) -> np.ndarray:
    """Conditional table ``cond[c, z]`` without distribution validation.

    The ideal table is ``Re v^T rho v`` over the 16 product vectors of the
    two stations' tables; detector loss then acts on each station's outcome
    as the column-stochastic ``m = [[eta, 0], [1 - eta, 1]]``, one
    ``kron(m, m)`` on the packed ``c = a + 2 b`` axis.
    """
    ta, tb = _station_table((angles_a, angles_b))
    # v[x, y, a, b] = kron(ta[x, a], tb[y, b]), station 0 leftmost.
    v = (ta[:, None, :, None, :, None] * tb[None, :, None, :, None, :]).reshape(16, 4)
    p = np.real(((v @ rho) * v).sum(axis=1)).reshape(2, 2, 2, 2)
    m = np.array([[eta, 0.0], [1.0 - eta, 1.0]])
    # ideal[a + 2 b, x + 2 y] = p[x, y, a, b], clipped at zero after the loss.
    ideal = p.transpose(3, 2, 1, 0).reshape(4, 4)
    return np.maximum(_kron2(m, m) @ ideal, 0.0)


def distribution_from_quantum(
    rho: np.ndarray,
    angles_a: tuple[float, float],
    angles_b: tuple[float, float],
    efficiency: float = 1.0,
    provenance: str = "",
) -> TrialDistribution:
    """Two-station trial distribution of a two-qubit state, uniform inputs.

    ``angles_a[x]`` is station 0's measurement angle under setting ``x``
    (likewise station 1), read by :func:`_station_table`.  With
    ``efficiency < 1`` each station's detector fires with that probability
    and non-detections are binned into outcome 1: the ideal table's outcome
    0 keeps weight ``eta`` and passes ``1 - eta`` to outcome 1.
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
        kron B_y`` over a 25 x 25 grid of setting-1 angles and the four CHSH
        sign patterns; its Schmidt decomposition gives ``t`` and one
        rotation ``Ry(g)`` per station, a shift of that station's angles by
        ``-g``.  BFGS on the exact gradient of the strength refines all five.
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


def _local_projection(cond: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The local table ``lam*[c, z]`` closest to ``cond[c, z]`` in relative entropy.

    The minimization over mixtures ``w`` of deterministic tables uses
    multiplicative (expectation-maximization) updates ``w_i <- w_i g_i`` with
    ``g_i = sum_p nu_p t_i(p) / lam(p)``, accelerated by SQUAREM (Varadhan
    and Roland, Scand. J. Stat. 35, 335 (2008)): two EM steps ``w -> w1 ->
    w2`` give ``r = w1 - w`` and ``v = w2 - 2 w1 + w``, and the cycle moves to
    ``w - 2 a r + a**2 v`` with ``a = min(-|r|/|v|, -1)``, halving ``a``
    toward ``-1`` (which is ``w2``) while any weight would be nonpositive.
    ``log max_i g_i`` bounds the remaining gap of the iterate it is evaluated
    at, and the loop returns only an iterate whose gap is below 1e-12.
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
    return np.maximum(np.tensordot(w, _LD_STACK, axes=1), 1e-300)


def _kl_to_local(cond: np.ndarray, mu: np.ndarray) -> float:
    """Relative entropy (nats) from ``cond[c, z]`` to the local polytope.

    This is the statistical strength of van Dam, Gill and Gruenwald (IEEE
    Trans. Inf. Theory 51, 2812 (2005)), taken at :func:`_local_projection`'s
    table, so it exceeds the minimum by less than 1e-12.  It is never negative.
    """
    mask = cond > 0.0
    lam = _local_projection(cond, mu)[mask]
    # Rounding can leave a local table a few 1e-17 below zero.
    w_cz = (mu[None, :] * cond)[mask]
    return max(0.0, float(np.sum(w_cz * (np.log(cond[mask]) - np.log(lam)))))


def _p_seed(eta: float) -> np.ndarray:
    """``(t, a0, a1, b0, b1)`` at the binned Bell operator's optimum on a grid."""
    grid = np.linspace(0.0, math.pi, 25)
    pauli_z, pauli_x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    obs = eta * (np.cos(grid)[:, None, None] * pauli_z
                 + np.sin(grid)[:, None, None] * pauli_x) - (1.0 - eta) * np.eye(2)
    obs = np.stack([np.broadcast_to(obs[0], obs.shape), obs])  # [x, angle]
    pairs = np.einsum("xiac,yjbd->xyijabcd", obs, obs).reshape(2, 2, 25, 25, 4, 4)
    signs = 1.0 - 2.0 * np.eye(4).reshape(4, 2, 2)  # one minus sign per pattern
    lam, vec = np.linalg.eigh(np.einsum("sxy,xyij...->sij...", signs, pairs))
    s, i, j = np.unravel_index(np.argmax(lam[..., -1]), lam.shape[:-1])
    u, schmidt, wt = np.linalg.svd(vec[s, i, j, :, -1].reshape(2, 2))
    # A reflection in u or w moves into the sign of the second Schmidt weight;
    # the first columns then give the stations' rotations Ry(ga), Ry(gb).
    t = math.atan2(np.linalg.det(u) * np.linalg.det(wt) * schmidt[1], schmidt[0])
    ga, gb = 2.0 * math.atan2(u[1, 0], u[0, 0]), 2.0 * math.atan2(wt[0, 1], wt[0, 0])
    return np.array([t, -ga, grid[i] - ga, -gb, grid[j] - gb])


def _p_strength(v: np.ndarray, eta: float) -> tuple[float, np.ndarray]:
    """Strength of the P table at ``v = (t, a0, a1, b0, b1)``, and its gradient.

    The table is :func:`_quantum_cond_table`'s for ``cos(t)|00> + sin(t)|11>``
    at angles ``(a0, a1)`` and ``(b0, b1)``.  By the envelope theorem the
    strength's derivative in ``cond`` is ``mu (log(cond / lam*) + 1)`` at the
    closest local table ``lam*``.  A Born probability is an amplitude squared;
    the amplitude's derivative in ``t`` is the amplitude at ``t + pi/2``, and
    in a station angle half the amplitude at that angle ``+ pi``.
    """
    # Rows: v, then t + pi/2, then station 0's angles + pi, then station 1's.
    pts = v + np.array([[0.0] * 5, [math.pi / 2.0, 0, 0, 0, 0],
                        [0, math.pi, math.pi, 0, 0], [0, 0, 0, math.pi, math.pi]])
    coef = np.stack([np.cos(pts[:, 0]), np.sin(pts[:, 0])], -1)
    ta, tb = _station_table(pts[:, 1:3]), _station_table(pts[:, 3:])
    amp = np.einsum("nk,nxak,nybk->nxyab", coef, ta, tb)
    m = np.array([[eta, 0.0], [1.0 - eta, 1.0]])
    loss = _kron2(m, m)
    # As in _quantum_cond_table: ideal[a + 2 b, x + 2 y] = amp[0, x, y, a, b]**2.
    cond = np.maximum(loss @ (amp[0] ** 2).transpose(3, 2, 1, 0).reshape(4, 4), 0.0)
    mask = cond > 0.0
    lam = _local_projection(cond, np.full(4, 0.25))
    log_ratio = np.log(np.where(mask, cond, 1.0) / lam)
    d_cond = np.where(mask, 0.25 * (log_ratio + 1.0), 0.0)
    d_amp = amp[0] * (loss.T @ d_cond).reshape(2, 2, 2, 2).transpose(3, 2, 1, 0)
    grad = [2.0 * np.sum(d_amp * amp[1]), *(d_amp * amp[2]).sum(axis=(1, 2, 3)),
            *(d_amp * amp[3]).sum(axis=(0, 2, 3))]
    return float(np.sum(0.25 * cond * log_ratio)), np.array(grad)


def _bfgs_max(fun, x: np.ndarray) -> np.ndarray:
    """Maximize ``fun(x) -> (value, gradient)`` by BFGS with Armijo backtracking,
    until an accepted step gains at most 1e-13 of the value or none is found."""
    f, g = fun(x)
    h = np.eye(x.size)
    for it in range(200):
        d = h @ g
        for step in 0.5 ** np.arange(50):
            f1, g1 = fun(x + step * d)
            if f1 >= f + 1e-4 * step * (g @ d):
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
    t, a0, a1, b0, b1 = _bfgs_max(lambda v: _p_strength(v, eta), _p_seed(eta))
    rho = _partially_entangled(t)
    # The divergence is blind to which input is labeled 0, so the optimizer may
    # return any of four equally strong setting relabelings; keep the one that
    # puts the violation on the standard CHSH orientation.
    candidates = [
        distribution_from_quantum(rho, aa, bb, eta, provenance=f"P eta={eta:.12g}")
        for aa in ((a0, a1), (a1, a0))
        for bb in ((b0, b1), (b1, b0))
    ]
    return max(candidates, key=chsh_value)
