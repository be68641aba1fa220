"""Reference computations the benchmark checks `qpe` against.

Nothing here imports `qpe`: every value is rebuilt from the physics or the
arithmetic directly (explicit Born-rule projectors from cos/sin and `kron`,
packed-word parities over GF(2), a `cumsum` over the records, closed-form
CHSH values, eigendecompositions), so a fault in the program cannot hide
behind the same fault in its check.
"""

from __future__ import annotations

import math

import numpy as np

_I2 = np.eye(2)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
REL_CUT = 1e-12  # eigenvalues below this share of the largest count as zero
SAMPLES = 48  # configurations sampled against each certificate's f_upper


def station_projector(outcome: int, angle: float) -> np.ndarray:
    """``(I + (-1)^outcome (cos(angle) Z + sin(angle) X)) / 2``."""
    sign = 1.0 if outcome == 0 else -1.0
    return (_I2 + sign * (math.cos(angle) * _Z + math.sin(angle) * _X)) / 2.0


def product_projector(c: int, z: int, theta) -> np.ndarray:
    """Two-station projector for packed ``c``/``z`` (bit i is station i).

    Input 0 measures along z; input 1 at the station angle ``theta[i]``.
    Station 0 is the left ``kron`` factor.
    """
    out = np.eye(1)
    for i, angle in enumerate(theta):
        zi = (z >> i) & 1
        out = np.kron(out, station_projector((c >> i) & 1, angle if zi else 0.0))
    return out


def born_table(rho: np.ndarray, angles_a, angles_b) -> dict:
    """Joint table ``{(a + 2b, x + 2y): p}`` of a two-qubit state, uniform inputs.

    ``angles_a[x]`` and ``angles_b[y]`` are the stations' measurement angles.
    """
    probs = {}
    for x in (0, 1):
        for y in (0, 1):
            for a in (0, 1):
                for b in (0, 1):
                    op = np.kron(
                        station_projector(a, angles_a[x]),
                        station_projector(b, angles_b[y]),
                    )
                    p = float(np.real(np.trace(rho @ op)))
                    probs[(a + 2 * b, x + 2 * y)] = 0.25 * max(p, 0.0)
    return probs


def chsh_of_table(probs: dict) -> float:
    """``E(00) + E(01) + E(10) - E(11)`` of a uniform-input joint table."""
    total = 0.0
    for x in (0, 1):
        for y in (0, 1):
            z = x + 2 * y
            corr = sum(
                (-1.0) ** (a + b) * probs[(a + 2 * b, z)]
                for a in (0, 1)
                for b in (0, 1)
            ) / 0.25
            total += -corr if x == y == 1 else corr
    return total


def chsh_e_family(theta: float) -> float:
    """Horodecki maximum for ``cos(theta)|00> + sin(theta)|11>``."""
    return 2.0 * math.sqrt(1.0 + math.sin(2.0 * theta) ** 2)


def chsh_w_family(p: float) -> float:
    """Horodecki maximum for the isotropic mixture of weight ``p``."""
    return 2.0 * math.sqrt(2.0) * p


def psd_power(m: np.ndarray, p: float) -> np.ndarray:
    """Power of a PSD matrix on its support (kernel maps to zero)."""
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    w = np.clip(w, 0.0, None)
    out = np.zeros_like(w)
    on = w > REL_CUT * max(w.max(), 0.0)
    out[on] = w[on] ** p
    return (v * out) @ v.conj().T


def canonical_functional(values: dict, beta: float, theta, tau: np.ndarray) -> float:
    """``sum_cz mu(z) F(cz) tr(tau^{1/alpha} P_cz)^alpha`` with uniform inputs."""
    alpha = 1.0 + beta
    k = len(theta)
    root = psd_power(tau, 1.0 / alpha)
    mu = 1.0 / (1 << k)
    total = 0.0
    for (c, z), weight in values.items():
        if weight == 0.0:
            continue
        t = float(np.real(np.trace(root @ product_projector(c, z, theta))))
        total += mu * weight * max(t, 0.0) ** alpha
    return total


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return m / np.real(np.trace(m))


def certificate_problems(
    values: dict,
    beta: float,
    cert: dict,
    gap_target: float,
    rng: np.random.Generator,
) -> list[str]:
    """Everything wrong with a supremum certificate, checked from outside.

    ``cert`` holds ``f_lower``, ``f_upper``, ``witness_theta`` and
    ``witness_tau`` (a complex matrix).  The functional at the witness must
    equal ``f_lower`` to 1e-9, and no sampled configuration may exceed
    ``f_upper``: half the samples are uniform over the certified angle cube
    ``[0, pi]^k`` with random states, half are perturbations of the witness.
    ``gap_target`` of ``None`` skips the gap test (unmet-target certificates).
    """
    problems = []
    f_lower, f_upper = cert["f_lower"], cert["f_upper"]
    theta = tuple(cert["witness_theta"])
    tau = np.asarray(cert["witness_tau"])
    at_witness = canonical_functional(values, beta, theta, tau)
    if abs(at_witness - f_lower) > 1e-9:
        problems.append(f"functional at witness {at_witness!r} != f_lower {f_lower!r}")
    if not f_lower <= f_upper:
        problems.append(f"f_lower {f_lower!r} above f_upper {f_upper!r}")
    if gap_target is not None and f_upper - f_lower > gap_target + 2e-9:
        problems.append(f"gap {f_upper - f_lower:.3g} above target {gap_target:.3g}")
    dim = tau.shape[0]
    worst = -math.inf
    for i in range(SAMPLES):
        if i % 2 == 0:
            th = tuple(rng.uniform(0.0, math.pi, size=len(theta)))
            t = random_density(rng, dim)
        else:
            th = tuple(np.clip(np.add(theta, rng.normal(0.0, 0.05, len(theta))), 0.0, math.pi))
            eps = 10.0 ** rng.uniform(-6.0, -1.0)
            t = (1.0 - eps) * tau + eps * random_density(rng, dim)
        worst = max(worst, canonical_functional(values, beta, th, t))
    if worst > f_upper:
        problems.append(f"sampled functional {worst!r} exceeds f_upper {f_upper!r}")
    return problems


def toeplitz_parities(seed_bits, input_bits, k_o: int) -> np.ndarray:
    """Seeded Toeplitz hash over GF(2) by packed-word AND and popcount.

    Output bit ``j`` is ``sum_i seed[j + n - 1 - i] * input[i] mod 2``.  With
    the seed packed so that bit ``m`` is ``seed[m]`` and the input packed
    reversed (bit ``m`` is ``input[n - 1 - m]``), that is the parity of
    ``(seed >> j) & input``.
    """
    seed = np.asarray(seed_bits, dtype=np.uint8) & 1
    data = np.asarray(input_bits, dtype=np.uint8) & 1
    n = data.size
    if seed.size != n + k_o - 1:
        raise ValueError("seed length must be len(input) + k_o - 1")
    s_word = int.from_bytes(np.packbits(seed, bitorder="little").tobytes(), "little")
    d_word = int.from_bytes(np.packbits(data[::-1], bitorder="little").tobytes(), "little")
    return np.array(
        [((s_word >> j) & d_word).bit_count() & 1 for j in range(k_o)], dtype=np.int64
    )


def record_bits(c: np.ndarray) -> np.ndarray:
    """Outcome bits of two-station records, station 0 first, record by record."""
    c = np.asarray(c, dtype=np.int64)
    return np.stack([c & 1, (c >> 1) & 1], axis=1).ravel()


def threshold_run(log2_table: np.ndarray, c: np.ndarray, z: np.ndarray, threshold: float):
    """``(crossed, log2_f, trials_used, tolerance)`` of a threshold test.

    The running sum is a `cumsum` over the records; the total of a stream
    that never crosses is a `bincount` over the 16 cells.  ``tolerance``
    bounds the roundoff between this summation and a sequential one.
    """
    vals = log2_table[c, z]
    if np.isneginf(vals).any():
        raise ValueError("a record has factor value zero")
    running = np.cumsum(vals)
    hits = np.flatnonzero(running >= threshold)
    tol = 1e-9 * max(1.0, float(np.abs(vals).sum()))
    if hits.size:
        i = int(hits[0])
        return True, float(running[i]), i + 1, tol
    counts = np.bincount(c * 4 + z, minlength=16)
    return False, float(counts @ log2_table.ravel()), int(c.size), tol


def renyi_reference(rho: np.ndarray, sigma: np.ndarray, beta: float, kind: str) -> float:
    """Sandwiched or Petz Renyi power by direct eigendecomposition."""
    alpha = 1.0 + beta
    if kind == "sandwiched":
        s = psd_power(sigma, -beta / (2.0 * alpha))
        w = np.linalg.eigvalsh(s @ rho @ s)
        return float((np.clip(w, 0.0, None) ** alpha).sum())
    if kind == "petz":
        value = np.trace(psd_power(rho, alpha) @ psd_power(sigma, -beta))
        return max(float(np.real(value)), 0.0)
    raise ValueError(f"unknown kind {kind!r}")


def canonical_blocks(theta, tau: np.ndarray) -> dict:
    """``{(c, z): mu sqrt(tau) P_cz sqrt(tau)}`` with uniform inputs."""
    root = psd_power(tau, 0.5)
    mu = 1.0 / (1 << len(theta))
    dim = 1 << len(theta)
    return {
        (c, z): mu * (root @ product_projector(c, z, theta) @ root)
        for z in range(dim)
        for c in range(dim)
    }
