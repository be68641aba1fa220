"""Bell configurations: POVMs, canonical states, CHSH, reference families."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from qpe import models
from qpe.models import (
    _LD_STACK,
    BellConfig,
    CanonicalState,
    TrialDistribution,
    bits_of,
    canonical_cq_state,
    chsh_value,
    distribution_from_quantum,
    family_distribution,
    povm_vectors,
    _bfgs_max,
    _local_projection,
    _p_seed,
    _p_strength,
    _partially_entangled,
    _quantum_cond_table,
)
from qpe.quantum_core import HermitianOperator

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])

ROOT2 = math.sqrt(2.0)


def _ry(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]])


def _bell_state() -> np.ndarray:
    psi = np.zeros(4)
    psi[0] = psi[3] = 1.0 / ROOT2
    return psi


class TestBitPacking:
    def test_round_trip(self):
        for width in (1, 2, 3):
            for value in range(1 << width):
                bits = bits_of(value, width)
                assert sum(b << i for i, b in enumerate(bits)) == value

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bits_of(4, 2)
        with pytest.raises(ValueError):
            bits_of(-1, 2)


def _projectors(angles) -> np.ndarray:
    """``P[z, c]``: outer products of the :func:`povm_vectors` rows."""
    d = 1 << len(angles)
    V = povm_vectors(angles)
    return (V[:, :, None] * V[:, None, :]).reshape(d, d, d, d)


def _qubit_projector(c: int, t: float) -> np.ndarray:
    """``(I + (-1)**c (cos t Z + sin t X)) / 2``."""
    direction = math.cos(t) * np.diag([1.0, -1.0]) + math.sin(t) * SIGMA_X
    return (np.eye(2) + (1 - 2 * c) * direction) / 2.0


class TestQubitPovm:
    def test_setting_zero_is_z_projector(self):
        for phi in (-1.0, 0.0, 2.0):
            P = _projectors((phi,))
            assert np.allclose(P[0, 0], np.diag([1.0, 0.0]))
            assert np.allclose(P[0, 1], np.diag([0.0, 1.0]))

    def test_x_measurement(self):
        got = _projectors((math.pi / 2.0,))[1, 1]
        assert np.allclose(got, (np.eye(2) - SIGMA_X) / 2.0)

    def test_completeness(self):
        rng = np.random.default_rng(20)
        for phi in rng.uniform(-math.pi + 1e-9, math.pi, size=100):
            P = _projectors((phi,))
            assert np.allclose(P[1, 0] + P[1, 1], np.eye(2), atol=1e-12)
            for c in (0, 1):
                assert np.allclose(P[1, c], _qubit_projector(c, phi), atol=1e-12)

    def test_rank_one_projector(self):
        rng = np.random.default_rng(21)
        for phi in rng.uniform(-math.pi + 1e-9, math.pi, size=20):
            p = _projectors((phi,))[1, 0]
            assert np.allclose(p @ p, p, atol=1e-12)
            assert abs(np.trace(p) - 1.0) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            BellConfig.uniform(())
        with pytest.raises(ValueError):
            BellConfig.uniform((3.5,))
        with pytest.raises(ValueError):
            BellConfig.uniform((0.0, -math.pi))


class TestPovmTensor:
    def test_single_station_reduction(self):
        """A two-station projector is the Kronecker product of the stations'."""
        rng = np.random.default_rng(22)
        for _ in range(20):
            angles = tuple(rng.uniform(-1.5, 1.5, size=2))
            P = _projectors(angles)
            Pa, Pb = _projectors(angles[:1]), _projectors(angles[1:])
            for c in range(4):
                for z in range(4):
                    want = np.kron(Pa[z & 1, c & 1], Pb[z >> 1, c >> 1])
                    assert np.allclose(P[z, c], want, atol=1e-12)

    def test_aligned_angles_are_diagonal(self):
        for m in _projectors((0.0, 0.0)).reshape(16, 4, 4):
            assert np.abs(m - np.diag(np.diag(m))).max() <= 1e-12

    def test_completeness(self):
        rng = np.random.default_rng(23)
        for k in (1, 2, 3):
            P = _projectors(tuple(rng.uniform(-1.5, 1.5, size=k)))
            for z in range(1 << k):
                assert np.allclose(P[z].sum(axis=0), np.eye(1 << k), atol=1e-12)

    def test_projector_property(self):
        rng = np.random.default_rng(24)
        for m in _projectors(tuple(rng.uniform(-1.5, 1.5, size=2))).reshape(16, 4, 4):
            assert np.abs(m @ m - m).max() <= 1e-12
            assert np.linalg.matrix_rank(m) == 1

    def test_vector_spans_projector(self, povm_vector):
        rng = np.random.default_rng(25)
        config = BellConfig.uniform(tuple(rng.uniform(-1.5, 1.5, size=2)))
        singles = []
        for z in range(4):
            for c in range(4):
                v = povm_vector(config, c, z)
                want = np.kron(
                    _qubit_projector(c & 1, config.angles[0] if z & 1 else 0.0),
                    _qubit_projector(c >> 1, config.angles[1] if z >> 1 else 0.0),
                )
                assert np.allclose(np.outer(v, v), want, atol=1e-12)
                singles.append(v)
        assert povm_vectors(config.angles).tobytes() == np.array(singles).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stacks_match_single_configurations(self, k, povm_vector):
        """A ``(P, k)`` or ``(2, 3, k)`` stack of angles gives the stack of
        single-configuration grids, and each grid the ``np.kron`` chain of
        the fixture, bit for bit; row ``z * 2**k + c`` is ``(c, z)``."""
        rng = np.random.default_rng(27 + k)
        d = 1 << k
        for lead in ((5,), (2, 3)):
            angles = rng.uniform(-math.pi + 1e-9, math.pi, size=lead + (k,))
            V = povm_vectors(angles)
            assert V.shape == lead + (d * d, d)
            for idx in np.ndindex(*lead):
                config = BellConfig.uniform(tuple(angles[idx]))
                kron = [povm_vector(config, c, z) for z in range(d) for c in range(d)]
                assert V[idx].tobytes() == povm_vectors(angles[idx]).tobytes()
                assert V[idx].tobytes() == np.array(kron).tobytes()


class TestCanonicalCqState:
    def test_maximally_mixed_symmetry(self):
        config = BellConfig.uniform((math.pi / 2.0,))
        s = CanonicalState(config, HermitianOperator(np.eye(2) / 2.0))
        rho = canonical_cq_state(s)
        for key in rho.keys():
            assert abs(rho.block(*key).trace() - 0.25) <= 1e-12

    def test_normalization_and_marginals(self):
        rng = np.random.default_rng(26)
        config = BellConfig.uniform(tuple(rng.uniform(-1.5, 1.5, size=2)))
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        tau = a @ a.conj().T
        tau /= np.trace(tau).real
        rho = canonical_cq_state(CanonicalState(config, HermitianOperator(tau)))
        assert abs(rho.trace_total() - 1.0) <= 1e-10
        for z in range(4):
            assert abs(rho.marginal(z).trace() - 0.25) <= 1e-12

    def test_bell_state_reaches_tsirelson(self):
        """A rotated Bell state in canonical form hits 2 sqrt(2)."""
        rot = np.kron(np.eye(2), _ry(math.pi / 4.0))
        v = rot @ _bell_state()
        config = BellConfig.uniform((-math.pi / 2.0, math.pi / 2.0))
        rho = canonical_cq_state(
            CanonicalState(config, HermitianOperator(np.outer(v, v)))
        )
        probs = {key: rho.block(*key).trace() for key in rho.keys()}
        assert abs(chsh_value(TrialDistribution(2, 2, probs)) - 2.0 * ROOT2) <= 1e-9

    def test_dimension_mismatch_rejected(self):
        config = BellConfig.uniform((0.0, 0.0))
        with pytest.raises(ValueError):
            CanonicalState(config, HermitianOperator(np.eye(2) / 2.0))


class TestChshValue:
    def test_deterministic_extreme(self):
        probs = {(c, z): 0.25 if c == 0 else 0.0 for c in range(4) for z in range(4)}
        assert abs(chsh_value(TrialDistribution(2, 2, probs)) - 2.0) <= 1e-12

    def test_uniform_outputs(self):
        probs = {(c, z): 1.0 / 16.0 for c in range(4) for z in range(4)}
        assert abs(chsh_value(TrialDistribution(2, 2, probs))) <= 1e-12

    def test_optimal_entangled_value(self, nu_e):
        assert abs(chsh_value(nu_e) - 2.0 * ROOT2) <= 1e-9

    def test_rejects_nonuniform_inputs(self):
        probs = {(c, z): (0.4 if z == 0 else 0.2) / 4.0 for c in range(4) for z in range(4)}
        nu = TrialDistribution(2, 2, probs)
        with pytest.raises(ValueError):
            chsh_value(nu)

    def test_rejects_single_station(self):
        nu = TrialDistribution(1, 1, {(c, z): 0.25 for c in range(2) for z in range(2)})
        with pytest.raises(ValueError):
            chsh_value(nu)


class TestTrialDistribution:
    def test_json_round_trip(self, nu_e):
        back = TrialDistribution.from_json(nu_e.to_json())
        assert back.c_bits == nu_e.c_bits and back.z_bits == nu_e.z_bits
        for key, p in nu_e.probs.items():
            assert abs(back.probs[key] - p) <= 1e-15

    @pytest.mark.parametrize("station", [0, 1])
    def test_signaling_rejected(self, station):
        # One station outputs its own setting ONLY when the other's setting
        # is 1; the other station's outcome is uniform.
        probs = {}
        for x in (0, 1):
            for y in (0, 1):
                for a in (0, 1):
                    for b in (0, 1):
                        own, other, out = (x, y, a) if station == 0 else (y, x, b)
                        hit = out == (own if other == 1 else 0)
                        probs[(a + 2 * b, x + 2 * y)] = 0.25 * hit * 0.5
        match = f"station-{station} marginal signals station {1 - station}"
        with pytest.raises(ValueError, match=match):
            TrialDistribution(2, 2, probs)

    def test_negative_probability_rejected(self):
        probs = {(c, z): 1.0 / 16.0 for c in range(4) for z in range(4)}
        probs[(0, 0)] = -0.01
        probs[(1, 0)] = 1.0 / 16.0 + 0.01
        with pytest.raises(ValueError):
            TrialDistribution(2, 2, probs)

    def test_incomplete_grid_rejected(self):
        probs = {(c, z): 1.0 / 12.0 for c in range(3) for z in range(4)}
        with pytest.raises(ValueError):
            TrialDistribution(2, 2, probs)

    def test_wide_grid_refused_by_its_count(self, monkeypatch):
        """A table far smaller than its declared grid is refused before the
        grid is enumerated: nothing is sized by the bit widths."""

        def refuse(*shape):
            raise AssertionError(f"grid {shape} enumerated")

        monkeypatch.setattr(np, "ndindex", refuse)
        text = '{"c_bits": 1, "z_bits": 40, "probs": [[0, 0, 0.5], [1, 0, 0.5]]}'
        with pytest.raises(ValueError, match=r"must cover the full \(c, z\) grid"):
            TrialDistribution.from_json(text)

    @pytest.mark.parametrize("bits", [1, 2])
    @pytest.mark.parametrize("cell", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_probability_refused_by_its_cell(self, bits, cell):
        """A NaN passes every comparison the other checks make, so it is
        refused by name, in JSON (the ``NaN`` literal) and in an array."""
        n = 1 << bits
        rows = [[c, z, 1.0 / (n * n)] for c in range(n) for z in range(n)]
        text = json.dumps({"c_bits": bits, "z_bits": bits, "probs": rows})
        text = text.replace(f"[0, 1, {1.0 / (n * n)!r}]", f"[0, 1, {cell}]")
        with pytest.raises(ValueError, match=r"non-finite probability at \(0, 1\)"):
            TrialDistribution.from_json(text)
        joint = np.full((n, n), 1.0 / (n * n))
        joint[0, 1] = float(cell.lower().replace("infinity", "inf"))
        with pytest.raises(ValueError, match=r"non-finite probability at \(0, 1\)"):
            TrialDistribution(bits, bits, joint)

    @pytest.mark.parametrize(
        "row",
        ["[0, 0, true]", "[true, 0, 0.25]", "[0, false, 0.25]"],
        ids=["value", "outcome", "input"],
    )
    def test_json_booleans_refused(self, row):
        rows = [[c, z, 0.25] for c in range(2) for z in range(2)]
        text = json.dumps({"c_bits": 1, "z_bits": 1, "probs": rows})
        text = text.replace("[1, 0, 0.25]", row)
        with pytest.raises(ValueError, match=r"distribution JSON row \[.*\] is not a list"):
            TrialDistribution.from_json(text)

    def test_array_and_mapping_inputs_give_one_distribution(self, nu_e):
        """A ``(c, z)`` mapping and its array build the same arrays and JSON;
        a roundoff negative is clipped to 0, a -0.0 kept as ``max(p, 0.0)``
        keeps it, and a wrong shape refused."""
        small = np.array([[-1e-13, 0.5], [0.5 + 1e-13, -0.0]])
        for bits, joint in ((2, nu_e.joint), (1, small)):
            probs = {(c, z): float(joint[c, z]) for z in range(1 << bits) for c in range(1 << bits)}
            a, b = TrialDistribution(bits, bits, probs), TrialDistribution(bits, bits, joint)
            for name in ("joint", "mu", "cond"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            assert a.to_json() == b.to_json() and list(a.probs) == sorted(probs)
        assert a.joint[0, 0] == 0.0 and math.copysign(1.0, a.joint[1, 1]) == -1.0
        assert '[1, 1, -0.0]' in a.to_json()
        with pytest.raises(ValueError, match=r"must cover the full \(c, z\) grid"):
            TrialDistribution(2, 2, nu_e.joint[:, :2])

    def test_input_marginal(self, nu_e):
        assert abs(nu_e.mu.sum() - 1.0) <= 1e-12
        assert np.abs(nu_e.mu - 0.25).max() <= 1e-9

    def test_arrays_agree_with_probs_and_are_read_only(self, nu_e):
        """``joint``, ``mu`` and ``cond`` agree with ``probs`` and cannot be
        written."""
        for key, p in nu_e.probs.items():
            assert nu_e.joint[key] == p
            assert nu_e.cond[key] == p / sum(nu_e.probs[(c, key[1])] for c in range(4))
        assert np.array_equal(nu_e.mu, nu_e.joint.sum(axis=0))
        for arr in (nu_e.joint, nu_e.mu, nu_e.cond):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_cond_is_zero_on_an_unused_input(self):
        nu = TrialDistribution(1, 1, {(0, 0): 0.25, (1, 0): 0.75, (0, 1): 0.0, (1, 1): 0.0})
        assert np.array_equal(nu.mu, [1.0, 0.0])
        assert np.array_equal(nu.cond, [[0.25, 0.0], [0.75, 0.0]])


class TestDistributionFromQuantum:
    def test_efficiency_domain(self):
        rho = np.outer(_bell_state(), _bell_state())
        with pytest.raises(ValueError):
            distribution_from_quantum(rho, (0.0, 1.0), (0.0, 1.0), efficiency=0.0)
        with pytest.raises(ValueError):
            distribution_from_quantum(rho, (0.0, 1.0), (0.0, 1.0), efficiency=1.5)

    def test_no_click_binned_into_outcome_one(self):
        """With efficiency eta, a z-aligned |00> gives P(a=0|x=0) = eta."""
        rho = np.zeros((4, 4))
        rho[0, 0] = 1.0
        nu = distribution_from_quantum(rho, (0.0, 1.0), (0.0, 1.0), efficiency=0.5)
        p0 = nu.cond[[0, 2], 0].sum()
        assert abs(p0 - 0.5) <= 1e-12

    def test_born_rule_on_mixed_states(self):
        """Every entry is tr(rho Ma (x) Mb) / 4 with lossy station effects."""
        rng = np.random.default_rng(233)
        z_op = np.diag([1.0, -1.0])
        for _ in range(10):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            angles_a = tuple(rng.uniform(-math.pi, math.pi, size=2))
            angles_b = tuple(rng.uniform(-math.pi, math.pi, size=2))
            # Down to the P family's (2/3, 1] domain, the bound included.
            eta = 1.0 - float(rng.uniform(0.0, 1.0 / 3.0 - 1e-3))

            def effect(c, t):
                d = math.cos(t) * z_op + math.sin(t) * SIGMA_X
                proj = (np.eye(2) + (1 - 2 * c) * d) / 2.0
                return eta * proj + (1.0 - eta) * c * np.eye(2)

            nu = distribution_from_quantum(rho, angles_a, angles_b, eta)
            for x in (0, 1):
                for y in (0, 1):
                    for c_a in (0, 1):
                        for c_b in (0, 1):
                            m = np.kron(effect(c_a, angles_a[x]), effect(c_b, angles_b[y]))
                            want = 0.25 * np.trace(rho @ m).real
                            got = nu.probs[(c_a + 2 * c_b, x + 2 * y)]
                            assert abs(got - want) <= 1e-14


class TestFamilies:
    def test_werner_limit_is_bell_state(self, nu_e):
        nu_w = family_distribution("W", 1.0)
        for key, p in nu_e.probs.items():
            assert abs(nu_w.probs[key] - p) <= 1e-9

    def test_werner_violation_increases_with_p(self):
        grid = np.linspace(0.72, 1.0, 10)
        values = [chsh_value(family_distribution("W", float(p))) for p in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("theta", [0.0, 0.1, 0.2, 0.4, 0.45, math.pi / 4.0])
    def test_entangled_family_reaches_horodecki_maximum(self, theta):
        nu = family_distribution("E", theta)
        want = 2.0 * math.sqrt(1.0 + math.sin(2.0 * theta) ** 2)
        assert abs(chsh_value(nu) - want) <= 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.75, 1.0])
    def test_werner_family_reaches_horodecki_maximum(self, p):
        nu = family_distribution("W", p)
        assert abs(chsh_value(nu) - 2.0 * ROOT2 * p) <= 1e-12

    @pytest.mark.parametrize("family, param", [("E", 0.2), ("W", 0.8), ("P", 0.9)])
    def test_tables_do_not_depend_on_seed(self, family, param):
        ref = family_distribution(family, param, seed=0).probs
        for seed in (1, 2):
            assert family_distribution(family, param, seed=seed).probs == ref

    def test_maximal_entanglement_at_tsirelson_settings(self):
        """E pi/4 is the Born table of Phi+ at A (0, pi/2), B (pi/4, -pi/4)."""
        phi = np.zeros(4)
        phi[0] = phi[3] = 1.0 / ROOT2
        rho = np.outer(phi, phi)
        angles_a, angles_b = (0.0, math.pi / 2.0), (math.pi / 4.0, -math.pi / 4.0)

        def proj(c, t):
            d = math.cos(t) * np.diag([1.0, -1.0]) + math.sin(t) * SIGMA_X
            return (np.eye(2) + (1 - 2 * c) * d) / 2.0

        nu = family_distribution("E", math.pi / 4.0)
        for x in (0, 1):
            for y in (0, 1):
                for a in (0, 1):
                    for b in (0, 1):
                        m = np.kron(proj(a, angles_a[x]), proj(b, angles_b[y]))
                        want = 0.25 * np.trace(rho @ m)
                        assert abs(nu.probs[(a + 2 * b, x + 2 * y)] - want) <= 1e-15

    def test_product_state_is_classical(self):
        nu = family_distribution("E", 0.0)
        assert abs(chsh_value(nu) - 2.0) <= 1e-7

    def test_detection_family_is_nonlocal(self):
        nu = family_distribution("P", 0.98)
        assert chsh_value(nu) > 2.0

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            family_distribution("E", 1.0)
        with pytest.raises(ValueError):
            family_distribution("W", 1.2)
        with pytest.raises(ValueError):
            family_distribution("P", 0.5)
        with pytest.raises(ValueError):
            family_distribution("X", 0.5)


def _plain_em_kl(cond: np.ndarray, gap: float) -> float:
    """Relative entropy to the local polytope by unaccelerated EM, stopped
    once ``log max g`` certifies the given gap."""
    mask = cond > 0.0
    nu = 0.25 * cond[mask]
    vals = _LD_STACK[:, mask]
    w = np.full(16, 1.0 / 16.0)
    while True:
        g = vals @ (nu / (w @ vals))
        if math.log(g.max()) < gap:
            return float(np.sum(nu * (np.log(cond[mask]) - np.log(w @ vals))))
        w = w * g
        w /= w.sum()


MU = np.full(4, 0.25)


def _uniform() -> np.ndarray:
    """A fresh uniform mixture of the 16 deterministic tables, an EM start."""
    return np.full(16, 1.0 / 16.0)


def _kl_to_local(cond: np.ndarray, mu: np.ndarray, weights=None) -> float:
    """Relative entropy (nats) from ``cond[c, z]`` to the local polytope.

    This is the statistical strength of van Dam, Gill and Gruenwald (IEEE
    Trans. Inf. Theory 51, 2812 (2005)), taken at ``_local_projection``'s
    table, so it exceeds the minimum by less than 1e-12.  It is never negative.
    """
    mask = cond > 0.0
    if weights is None:
        weights = _uniform()
    lam = _local_projection(cond, mu, weights)[mask]
    # Rounding can leave a local table a few 1e-17 below zero.
    w_cz = (mu[None, :] * cond)[mask]
    return max(0.0, float(np.sum(w_cz * (np.log(cond[mask]) - np.log(lam)))))


def _seeded_tables() -> list[np.ndarray]:
    """Twelve seeded tables: three W, three E and six with detector loss."""
    rng = np.random.default_rng(11)
    tables = [family_distribution("W", float(p)).cond
              for p in rng.uniform(0.5, 1.0, 3)]
    tables += [family_distribution("E", float(t)).cond
               for t in rng.uniform(0.05, math.pi / 4.0, 3)]
    for _ in range(6):
        t, ga, gb = rng.uniform(0.0, math.pi / 4.0), *rng.uniform(-0.8, 0.8, 2)
        pa, pb = rng.uniform(-1.5, 1.5, 2)
        # Ry(ga) kron Ry(gb) on the state, folded into the angles.
        tables.append(_quantum_cond_table(
            _partially_entangled(t), (-ga, pa - ga), (-gb, pb - gb),
            rng.uniform(0.7, 1.0)))
    return tables


class TestKlToLocal:
    def test_chsh_strength_of_maximal_violation(self, nu_e):
        """Van Dam, Gill and Gruenwald's strength of the Tsirelson table."""
        bits = _kl_to_local(nu_e.cond, MU) / math.log(2.0)
        assert abs(bits - 0.0462738469) <= 1e-10

    def test_local_mixture_has_zero_strength(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            cond = np.tensordot(rng.dirichlet(np.ones(16)), _LD_STACK, axes=1)
            assert 0.0 <= _kl_to_local(cond, MU) <= 1e-12

    def test_within_certified_gap_of_plain_em(self):
        for cond in _seeded_tables():
            ref = _plain_em_kl(cond, 1e-14)
            # The reference itself lies up to its own gap above the minimum.
            assert -2e-14 <= _kl_to_local(cond, MU) - ref <= 1e-12

    def test_warm_start_keeps_certified_gap(self):
        tables = _seeded_tables()
        for neighbour, cond in zip(tables[-1:] + tables[:-1], tables):
            ref = _plain_em_kl(cond, 1e-14)
            weights = _uniform()
            _local_projection(neighbour, MU, weights)
            assert -2e-14 <= _kl_to_local(cond, MU, weights) - ref <= 1e-12
            # The start now holds this table's own mixture; starve its
            # heaviest strategy, which the updates must revive.
            heaviest = np.argmax(weights)
            for starved in (1e-300, 0.0):
                start = weights.copy()
                start[heaviest] = starved
                assert -2e-14 <= _kl_to_local(cond, MU, start) - ref <= 1e-12

    def test_cycle_cap_raises(self, monkeypatch):
        cond = family_distribution("P", 0.68).cond
        monkeypatch.setattr(models, "_EM_CYCLES", 3)
        with pytest.raises(RuntimeError, match="after 3 cycles"):
            _local_projection(cond, MU, _uniform())


class TestBfgsMax:
    def test_stops_at_the_noise_floor(self):
        """A concave quadratic of value 1e-6 with 1e-16 noise: once the
        predicted gain is below 1e-13 of the value, further steps would only
        chase the noise."""
        rng = np.random.default_rng(5)
        calls = []

        def fun(x):
            calls.append(x)
            return (1e-6 * (1.0 - x @ x) + 1e-16 * rng.standard_normal(),
                    -2e-6 * x + 1e-16 * rng.standard_normal(x.size))

        x = _bfgs_max(fun, np.array([0.3, -0.2, 0.1]))
        assert np.linalg.norm(x) <= 1e-6
        assert len(calls) <= 10


class TestDetectionFamily:
    """P tables pinned to earlier searches: CHSH and relative entropy to the
    local polytope (nats, evaluated by plain EM to a gap of 1e-15).  The
    pins at 0.82, 0.9 and 0.98 come from a multistart search, the others
    from the Nelder-Mead continuation from eta = 1 that the Bell-operator
    seed replaced."""

    @pytest.mark.parametrize("eta, chsh, strength", [
        (0.72, 2.005966946, 2.687113698258251e-05),
        (0.75, 2.021031745, 1.523936631295887e-04),
        (0.8, 2.075835133, 9.258358635685147e-04),
        (0.82, 2.109802240, 1.575114051391313e-03),
        (0.85, 2.174816118, 3.098409013003363e-03),
        (0.9, 2.323625501, 7.712057099292085e-03),
        (0.95, 2.532960308, 1.624537522149258e-02),
        (0.98, 2.700511067, 2.435569075061780e-02),
        (1.0, 2.828427125, 3.207458648004852e-02),
    ])
    def test_pinned_points(self, eta, chsh, strength):
        nu = family_distribution("P", eta)
        assert abs(chsh_value(nu) - chsh) <= 1e-6
        assert _plain_em_kl(nu.cond, 1e-15) >= strength - 1e-12

    @pytest.mark.parametrize("eta", [0.68, 0.7])
    def test_nonlocal_near_eberhard_bound(self, eta):
        """Eberhard's bound leaves nonlocal tables at every eta > 2/3."""
        nu = family_distribution("P", eta)
        assert chsh_value(nu) > 2.0
        assert _plain_em_kl(nu.cond, 1e-15) > 0.0

    @pytest.mark.parametrize("eta", [0.68, 0.75, 0.9, 1.0])
    def test_seed_on_standard_orientation_at_grid_maximum(self, eta):
        """The seed's CHSH value is the Bell operator's top eigenvalue over
        all four single-minus sign patterns and the full 25 x 25 grid."""
        grid = np.linspace(0.0, math.pi, 25)
        obs = [eta * (math.cos(p) * np.diag([1.0, -1.0]) + math.sin(p) * SIGMA_X)
               - (1.0 - eta) * np.eye(2) for p in grid]
        ops = [
            sum((-1.0 if (x, y) == minus else 1.0)
                * np.kron(obs[i if x else 0], obs[j if y else 0])
                for x in (0, 1) for y in (0, 1))
            for minus in ((0, 0), (0, 1), (1, 0), (1, 1))
            for i in range(25) for j in range(25)
        ]
        ref = np.linalg.eigvalsh(np.array(ops))[:, -1].max()
        t, a0, a1, b0, b1 = _p_seed(eta)
        nu = distribution_from_quantum(_partially_entangled(t), (a0, a1), (b0, b1), eta)
        assert abs(chsh_value(nu) - ref) <= 1e-12

    def test_strength_gradient_matches_central_differences(self):
        rng = np.random.default_rng(41)
        h = 1e-5
        for eta in (0.95, 1.0):
            for _ in range(3):
                v = _p_seed(eta) + rng.normal(0.0, 0.2, 5)
                value, grad = _p_strength(v, eta, _uniform())
                assert value > 1e-3
                fd = np.array([
                    _p_strength(v + h * e, eta, _uniform())[0]
                    - _p_strength(v - h * e, eta, _uniform())[0]
                    for e in np.eye(5)
                ]) / (2.0 * h)
                assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)

    def test_full_efficiency_is_maximal_violation(self, nu_e):
        nu = family_distribution("P", 1.0)
        for key, p in nu_e.probs.items():
            assert abs(nu.probs[key] - p) <= 1e-6
