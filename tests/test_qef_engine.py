"""Estimation-factor engine: the defining inequality, record sums, certification."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from qpe import qef_engine
from qpe.models import BellConfig
from qpe.pef_opt import optimize_pef_polytope
from qpe.qef_engine import (
    CertificationResult,
    _BlockProblem,
    _config_for,
    _invariant_blocks,
    _weights_and_vectors,
    TrialFunction,
    certify_fmax,
    chain,
    constant_one,
    inner_max_tau,
    interval_bound,
    power_reduce,
    q_alpha,
    qef_inequality_check,
)
from qpe.quantum_core import CqDistribution, HermitianOperator, RenyiOrder


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestTrialFunction:
    def test_role_validation(self):
        with pytest.raises(ValueError):
            TrialFunction({(0, 0): 1.0}, 0.1, role="mystery")
        with pytest.raises(ValueError):
            TrialFunction({(0, 0): 1.0}, None, role="qef")
        with pytest.raises(ValueError):
            TrialFunction({(0, 0): -0.5}, 0.1, role="qef")
        with pytest.raises(ValueError):
            TrialFunction({(0, 0): 1.0}, 0.7, role="qefp")

    def test_ee_admits_minus_infinity(self):
        F = TrialFunction({(0, 0): -math.inf, (1, 0): 2.0}, None, role="ee")
        assert F.value(0, 0) == -math.inf
        with pytest.raises(ValueError):
            TrialFunction({(0, 0): -math.inf}, 0.1, role="qef")

    def test_alpha_and_scaling(self):
        F = constant_one(2, 2, 0.25)
        assert abs(F.alpha - 1.25) <= 1e-15
        G = F.scaled(0.5)
        assert all(abs(v - 0.5) <= 1e-15 for v in G.values.values())
        assert abs(G.max_abs_log() - math.log(2.0)) <= 1e-12

    def test_json_round_trip(self):
        F = TrialFunction(
            {(0, 1): 0.5, (1, 0): 2.0, (0, 0): 1.0, (1, 1): 1.5}, 0.3, role="pef"
        )
        back = TrialFunction.from_json(F.to_json())
        assert back.values == F.values
        assert back.beta == F.beta
        assert back.role == "pef"
        assert TrialFunction.from_json(F.to_json(), role="qef").role == "qef"

    def test_json_round_robin_keys(self):
        F = TrialFunction({(0, 0, 0): 1.0, (0, 0, 1): 2.0}, 0.3)
        back = TrialFunction.from_json(F.to_json())
        assert back.values == F.values


class TestQAlpha:
    def test_constant_function_at_most_one(self):
        """F = 1 obeys the defining inequality at every canonical state."""
        rng = np.random.default_rng(30)
        for _ in range(100):
            k = int(rng.integers(1, 3))
            F = constant_one(k, k, float(rng.uniform(0.05, 1.0)))
            theta = rng.uniform(0.0, math.pi, size=k)
            tau = np.real(random_density(rng, 1 << k))
            tau = tau / np.trace(tau)
            assert q_alpha(F, theta, tau) <= 1.0 + 1e-10

    def test_equality_at_aligned_pure_state(self):
        F = constant_one(1, 1, 0.5)
        tau = np.diag([1.0, 0.0])
        assert abs(q_alpha(F, (0.0,), tau) - 1.0) <= 1e-12

    def test_hand_value_maximally_mixed(self):
        """k=1, theta=pi/2, F=1, alpha=2: four terms (1/2)(1/sqrt2)^2 sum to 1."""
        F = constant_one(1, 1, 1.0)
        got = q_alpha(F, (math.pi / 2.0,), np.eye(2) / 2.0)
        assert abs(got - 1.0) <= 1e-12

    def test_concavity_midpoint(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            F = constant_one(2, 2, 0.3).scaled(float(rng.uniform(0.5, 2.0)))
            theta = rng.uniform(0.0, math.pi, size=2)
            t1 = np.real(random_density(rng, 4))
            t2 = np.real(random_density(rng, 4))
            t1, t2 = t1 / np.trace(t1), t2 / np.trace(t2)
            mid = q_alpha(F, theta, (t1 + t2) / 2.0)
            avg = (q_alpha(F, theta, t1) + q_alpha(F, theta, t2)) / 2.0
            assert mid >= avg - 1e-10

    def test_dimension_mismatch(self):
        F = constant_one(2, 2, 0.3)
        with pytest.raises(ValueError):
            q_alpha(F, (0.0, 0.0), np.eye(2) / 2.0)


class TestQefInequalityCheck:
    def test_constant_function_nonnegative_slack(self, canonical_sampler):
        rng = np.random.default_rng(32)
        F = constant_one(2, 2, 0.3)
        for _ in range(50):
            rho = canonical_sampler(rng)
            assert qef_inequality_check(F, rho) >= -1e-10

    def test_certified_factor_slack(self, qef02, canonical_sampler):
        """Dividing by the certified supremum keeps the slack nonnegative."""
        rng = np.random.default_rng(33)
        worst = math.inf
        for _ in range(1000):
            rho = canonical_sampler(rng)
            worst = min(worst, qef_inequality_check(qef02, rho))
        assert worst >= -1e-10

    def test_diagonal_matches_classical_oracle(self):
        """On classical tables the slack is 1 - sum nu(cz) F(cz) nu(c|z)^beta."""
        rng = np.random.default_rng(34)
        beta = 0.2
        for _ in range(100):
            joint = rng.dirichlet(np.ones(8)).reshape(2, 4)
            rho = CqDistribution.classical(
                {(c, z): joint[c, z] for c in range(2) for z in range(4)}
            )
            F = TrialFunction(
                {(c, z): float(rng.uniform(0.0, 1.5)) for c in range(2) for z in range(4)},
                beta,
                role="qef",
            )
            nu_z = joint.sum(axis=0)
            oracle = 1.0 - sum(
                joint[c, z] * F.value(c, z) * (joint[c, z] / nu_z[z]) ** beta
                for c in range(2)
                for z in range(4)
                if joint[c, z] > 0.0
            )
            assert abs(qef_inequality_check(F, rho) - oracle) <= 1e-10


class TestChain:
    def test_all_ones_accumulate_zero(self):
        F = constant_one(2, 2, 0.1)
        records = [(c, z) for c in range(4) for z in range(4)]
        running = chain(F, records)
        assert running.shape == (16,)
        assert not running.any()

    def test_law_of_large_numbers(self):
        """The per-trial mean of log F approaches its expectation."""
        rng = np.random.default_rng(35)
        values = {(0, 0): 1.3, (1, 0): 0.7, (0, 1): 1.1, (1, 1): 0.9}
        F = TrialFunction(values, 0.1, role="qef")
        keys = list(values)
        p = np.array([0.4, 0.1, 0.2, 0.3])
        logs = np.log([values[k] for k in keys])
        n = 100000
        draws = rng.choice(len(keys), size=n, p=p)
        records = [keys[i] for i in draws]
        total = chain(F, records, k=1)[-1] * math.log(2.0)
        expect = float(p @ logs)
        se = float(np.sqrt(p @ (logs - expect) ** 2 / n))
        assert abs(total / n - expect) <= 3.0 * se

    def test_zero_value_flags_minus_infinity(self):
        F = TrialFunction({(0, 0): 0.0, (1, 0): 2.0}, 0.1, role="qef")
        with pytest.warns(RuntimeWarning, match="record 2"):
            out = chain(F, [(1, 0), (0, 0), (1, 0)], k=1)
        assert out.tolist() == [1.0, -math.inf, -math.inf]

    def test_matches_sequential_loop(self):
        """Each running sum equals a record-by-record ``log2`` loop bit for bit."""
        rng = np.random.default_rng(36)
        values = {(c, z): float(rng.uniform(0.5, 1.7)) for c in range(4) for z in range(4)}
        F = TrialFunction(values, 0.2, role="qef")
        records = rng.integers(0, 4, size=(3000, 2))
        total, want = 0.0, []
        for c, z in records:
            total += math.log2(values[(int(c), int(z))])
            want.append(total)
        assert chain(F, records).tolist() == want

    def test_records_checked(self):
        F = constant_one(2, 2, 0.1)
        assert chain(F, []).shape == (0,)
        with pytest.raises(ValueError, match="record 2: outcome 4 does not fit in 2 bits"):
            chain(F, [(0, 0), (4, 0)])
        with pytest.raises(ValueError, match=r"record \(1, 9\) outside the factor's domain"):
            chain(F, [(0, 0), (1, 9)])
        with pytest.raises(ValueError, match="outside the factor's domain"):
            chain(F, [(0, -1)])
        with pytest.raises(ValueError, match="pairs"):
            chain(F, [(0, 0, 0)])

    def test_two_trial_chained_inequality(self):
        """Products of per-trial factors stay factors on composed states.

        Trial-2 model states depend on the trial-1 outcome and input; the
        composed quantum memory is the tensor product (dimension 4).  Any
        pointwise-below-one function is a factor, so random such pairs give
        chained factors whose composed slack must stay nonnegative.
        """
        rng = np.random.default_rng(36)
        beta = 0.3
        for _ in range(20):
            f1 = {
                (c, z): float(rng.uniform(0.2, 1.0)) for c in (0, 1) for z in (0, 1)
            }
            f2 = {
                (c, z): float(rng.uniform(0.2, 1.0)) for c in (0, 1) for z in (0, 1)
            }
            p1 = rng.dirichlet(np.ones(2), size=2)  # p1[z1][c1]
            blocks = {}
            for c1 in (0, 1):
                for z1 in (0, 1):
                    rho1 = 0.5 * p1[z1][c1] * random_density(rng, 2)
                    p2 = rng.dirichlet(np.ones(2), size=2)
                    for c2 in (0, 1):
                        for z2 in (0, 1):
                            rho2 = 0.5 * p2[z2][c2] * random_density(rng, 2)
                            blocks[(c1 + 2 * c2, z1 + 2 * z2)] = np.kron(rho1, rho2)
            rho = CqDistribution(
                {k: HermitianOperator(v) for k, v in blocks.items()}
            )
            G = TrialFunction(
                {
                    (c1 + 2 * c2, z1 + 2 * z2): f1[(c1, z1)] * f2[(c2, z2)]
                    for c1 in (0, 1)
                    for z1 in (0, 1)
                    for c2 in (0, 1)
                    for z2 in (0, 1)
                },
                beta,
                role="qef",
            )
            assert qef_inequality_check(G, rho) >= -1e-9


class TestPowerReduce:
    def test_identity_at_gamma_one(self, qef02):
        G = power_reduce(qef02, 1.0)
        assert G.values == qef02.values
        assert G.beta == qef02.beta

    def test_constant_fixed_point(self):
        F = constant_one(2, 2, 0.4)
        G = power_reduce(F, 0.25)
        assert all(v == 1.0 for v in G.values.values())
        assert abs(G.beta - 0.1) <= 1e-15

    def test_reduced_factor_keeps_slack(self, qef02, canonical_sampler):
        rng = np.random.default_rng(37)
        G = power_reduce(qef02, 0.5)
        assert abs(G.beta - qef02.beta / 2.0) <= 1e-15
        for _ in range(100):
            rho = canonical_sampler(rng)
            assert qef_inequality_check(G, rho) >= -1e-9

    def test_gamma_domain(self, qef02):
        for gamma in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                power_reduce(qef02, gamma)


class TestAnglePeriodicity:
    """Station projectors are 2 pi-periodic, so raw angles are read modulo 2 pi."""

    @staticmethod
    def _random_factor(rng: np.random.Generator) -> TrialFunction:
        values = {
            (c, z): float(rng.uniform(0.1, 2.0)) for c in range(4) for z in range(4)
        }
        return TrialFunction(values, float(rng.uniform(0.05, 0.9)), role="candidate")

    def test_q_alpha_invariant_under_full_turns(self):
        rng = np.random.default_rng(36)
        for _ in range(5):
            F = self._random_factor(rng)
            theta = rng.uniform(-math.pi, math.pi, size=2)
            tau = random_density(rng, 4)
            ref = q_alpha(F, theta, tau)
            for axis in range(2):
                for m in (-3, -1, 1, 2, 5):
                    shifted = theta.copy()
                    shifted[axis] += 2.0 * math.pi * m
                    assert abs(q_alpha(F, shifted, tau) - ref) <= 1e-12

    def test_inner_max_brackets_overlap_under_full_turn(self):
        rng = np.random.default_rng(37)
        for axis in range(2):
            F = self._random_factor(rng)
            theta = rng.uniform(0.0, math.pi, size=2)
            shifted = theta.copy()
            shifted[axis] += 2.0 * math.pi
            a = inner_max_tau(F, tuple(theta), tol=1e-6)
            b = inner_max_tau(F, tuple(shifted), tol=1e-6)
            assert a.value <= b.upper_bound
            assert b.value <= a.upper_bound

    def test_config_normalization(self):
        inside = (math.pi, -math.pi + 1e-15, 0.0, 1.234, -2.5)
        inside += (math.nextafter(math.pi, 0.0),)
        assert _config_for(inside).angles == inside
        assert _config_for((-math.pi,)).angles == (math.pi,)
        assert _config_for((3.0 * math.pi,)).angles == (math.pi,)
        # One ulp above pi: the float remainder rounds up to a full turn.
        assert _config_for((math.nextafter(math.pi, 4.0),)).angles == (math.pi,)
        got = _config_for((1.5 * math.pi, -2.5 * math.pi))
        assert all(-math.pi < t <= math.pi for t in got.angles)
        assert abs(got.angles[0] + math.pi / 2.0) <= 1e-15
        assert abs(got.angles[1] + math.pi / 2.0) <= 1e-15
        assert got.input_dist == (0.25,) * 4
        with pytest.raises(ValueError):
            _config_for((math.nan,))
        with pytest.raises(ValueError):
            _config_for((math.inf,))


class TestInnerMaxTau:
    def test_commuting_scalar_oracle(self):
        """At theta = 0 all projectors are diagonal; the best state is a
        basis vector and the value reduces to a finite scalar maximum."""
        rng = np.random.default_rng(38)
        for _ in range(10):
            values = {
                (c, z): float(rng.uniform(0.1, 2.0))
                for c in range(4)
                for z in range(4)
            }
            F = TrialFunction(values, 0.3, role="candidate")
            oracle = max(
                sum(0.25 * values[(j, z)] for z in range(4)) for j in range(4)
            )
            out = inner_max_tau(F, (0.0, 0.0), tol=1e-9)
            assert out.converged
            assert abs(out.value - oracle) <= 1e-8
            assert out.upper_bound >= oracle - 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(39)
        from qpe.qef_engine import _BlockProblem

        for _ in range(10):
            n, d = 6, 4
            V = rng.standard_normal((n, d))
            V /= np.linalg.norm(V, axis=1)[:, None]
            w = rng.uniform(0.1, 1.0, size=n)
            alpha = 1.0 + float(rng.uniform(0.05, 0.6))
            prob = _BlockProblem(V, w, alpha)
            lam = rng.uniform(0.1, 1.0, size=d)
            lam /= lam.sum()
            basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
            tau = (basis * lam) @ basis.T
            lam_s, U = prob._decompose(tau)
            g, t = prob._value_from(lam_s, U)
            G = prob.gradient(lam_s, U, t)
            h = 1e-5
            for _ in range(4):
                E = rng.standard_normal((d, d))
                E = (E + E.T) / 2.0
                num = (prob.value(tau + h * E) - prob.value(tau - h * E)) / (2 * h)
                ana = float(np.sum(G * E))
                assert abs(num - ana) <= 1e-6 * max(1.0, abs(num))

    def test_block_value_matches_quadratic_forms(self):
        """``t_i = v_i^T tau^{1/alpha} v_i`` and the weighted power sum."""
        rng = np.random.default_rng(40)
        from qpe.qef_engine import _BlockProblem

        for d in (1, 2, 3, 4):
            for _ in range(5):
                n = int(rng.integers(1, 17))
                V = rng.standard_normal((n, d))
                w = rng.uniform(0.1, 2.0, size=n)
                alpha = 1.0 + float(rng.uniform(0.05, 0.9))
                a = rng.standard_normal((d, d))
                tau = a @ a.T / np.trace(a @ a.T)
                lam, U = np.linalg.eigh(tau)
                root = (U * np.clip(lam, 0.0, None) ** (1.0 / alpha)) @ U.T
                t_want = np.array([v @ root @ v for v in V])
                prob = _BlockProblem(V, w, alpha)
                g, t = prob._value_from(*prob._decompose(tau))
                assert np.allclose(t, np.clip(t_want, 0.0, None), rtol=1e-12, atol=1e-14)
                want = float((w * np.clip(t_want, 0.0, None) ** alpha).sum())
                assert abs(g - want) <= 1e-12 * max(1.0, want)

    def test_single_qubit_matches_bloch_scan(self):
        """k=1, theta=pi/2, F=1, alpha=2: dense scan over Bloch radii."""
        F = constant_one(1, 1, 1.0)
        out = inner_max_tau(F, (math.pi / 2.0,), tol=1e-10)
        rs = np.linspace(0.0, 1.0, 2001)
        lam_hi, lam_lo = (1.0 + rs) / 2.0, (1.0 - rs) / 2.0
        a = (np.sqrt(lam_hi) + np.sqrt(lam_lo)) / 2.0
        b = (np.sqrt(lam_hi) - np.sqrt(lam_lo)) / 2.0
        scan = (2.0 * a**2 + b**2).max()
        assert out.converged
        assert abs(out.value - scan) <= 1e-8
        assert out.upper_bound >= scan - 1e-12

    def test_trace_brackets_every_iterate(self, pef02):
        """The eigenvalue certificate is an upper bound at every step."""
        F, _ = pef02
        out = inner_max_tau(F, (0.4, 1.1), tol=1e-9, keep_trace=True)
        assert out.trace is not None and len(out.trace) >= 1
        for g, ub in out.trace:
            assert ub >= g - 1e-12
        assert out.value <= out.upper_bound + 1e-12


class TestInnerSolver:
    """The vector table, the block split and the certified-gap solve."""

    @staticmethod
    def _random_candidate(rng: np.random.Generator) -> TrialFunction:
        values = {
            (c, z): float(rng.uniform(0.1, 2.0)) for c in range(4) for z in range(4)
        }
        return TrialFunction(values, float(rng.uniform(0.05, 0.9)), role="candidate")

    def test_vectors_match_povm_vector_loop(self, povm_vector):
        rng = np.random.default_rng(41)
        for _ in range(60):
            k = int(rng.integers(1, 4))
            d = 1 << k
            values = {
                (c, z): float(rng.uniform(0.1, 2.0)) if rng.random() > 0.25 else 0.0
                for c in range(d)
                for z in range(d)
            }
            values[(0, 0)] = 1.0
            F = TrialFunction(values, 0.3, role="candidate")
            config = _config_for(tuple(rng.uniform(-math.pi, math.pi, size=k)))
            ws, vs = [], []
            for z in range(d):
                for c in range(d):
                    w = config.mu(z) * F.value(c, z)
                    if w > 0.0:
                        ws.append(w)
                        vs.append(povm_vector(config, c, z))
            w, V = _weights_and_vectors(F, config.input_dist, config.angles)
            assert w.tobytes() == np.asarray(ws).tobytes()
            assert V.shape == (len(vs), d)
            assert V.tobytes() == np.asarray(vs).tobytes()

    def test_blocks_carry_each_projector(self):
        """Closed-form blocks: a station splits along z exactly when its two
        settings commute, float pi and wrapped angles included."""
        rng = np.random.default_rng(42)
        F = self._random_candidate(rng)
        cases = (
            ((0.0, 0.0), (1, 1, 1, 1)),
            ((0.0, 1.3), (2, 2)),
            ((0.7, 1.9), (4,)),
            ((math.pi, 0.4), (2, 2)),
            ((0.5, math.pi), (2, 2)),
            ((math.pi, math.pi), (1, 1, 1, 1)),
            ((2.0 * math.pi, 1.3), (2, 2)),
        )
        angles = np.array([_config_for(theta).angles for theta, _ in cases])
        groups = _invariant_blocks(angles)
        assert sorted(p for rows, _ in groups for p in rows.tolist()) == list(range(len(cases)))
        for p, (theta, dims) in enumerate(cases):
            [bases] = [bases for rows, bases in groups if p in rows]
            assert tuple(b.shape[1] for b in bases) == dims
            stacked = np.concatenate(bases, axis=1)
            assert np.array_equal(stacked.T @ stacked, np.eye(4))
            config = _config_for(theta)
            _, V = _weights_and_vectors(F, config.input_dist, config.angles)
            for v in V:
                mass = max(float(np.linalg.norm(b.T @ v) ** 2) for b in bases)
                assert mass >= 1.0 - 1e-10

    def test_random_candidates_certify(self):
        rng = np.random.default_rng(43)
        for _ in range(12):
            F = self._random_candidate(rng)
            theta = tuple(rng.uniform(0.0, math.pi, size=2))
            out = inner_max_tau(F, theta, tol=1e-6, keep_trace=True)
            assert out.converged
            assert out.upper_bound - out.value <= 1e-6
            assert len(out.trace) == out.iterations
            for g, ub in out.trace:
                assert ub >= g - 1e-12
            for _ in range(5):
                rho = random_density(rng, 4)
                assert q_alpha(F, theta, rho) <= out.upper_bound + 1e-12

    def test_tight_gap_random_candidates_converge(self):
        """AC07-style candidates at any angles certify a gap of 1e-9, where
        the value alone stops showing progress in roundoff."""
        rng = np.random.default_rng(45)
        for _ in range(40):
            F = self._random_candidate(rng)
            theta = tuple(rng.uniform(0.0, 2.0 * math.pi, size=2))
            out = inner_max_tau(F, theta, tol=1e-9, max_iters=3000)
            assert out.converged, (F.values, F.beta, theta, out.iterations)
            assert out.upper_bound - out.value <= 1e-9

    def test_certifies_tight_gap_in_few_pairs(self, pef02):
        F, _ = pef02
        out = inner_max_tau(F, (0.4, 1.1), tol=1e-9)
        assert out.converged
        assert out.iterations <= 50

    def test_gap_test_keeps_the_value(self):
        """A trial point with a smaller gap but a far lower value is not taken.

        Here the iterate at pair 4 has value 1.29.  Taking the next trial
        point (value 0.60, smaller gap) left the ascent creeping up by about
        1e-7 a step, for 897 pairs at tol 2.5e-3 and 1310 at tol 1e-9.
        """
        values = [0.69, 0.77, 0.45, 1.01, 1.49, 1.59, 0.53, 0.17,
                  0.35, 0.74, 1.69, 0.40, 1.26, 0.15, 1.05, 1.48]
        F = TrialFunction({(c, z): values[4 * c + z] for c in range(4) for z in range(4)}, 0.61)
        for tol in (2.5e-3, 1e-9):
            out = inner_max_tau(F, (math.pi / 32, 15 * math.pi / 16), tol=tol)
            assert out.converged
            assert out.iterations <= 50

    def test_bound_sound_at_rank_deficient_iterate(self):
        """An iterate whose kernel holds a projector still yields a sound bound.

        With ``V = I`` the functional is ``tau_00 + 2 tau_11``, whose supremum
        2 sits on the projector that the pure iterate ``e0 e0^T`` misses.
        """
        prob = _BlockProblem(np.eye(2), np.array([1.0, 2.0]), 1.5)
        pure = np.array([1.0, 0.0, 0.0, 0.0])  # A = e0 e0^T
        g, ub, _, _ = qef_engine._evaluate(prob, pure)
        assert g <= 1.0 + 1e-12
        assert ub >= 2.0 - 1e-12

    def test_iteration_budget_caps_pairs(self):
        rng = np.random.default_rng(44)
        V = rng.standard_normal((6, 4))
        V /= np.linalg.norm(V, axis=1)[:, None]
        prob = _BlockProblem(V, rng.uniform(0.1, 1.0, size=6), 1.3)
        stack = _BlockProblem(prob.V[None], prob.w[None], prob.alpha)
        val, tau, ub, conv, iters, trace = (
            out[0] for out in qef_engine._maximize_block(stack, 0.0, 7, 0, True)
        )
        assert not conv and iters == 7 and len(trace) == 7
        assert val == max(g for g, _ in trace) and ub == min(u for _, u in trace)
        assert abs(prob.value(tau) - val) <= 1e-15

    @staticmethod
    def _stack_of_problems(rng: np.random.Generator) -> _BlockProblem:
        """Random 2-dim problems of mixed difficulty, and the ``V = I``
        problem of ``test_bound_sound_at_rank_deficient_iterate``."""
        V = rng.standard_normal((7, 3, 2))
        V /= np.linalg.norm(V, axis=2)[:, :, None]
        w = rng.uniform(0.1, 2.0, size=(7, 3)) ** np.arange(1, 8)[:, None]
        V = np.concatenate([V, [[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]]])
        w = np.concatenate([w, [[1.0, 2.0, 0.0]]])
        return _BlockProblem(V, w, 1.5)

    def test_stacked_solves_match_single_solves(self):
        """Each problem of a stack gets the pairs it gets alone, and its value
        and bound within 1e-12, also when a pair cap stops only some of them."""
        prob = self._stack_of_problems(np.random.default_rng(46))
        pairs = sorted(qef_engine._maximize_block(prob, 1e-13, 10000, 0, False)[4].tolist())
        assert pairs[0] < pairs[-1]
        for cap in (10000, pairs[len(pairs) // 2]):
            val, tau, ub, conv, n, trace = qef_engine._maximize_block(prob, 1e-13, cap, 0, True)
            assert 0 < conv.sum() < 8 if cap < 10000 else conv.all()
            for i in range(8):
                one = qef_engine._maximize_block(prob[[i]], 1e-13, cap, 0, True)
                assert n[i] == one[4][0] == len(trace[i])
                assert abs(val[i] - one[0][0]) <= 1e-12
                assert abs(ub[i] - one[2][0]) <= 1e-12
                assert conv[i] == one[3][0]
        # The pure iterate e0 e0^T of V = I, evaluated within the stack.
        x = np.tile(np.eye(2).ravel(), (8, 1))
        x[7] = [1.0, 0.0, 0.0, 0.0]
        g, ub, _, _ = qef_engine._evaluate(prob, x)
        assert g[7] <= 1.0 + 1e-12 and ub[7] >= 2.0 - 1e-12
        g1, ub1, _, _ = qef_engine._evaluate(prob[7], x[7])
        assert abs(g[7] - g1) <= 1e-15 and abs(ub[7] - ub1) <= 1e-15

    @pytest.mark.filterwarnings("error")
    def test_one_dim_blocks_take_their_only_density(self):
        """A 1-dim block is solved exactly, in one pair and without the
        ascent: its only density is ``[[1]]``.  Configurations whose blocks
        differ in dimension solve alike in one stack and alone."""
        rng = np.random.default_rng(47)
        prob = _BlockProblem(
            rng.standard_normal((3, 5, 1)), rng.uniform(0.1, 1.0, (3, 5)), 1.4
        )
        val, tau, ub, conv, n, trace = qef_engine._maximize_block(prob, 1e-9, 100, 0, True)
        assert conv.all() and n.tolist() == [1, 1, 1]
        for i in range(3):
            exact = _BlockProblem(prob.V[i], prob.w[i], 1.4).value(np.array([[1.0]]))
            assert val[i] == ub[i] == exact and trace[i] == ((exact, exact),)
            assert tau[i].tolist() == [[1.0]]
        F = self._random_candidate(rng)
        angles = np.array([(0.0, 0.0), (0.0, 1.3), (0.7, 1.9), (math.pi, math.pi)])
        mu = (0.25,) * 4
        value, tau, bound, conv, pairs, _ = qef_engine._solve_vertices(
            F, mu, angles, 1e-9, 10000, 0, False
        )
        assert pairs[0] == pairs[3] == 4
        for p in range(4):
            one = qef_engine._solve_vertices(F, mu, angles[p:p + 1], 1e-9, 10000, 0, False)
            assert pairs[p] == one[4][0] and conv[p] == one[3][0]
            assert abs(value[p] - one[0][0]) <= 1e-12
            assert abs(bound[p] - one[2][0]) <= 1e-12


class TestIntervalBound:
    def test_dominates_endpoints(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            f, fp = rng.uniform(0.0, 3.0, size=2)
            phi = float(rng.uniform(1e-3, math.pi / 2.0))
            order = RenyiOrder(1.0 + float(rng.uniform(0.01, 0.9)))
            bound = interval_bound(f, fp, phi, order)
            assert bound >= max(f, fp) - 1e-12

    def test_cap_for_equal_endpoints(self):
        order = RenyiOrder(1.3)
        for phi in (0.01, 0.1, 0.5):
            f = 1.7
            bound = interval_bound(f, f, phi, order)
            cap = (phi / math.sin(phi)) ** order.alpha * f
            assert f - 1e-12 <= bound <= cap + 1e-12

    def test_grid_oracle(self):
        """The returned maximum dominates a dense grid of the bound curve."""
        rng = np.random.default_rng(41)
        xs = np.linspace(0.0, 1.0, 1001)
        for _ in range(200):
            f, fp = rng.uniform(0.0, 2.0, size=2)
            phi = float(rng.uniform(1e-3, math.pi / 2.0))
            order = RenyiOrder(1.0 + float(rng.uniform(0.01, 0.9)))
            bound = interval_bound(f, fp, phi, order)
            x = xs * phi
            s0, s1 = np.sin(phi - x), np.sin(x)
            u = (s0 + s1) ** order.beta * (s0 * f + s1 * fp) / math.sin(phi) ** order.alpha
            assert bound >= u.max() - 1e-10
            cap = (phi / math.sin(phi)) ** order.alpha * max(f, fp)
            assert bound <= cap + 1e-12

    def test_width_domain(self):
        with pytest.raises(ValueError):
            interval_bound(1.0, 1.0, 2.0, RenyiOrder(1.2))
        with pytest.raises(ValueError):
            interval_bound(1.0, 1.0, 0.0, RenyiOrder(1.2))


class TestCertifyFmax:
    def test_constant_function_single_station(self):
        F = constant_one(1, 1, 0.1)
        config = BellConfig.uniform((0.0,))
        res = certify_fmax(F, config, 1e-3, seed=0)
        assert 1.0 - 1e-9 <= res.f_lower <= res.f_upper <= 1.0 + 1e-3 + 1e-6
        assert not res.gap_flag

    def test_scaling_homogeneity(self, pef02, cert02, config22):
        """Scaling the function scales the certified bracket."""
        F, _ = pef02
        res = certify_fmax(F.scaled(1.5), config22, 1.5e-3, seed=0)
        assert abs(res.f_lower - 1.5 * cert02.f_lower) <= 3e-3
        assert abs(res.f_upper - 1.5 * cert02.f_upper) <= 3e-3

    def test_region_bounds_are_sound(self):
        """Stored region caps dominate the inner maximum at interior angles."""
        F = TrialFunction(
            {(c, z): 1.0 + 0.1 * c - 0.05 * z for c in (0, 1) for z in (0, 1)},
            0.2,
            role="candidate",
        )
        config = BellConfig.uniform((0.0,))
        res = certify_fmax(F, config, 1e-3, seed=0, keep_regions=True)
        assert res.regions
        rng = np.random.default_rng(42)
        picks = rng.choice(len(res.regions), size=min(10, len(res.regions)), replace=False)
        for i in picks:
            region = res.regions[i]
            theta = tuple(
                float(rng.uniform(lo, hi)) for lo, hi in region.cuboid
            )
            inner = inner_max_tau(F, theta, tol=1e-6)
            assert region.upper_bound >= inner.value - 1e-9

    def test_witness_attains_f_lower(self, pef02, cert02):
        F, _ = pef02
        got = q_alpha(F, cert02.witness_theta, cert02.witness_tau)
        assert cert02.f_lower <= got + 1e-12

    def test_json_round_trip(self, cert02):
        back = CertificationResult.from_json(cert02.to_json())
        assert back.beta == cert02.beta
        assert back.f_lower == cert02.f_lower
        assert back.f_upper == cert02.f_upper
        assert back.witness_theta == cert02.witness_theta
        assert np.allclose(back.witness_tau.matrix, cert02.witness_tau.matrix)

    def test_json_keeps_gap_flag_and_target(self, cert02):
        assert CertificationResult.from_json(cert02.to_json()).gap_target == 1e-3
        unmet = dataclasses.replace(cert02, gap_flag=True, gap_target=1e-5)
        back = CertificationResult.from_json(unmet.to_json())
        assert back.gap_flag is True and back.gap_target == 1e-5
        data = json.loads(unmet.to_json())
        del data["gap_flag"], data["gap_target"]
        old = CertificationResult.from_json(json.dumps(data))
        assert old.gap_flag is False and old.gap_target is None

    def test_sweeps_pin_the_search(self, nu_e, config22):
        """Sweeps split the regions the one-at-a-time search split: the same
        count and a bracket within the gap of its ``(f_lower, f_upper)``."""
        F, _ = optimize_pef_polytope(nu_e, 0.2)
        res = certify_fmax(F, config22, 1e-3, seed=0)
        assert res.regions_explored == 320 and not res.gap_flag
        assert abs(res.f_lower - 1.0) <= 1e-3
        assert abs(res.f_upper - 1.0006632130135131) <= 1e-3
        F, _ = optimize_pef_polytope(nu_e, 0.05)
        res = certify_fmax(F, config22, 1e-5, budget=40, seed=0)
        assert res.regions_explored == 40 and res.gap_flag
        assert res.f_upper >= res.f_lower

    def test_gap_target_domain(self, pef02, config22):
        F, _ = pef02
        with pytest.raises(ValueError):
            certify_fmax(F, config22, 0.0)
