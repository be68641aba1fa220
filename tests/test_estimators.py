"""Entropy estimators, factor conversions, spot-checking, the binary model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qpe.estimators import (
    binary_model,
    ee_from_maxprob,
    ee_from_qef,
    expansion_rate,
    iota0,
    qefp_constant,
    qefp_from_constant,
    spot_check_scheme,
)
from qpe.qef_engine import TrialFunction, constant_one, qef_inequality_check
from qpe.quantum_core import CqDistribution, conditional_entropy

UNIFORM_Z = {z: 0.25 for z in range(4)}


def zero_estimator(n: int = 2) -> TrialFunction:
    return TrialFunction(
        {(c, 0): 0.0 for c in range(n)}, None, role="ee"
    )


def random_classical(rng: np.random.Generator) -> CqDistribution:
    """Random two-station classical table with uniform inputs."""
    cond = rng.dirichlet(np.ones(4), size=4)  # cond[z][c]
    return CqDistribution.classical(
        {(c, z): 0.25 * cond[z][c] for c in range(4) for z in range(4)}
    )


class TestIota0:
    def test_pinned_interval(self):
        assert 2.065338 < iota0() < 2.065339

    def test_defining_equation(self):
        x = iota0()
        assert abs(2.0 / math.tanh(x) - x) <= 1e-10

    def test_bracket_sign_change(self):
        f = lambda x: 2.0 / math.tanh(x) - x
        assert f(2.0) > 0.0 > f(2.1)


class TestEeFromQef:
    def test_constant_gives_zero_estimator(self):
        K = ee_from_qef(constant_one(2, 2, 0.3))
        assert all(v == 0.0 for v in K.values.values())
        assert K.role == "ee"

    def test_binary_model_closed_form(self):
        p, q, beta = 0.3, 0.2, 0.1
        model = binary_model(p, q, beta)
        K = ee_from_qef(model.F)
        f1 = (1.0 - (1.0 - p) ** (1.0 + beta)) / p ** (1.0 + beta)
        assert abs(K.value(0, 0)) <= 1e-15
        assert abs(K.value(1, 0) - math.log(f1) / beta) <= 1e-12
        estimate = (1.0 - q) * K.value(0, 0) + q * K.value(1, 0)
        assert abs(estimate - model.rate) <= 1e-12

    def test_zero_values_flagged(self):
        F = TrialFunction({(0, 0): 0.0, (1, 0): 1.5}, 0.1, role="candidate")
        with pytest.warns(RuntimeWarning):
            K = ee_from_qef(F)
        assert K.value(0, 0) == -math.inf

    def test_estimates_below_conditional_entropy(self, qef02, canonical_sampler):
        """The certified factor's estimator never exceeds the true entropy."""
        rng = np.random.default_rng(50)
        K = ee_from_qef(qef02)
        for _ in range(1000):
            rho = canonical_sampler(rng)
            estimate = sum(
                K.value(*key) * rho.block(*key).trace() for key in rho.keys()
            )
            assert estimate <= conditional_entropy(rho) + 1e-9


class TestQefpConstant:
    def test_zero_estimator_closed_form(self):
        """K = 0, two outcomes: the weight floor saturates at iota0 and the
        identity 2 coth(iota0) = iota0 collapses the bound."""
        i0 = iota0()
        K = zero_estimator()
        for beta in (0.05, 0.2, 0.45):
            c = qefp_constant(K, {0: 1.0}, beta).c_value
            hand = i0 * 2.0 * i0 * (2.0 + 1.0 / (1.0 - beta) ** 2) / 3.0
            assert abs(c - hand) <= 1e-12 * hand

    def test_pinned_values(self):
        K = zero_estimator()
        expected = {
            "headline": {0.05: 8.838462543, 0.2: 10.130851367, 0.45: 15.088314520},
            "tight": {0.05: 1.627836066, 0.2: 1.761798271, 0.45: 2.279478402},
        }
        for mode, table in expected.items():
            for beta, value in table.items():
                got = qefp_constant(K, {0: 1.0}, beta, mode=mode).c_value
                assert abs(got - value) <= 1e-8

    def test_tight_mode_improves(self):
        rng = np.random.default_rng(51)
        K = TrialFunction(
            {(c, z): float(rng.uniform(-1.0, 1.0)) for c in range(4) for z in range(4)},
            None,
            role="ee",
        )
        for beta in (0.05, 0.2, 0.45):
            h = qefp_constant(K, UNIFORM_Z, beta).c_value
            t = qefp_constant(K, UNIFORM_Z, beta, mode="tight").c_value
            assert t <= h

    def test_grid_monotone_in_beta(self):
        rng = np.random.default_rng(52)
        K = TrialFunction(
            {(c, z): float(rng.uniform(-0.5, 1.5)) for c in range(4) for z in range(4)},
            None,
            role="ee",
        )
        grid = np.linspace(0.01, 0.49, 25)
        for table in (zero_estimator(), K):
            nu = {0: 1.0} if table.value(0, 0) == 0.0 and len(table.values) == 2 else UNIFORM_Z
            cs = [qefp_constant(table, nu, float(b)).c_value for b in grid]
            assert all(b >= a - 1e-12 for a, b in zip(cs, cs[1:]))

    def test_second_order_term_vanishes(self):
        K = zero_estimator()
        terms = []
        for beta in (1e-1, 1e-2, 1e-3):
            c = qefp_constant(K, {0: 1.0}, beta).c_value
            terms.append(c * beta * beta / 2.0)
        assert terms[0] > terms[1] > terms[2]
        assert terms[2] <= 1e-5

    def test_domain_errors(self):
        K = zero_estimator()
        for beta in (0.0, 0.5, 0.7):
            with pytest.raises(ValueError):
                qefp_constant(K, {0: 1.0}, beta)
        with pytest.raises(ValueError):
            qefp_constant(K, {0: 0.5, 1: 0.5}, 0.1)
        with pytest.raises(ValueError):
            gap = TrialFunction({(0, 0): 0.0, (2, 0): 0.0}, None, role="ee")
            qefp_constant(gap, {0: 1.0}, 0.1)
        # Estimators the key rule lets through but the conversion cannot read:
        # one (c, z) cell missing, and a spot-check (c, z, t) table.
        gap = TrialFunction({(0, 0): 0.0, (1, 0): 0.0, (0, 1): 0.0}, None, role="ee")
        czt = TrialFunction(
            {(c, z, t): 0.0 for c in (0, 1) for z in (0, 1) for t in (0, 1)}, None, role="ee"
        )
        for K in (gap, czt):
            with pytest.raises(ValueError, match=r"needs a value at every \(c, z\) cell"):
                qefp_constant(K, {0: 0.5, 1: 0.5}, 0.1)

    def test_petz_inequality_on_random_states(self, qef02, canonical_sampler):
        """The converted factor obeys the Petz-type inequality on both
        diagonal and generic canonical states."""
        rng = np.random.default_rng(53)
        K = ee_from_qef(qef02)
        for beta in (0.05, 0.2):
            const = qefp_constant(K, UNIFORM_Z, beta)
            qefp = qefp_from_constant(K, const)
            assert qefp.role == "qefp"
            for _ in range(75):
                slack = qef_inequality_check(qefp, canonical_sampler(rng), kind="petz")
                assert slack >= -1e-9
            for _ in range(75):
                slack = qef_inequality_check(qefp, random_classical(rng), kind="petz")
                assert slack >= -1e-9

    def test_rate_degrades_from_qef(self, qef02, nu_e):
        """EE-then-QEFP round trips lose rate against the original factor."""
        K = ee_from_qef(qef02)
        qef_rate = sum(
            nu_e.probs[key] * math.log(qef02.value(*key)) for key in qef02.keys()
        ) / qef02.beta
        beta = min(qef02.beta, 0.49)
        qefp = qefp_from_constant(K, qefp_constant(K, UNIFORM_Z, beta))
        qefp_rate = sum(
            nu_e.probs[key] * math.log(qefp.value(*key)) for key in qefp.keys()
        ) / qefp.beta
        assert qefp_rate <= qef_rate + 1e-12


class TestEeFromMaxprob:
    def test_trivial_table(self):
        B = constant_one(2, 2, 0.1).scaled(1.0, role="maxprob")
        K = ee_from_maxprob(B, 1.0)
        assert all(v == 0.0 for v in K.values.values())

    def test_affine_expectation_identity(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            joint = rng.dirichlet(np.ones(8)).reshape(2, 4)
            B = TrialFunction(
                {(c, z): float(rng.uniform(0.05, 1.0)) for c in range(2) for z in range(4)},
                None,
                role="maxprob",
            )
            b_bar = sum(joint[c, z] * B.value(c, z) for c in range(2) for z in range(4))
            K = ee_from_maxprob(B, b_bar)
            expect = sum(
                joint[c, z] * K.value(c, z) for c in range(2) for z in range(4)
            )
            assert abs(expect + math.log(b_bar)) <= 1e-10

    def test_estimate_below_entropy_on_classical_tables(self):
        """Guess-indicator tables give the min-entropy, below the Shannon one."""
        rng = np.random.default_rng(55)
        for _ in range(100):
            cond = rng.dirichlet(np.ones(4), size=4)
            rho = CqDistribution.classical(
                {(c, z): 0.25 * cond[z][c] for c in range(4) for z in range(4)}
            )
            guess = cond.argmax(axis=1)
            B = TrialFunction(
                {
                    (c, z): 1.0 if c == guess[z] else 0.0
                    for c in range(4)
                    for z in range(4)
                },
                None,
                role="maxprob",
            )
            b_bar = sum(0.25 * cond[z].max() for z in range(4))
            K = ee_from_maxprob(B, b_bar)
            estimate = sum(
                0.25 * cond[z][c] * K.value(c, z) for c in range(4) for z in range(4)
            )
            assert estimate <= conditional_entropy(rho) + 1e-10

    def test_domain_errors(self):
        B = constant_one(1, 1, 0.1).scaled(1.0, role="maxprob")
        with pytest.raises(ValueError):
            ee_from_maxprob(B, 0.0)
        with pytest.raises(ValueError):
            ee_from_maxprob(B, 1.5)
        big = B.scaled(1.2)
        with pytest.raises(ValueError):
            ee_from_maxprob(big, 1.0)
        ee_from_maxprob(big, 1.0, conditional=False)
        negative = B.scaled(-3.0)
        with pytest.raises(ValueError):
            ee_from_maxprob(negative, 0.5)
        K = ee_from_maxprob(negative, 0.5, conditional=False)
        assert K.value(0, 0) == -math.log(0.5) + 1.0 + 3.0 / 0.5


def small_scheme(r: float):
    """Four-input guessing table around a random-ish fixed example."""
    values = {
        (c, z): v
        for z, row in enumerate([(0.9, 0.3), (0.7, 0.5), (0.8, 0.4), (0.6, 0.2)])
        for c, v in enumerate(row)
    }
    B = TrialFunction(values, None, role="maxprob")
    cond = {z: (0.55, 0.45) for z in range(4)}
    b_bar = sum(0.25 * cond[z][c] * values[(c, z)] for c in range(2) for z in range(4))
    return B, cond, spot_check_scheme(B, r, 2, b_bar)


class TestSpotCheckScheme:
    def test_expected_table_value_independent_of_rate(self):
        B, cond, _ = small_scheme(0.1)
        base = sum(
            0.25 * cond[z][c] * B.value(c, z) for c in range(2) for z in range(4)
        )
        for r in (0.3, 0.1, 0.01):
            _, _, scheme = small_scheme(r)
            got = sum(
                scheme.mu[(z, t)] * cond[z][c] * scheme.B_r.value(c, z, t)
                for c in range(2)
                for z in range(4)
                for t in (0, 1)
            )
            assert abs(got - base) <= 1e-12

    def test_estimator_rate_is_log_bound(self):
        for r in (0.3, 0.1, 0.01):
            _, cond, scheme = small_scheme(r)
            got = sum(
                scheme.mu[(z, t)] * cond[z][c] * scheme.K_r.value(c, z, t)
                for c in range(2)
                for z in range(4)
                for t in (0, 1)
            )
            assert abs(got + math.log(scheme.b_bar)) <= 1e-12

    def test_untested_trials_claim_nothing(self):
        _, _, scheme = small_scheme(0.05)
        for z in range(4):
            assert scheme.B_r.value(0, z, 0) == 1.0
            assert abs(scheme.K_r.value(0, z, 0) - (1.0 - 1.0 / scheme.b_bar - math.log(scheme.b_bar))) <= 1e-12

    def test_input_entropy_bound(self):
        """S(mu_r) = H(r) + r log(1/q), below -2 r log r for small rates."""
        for r in (0.05, 0.01, 0.001):
            _, _, scheme = small_scheme(r)
            q = 1.0 / 4.0  # uniform test inputs over the table's four
            exact = (
                -r * math.log(r)
                - (1.0 - r) * math.log(1.0 - r)
                + r * math.log(1.0 / q)
            )
            assert abs(scheme.input_entropy() - exact) <= 1e-12
            if r <= q / math.e:
                assert scheme.input_entropy() <= -2.0 * r * math.log(r)

    def test_estimator_is_the_maxprob_formula(self):
        """K_r = -log(b_bar) + 1 - B_r/b_bar bit for bit, negative test entries included."""
        _, _, scheme = small_scheme(0.1)
        b_bar = scheme.b_bar
        assert min(scheme.B_r.values.values()) < 0.0
        for key, b in scheme.B_r.values.items():
            assert scheme.K_r.value(*key) == -math.log(b_bar) + 1.0 - b / b_bar

    def test_unknown_fixed_input_rejected(self):
        B, _, _ = small_scheme(0.1)
        with pytest.raises(ValueError):
            spot_check_scheme(B, 0.1, 9, 0.5)


class TestExpansionRate:
    def test_small_power_limit(self):
        _, _, scheme = small_scheme(0.1)
        er = expansion_rate(scheme, 1e-12)
        assert abs(er.g_lower + math.log(scheme.b_bar)) <= 1e-8

    def test_constants_match_hand_formulas(self):
        B, _, scheme = small_scheme(0.2)
        i0 = iota0()
        spread = max(
            -math.log(scheme.b_bar) + 1.0 + (abs(B.value(c, z)) + 1.0) / scheme.b_bar
            for c in range(2)
            for z in range(4)
        )
        d_hand = 1.0 / (2.0 * spread)
        dp_hand = 10.0 * (1.0 / (2.0 * d_hand) + math.log(4.0) + 2.0 * i0) ** 2 / 3.0
        beta = 0.5 * d_hand * scheme.r
        er = expansion_rate(scheme, beta)
        assert abs(er.d - d_hand) <= 1e-12
        assert abs(er.d_prime - dp_hand) <= 1e-9
        assert abs(er.g_lower - (-math.log(scheme.b_bar) - dp_hand * beta / scheme.r)) <= 1e-9

    def test_power_cap_enforced(self):
        _, _, scheme = small_scheme(0.1)
        d = expansion_rate(scheme, 1e-12).d
        with pytest.raises(ValueError):
            expansion_rate(scheme, 2.0 * d * scheme.r)

    def test_net_growth_is_linear(self):
        """Shrinking test rates 1/n with powers tied to them yield net
        entropy above a constant fraction of n times the base rate."""
        B, _, scheme0 = small_scheme(0.5)
        b_bar = scheme0.b_bar
        g0 = -math.log(b_bar)
        nets = []
        for n in (10**3, 10**4, 10**5):
            r = 1.0 / n
            scheme = spot_check_scheme(B, r, 2, b_bar)
            d = expansion_rate(scheme, 1e-12).d
            beta = min(d, g0 / (3.0 * expansion_rate(scheme, 1e-12).d_prime)) * r
            er = expansion_rate(scheme, beta)
            net = n * er.g_lower - n * scheme.input_entropy()
            nets.append(net)
            assert net >= n * g0 / 3.0
        assert nets[1] >= 5.0 * nets[0] and nets[2] >= 5.0 * nets[1]


class TestBinaryModel:
    def test_unit_cap_is_optimal(self):
        """The log-prob rate over the cap parameter peaks at the boundary."""
        rng = np.random.default_rng(56)
        for _ in range(100):
            p = float(rng.uniform(0.05, 0.95))
            q = float(rng.uniform(0.01, 1.0)) * p
            beta = float(rng.uniform(0.01, 1.0))
            alpha = 1.0 + beta
            tail = (1.0 - p) ** alpha
            # beta * dL/dm at m = 1
            slope = q / (1.0 - tail) - 1.0
            assert slope <= 1e-12
            model = binary_model(p, q, beta)
            for m in np.linspace(1.0, 5.0, 9):
                rate_m = (q * math.log((m - tail) / p**alpha) - math.log(m)) / beta
                assert model.rate >= rate_m - 1e-12

    def test_rate_formula(self):
        p, q, beta = 0.3, 0.25, 0.15
        model = binary_model(p, q, beta)
        alpha = 1.0 + beta
        f1 = (1.0 - (1.0 - p) ** alpha) / p**alpha
        assert abs(model.F.value(1, 0) - f1) <= 1e-15
        assert model.F.value(0, 0) == 1.0
        assert abs(model.rate - q * math.log(f1) / beta) <= 1e-15

    def test_vanishing_power_limit(self):
        """The rate tends to the closed form (q/p) H(p)."""
        for p, q in ((0.5, 0.5), (0.1, 0.05), (0.01, 0.01)):
            shannon = -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))
            model = binary_model(p, q, 1e-4)
            assert abs(model.rate - (q / p) * shannon) <= 1e-3

    def test_symmetric_limit_is_log_two(self):
        assert abs(binary_model(0.5, 0.5, 1e-6).rate - math.log(2.0)) <= 1e-6

    def test_estimator_optimality_witness(self):
        """At vanishing power the model's estimator attains the strength."""
        p, q = 0.3, 0.2
        model = binary_model(p, q, 1e-4)
        K = ee_from_qef(model.F)
        expect = (1.0 - q) * K.value(0, 0) + q * K.value(1, 0)
        shannon = -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))
        assert abs(expect - (q / p) * shannon) <= 1e-3

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binary_model(1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            binary_model(0.5, 0.6, 0.1)
        with pytest.raises(ValueError):
            binary_model(0.5, 0.5, 0.0)
