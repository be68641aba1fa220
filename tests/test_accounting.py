"""Finite-data accounting: certificates, trial counts, and rate curves."""

from __future__ import annotations

import csv
import dataclasses
import math
import warnings

import numpy as np
import pytest

from qpe.accounting import (
    ErrorBudget,
    EntropyCertificate,
    MinTrialsRow,
    c_tilde,
    eat_from_qef_bound,
    eat_reference_bound,
    min_trials_row,
    min_trials_table,
    minentropy_bound,
    n_min_eat_from_ee,
    n_min_qef,
    qef_penalty,
    r_max_eat,
    r_max_qef,
    write_mintrials_csv,
    write_rmax_csv,
)
from qpe.estimators import _A, iota0
from qpe.protocols import ProtocolParams
from qpe.qef_engine import TrialFunction

LOG2 = math.log(2.0)
LOG2_E = 1.0 / LOG2


class TestErrorBudget:
    def test_epsilon_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                ErrorBudget(bad)


class TestMinentropyBound:
    def test_zero_factor_gives_negative_bits(self):
        """With no accumulated factor the certificate is pure penalty."""
        budget = ErrorBudget(1e-6)
        for beta in (0.01, 0.1, 0.45):
            cert = minentropy_bound(0.0, beta, budget)
            expected = math.log2(budget.epsilon**2 / 2.0) / beta
            assert abs(cert.bits - expected) <= 1e-9 * abs(expected)
            assert cert.bits < 0.0

    def test_bits_identity(self):
        """bits = log2(F_total)/beta - 2 log2(sqrt(2)/eps)/beta."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            log_qef = rng.uniform(0.0, 500.0)
            beta = rng.uniform(0.005, 1.5)
            eps = 10.0 ** rng.uniform(-12, -1)
            cert = minentropy_bound(log_qef, beta, ErrorBudget(eps))
            expected = (
                log_qef * LOG2_E - 2.0 * math.log2(math.sqrt(2.0) / eps)
            ) / beta
            assert abs(cert.bits - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_smoothness_equals_epsilon(self):
        cert = minentropy_bound(10.0, 0.1, ErrorBudget(1e-4))
        assert abs(cert.smoothness - 1e-4) <= 1e-18
        assert abs(cert.delta - 0.5e-8) <= 1e-22
        assert cert.beta == 0.1

    def test_monotone_in_factor(self):
        budget = ErrorBudget(1e-6)
        bits = [minentropy_bound(g, 0.2, budget).bits for g in (0.0, 5.0, 50.0)]
        assert bits[0] < bits[1] < bits[2]

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            minentropy_bound(1.0, 0.0, ErrorBudget(1e-6))
        with pytest.raises(ValueError):
            minentropy_bound(1.0, -0.1, ErrorBudget(1e-6))


class TestSingleThresholdFormula:
    """Protocol threshold, certificate and trial count share one offset."""

    def test_threshold_certifies_the_demanded_bits(self):
        """At ``log2_f_min`` the certificate holds exactly ``k_i + k_z`` bits."""
        rng = np.random.default_rng(91)
        F = TrialFunction({(c, z): 1.0 for c in range(4) for z in range(4)}, 0.5, "qef")
        for _ in range(60):
            beta = float(rng.uniform(0.01, 1.0))
            eps = float(10.0 ** rng.uniform(-9, -3))
            k_o = int(rng.integers(1, 2000))
            params = ProtocolParams(
                F=dataclasses.replace(F, beta=beta), n=100, k_o=k_o, epsilon=eps,
                epsilon_x=eps / 2.0, k_z=int(rng.choice([0, 7])),
            )
            cert = minentropy_bound(
                params.log2_f_min * LOG2, beta, ErrorBudget(params.epsilon_h)
            )
            assert abs(cert.bits - (params.k_i + params.k_z)) <= 1e-9

    def test_trial_count_is_the_zero_of_the_certificate(self):
        rng = np.random.default_rng(92)
        for _ in range(60):
            beta = float(rng.uniform(0.01, 2.5))
            g = float(rng.uniform(0.01, 1.0))
            budget = ErrorBudget(float(10.0 ** rng.uniform(-9, -3)))
            n = n_min_qef(g, beta, budget)
            bits = minentropy_bound(n * g * beta * LOG2, beta, budget).bits
            assert abs(bits) <= 1e-9 * n * g
            assert minentropy_bound(1.01 * n * g * beta * LOG2, beta, budget).bits > 0.0


class TestNMinQef:
    def test_pinned_reference_point(self):
        """0.1 bits/trial at power 0.01 and error 1e-6 needs ~4.09e4 trials."""
        n = n_min_qef(0.1, 0.01, ErrorBudget(1e-6))
        assert abs(n - 40863.13713864835) <= 1e-6

    def test_halving_rate_doubles_trials(self):
        budget = ErrorBudget(1e-6)
        assert abs(n_min_qef(0.05, 0.01, budget) - 2.0 * n_min_qef(0.1, 0.01, budget)) <= 1e-8

    def test_inverse_in_power_at_full_acceptance(self):
        """The offset is power-free, so n scales as 1/beta."""
        budget = ErrorBudget(1e-6)
        prods = [beta * n_min_qef(0.1, beta, budget) for beta in (0.01, 0.1, 0.45)]
        assert max(prods) - min(prods) <= 1e-9 * prods[0]

    def test_domain(self):
        budget = ErrorBudget(1e-6)
        with pytest.raises(ValueError):
            n_min_qef(0.0, 0.1, budget)
        with pytest.raises(ValueError):
            n_min_qef(0.1, 0.0, budget)

    def test_more_stringent_error_needs_more_trials(self):
        n1 = n_min_qef(0.1, 0.1, ErrorBudget(1e-3))
        n2 = n_min_qef(0.1, 0.1, ErrorBudget(1e-9))
        assert n2 > n1


class TestNMinEat:
    def test_closed_form(self):
        """Reference count is 4/g^2 * width^2 * (1 - 2 log2(eps))."""
        budget = ErrorBudget(1e-6)
        g, k_bits, n_out = 0.07, 3.0, 4
        got = n_min_eat_from_ee(g, k_bits, n_out, budget)
        width = math.log2(9.0) + 3.0
        off = 1.0 - 2.0 * math.log2(1e-6)
        assert abs(got - 4.0 / g**2 * width**2 * off) <= 1e-9 * got

    def test_ratio_to_qef_grows_as_rate_shrinks(self):
        """n_eat / n_qef doubles when the rate is halved."""
        budget = ErrorBudget(1e-6)
        def ratio(g):
            return n_min_eat_from_ee(g, 1.0, 2, budget) / n_min_qef(g, 0.2, budget)
        assert abs(ratio(0.05) - 2.0 * ratio(0.1)) <= 1e-9 * ratio(0.05)

    def test_range_ceiling_is_integerized(self):
        budget = ErrorBudget(1e-6)
        assert n_min_eat_from_ee(0.1, 1.2, 2, budget) == n_min_eat_from_ee(0.1, 2.0, 2, budget)
        w = math.log2(5.0)
        expected = ((w + 2.0) / (w + 1.0)) ** 2
        got = n_min_eat_from_ee(0.1, 2.0, 2, budget) / n_min_eat_from_ee(0.1, 1.0, 2, budget)
        assert abs(got - expected) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            n_min_eat_from_ee(0.0, 1.0, 2, ErrorBudget(1e-6))


class TestEatReferenceBound:
    def test_zero_crossing_scales_quadratically(self):
        """The bound vanishes where the sqrt(n) penalty meets h n."""
        budget = ErrorBudget(1e-6)
        h, k_bits, n_out = 0.3, 2.0, 4
        big_l = abs(math.log(budget.epsilon**2 / 2.0))
        width = math.log(9.0) + 2.0
        n_star = (2.0 * math.sqrt(LOG2_E) * width * math.sqrt(big_l) / h) ** 2
        at_star = eat_reference_bound(h, k_bits, n_out, n_star, budget)
        assert abs(at_star) <= 1e-6 * h * n_star
        assert eat_reference_bound(h, k_bits, n_out, 0.5 * n_star, budget) < 0.0
        quad = eat_reference_bound(h, k_bits, n_out, 4.0 * n_star, budget)
        assert abs(quad - 2.0 * h * n_star) <= 1e-6 * h * n_star

    def test_penalty_prefactor(self):
        budget = ErrorBudget(1e-6)
        n = 10**6
        got = eat_reference_bound(0.2, 1.0, 2, n, budget)
        big_l = abs(math.log(budget.epsilon**2 / 2.0))
        width = math.log(5.0) + 1.0
        penalty = 2.0 * math.sqrt(LOG2_E) * width * math.sqrt(big_l) * math.sqrt(n)
        assert abs(got - (0.2 * n - penalty)) <= 1e-9 * abs(got)


class TestCtilde:
    def test_zero_power_value(self):
        """At power zero both terms collapse onto A(spread + log 2)."""
        for n_out, k_inf in ((2, 1.0), (4, 2.5), (8, math.log(8.0))):
            w0 = math.log(n_out) + k_inf + LOG2
            assert abs(c_tilde(0.0, n_out, k_inf) - _A(w0)) <= 1e-12 * _A(w0)

    def test_general_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            beta = rng.uniform(0.0, 0.98)
            n_out = int(rng.integers(2, 9))
            k_inf = rng.uniform(0.1, 5.0)
            spread = math.log(n_out) + k_inf
            w0 = spread + LOG2
            wb = (1.0 - beta) * spread + LOG2
            expected = (
                2.0 * _A(w0)
                + math.exp(k_inf * beta) / (1.0 - beta) ** 2 * _A(wb)
            ) / 3.0
            got = c_tilde(beta, n_out, k_inf)
            assert abs(got - expected) <= 1e-12 * expected

    def test_argument_floor(self):
        """Below the stationary point the envelope constant is flat."""
        freeze = iota0() - 2.0 * LOG2
        assert c_tilde(0.0, 2, 0.3 * freeze) == c_tilde(0.0, 2, 0.9 * freeze)
        assert c_tilde(0.0, 2, 2.0 * freeze) > c_tilde(0.0, 2, 0.9 * freeze)

    def test_domain(self):
        with pytest.raises(ValueError):
            c_tilde(1.0, 2, 1.0)
        with pytest.raises(ValueError):
            c_tilde(-0.1, 2, 1.0)


class TestEatFromQefBound:
    def test_constant_envelope_closed_form(self):
        """With a constant second-order term the bound is explicit."""
        budget = ErrorBudget(1e-6)
        c0 = 40.0
        n = 10**7
        got = eat_from_qef_bound(0.3, lambda b: c0, n, budget)
        big_l = abs(math.log(budget.epsilon**2 / 2.0))
        expected = 0.3 * n - math.sqrt(2.0 * c0 * big_l * n)
        assert abs(got - expected) <= 1e-9 * abs(expected)

    def test_too_few_trials_rejected(self):
        """The optimized power must stay below one half."""
        budget = ErrorBudget(1e-6)
        tc = lambda b: c_tilde(b, 2, LOG2)
        with pytest.raises(ValueError):
            eat_from_qef_bound(0.3, tc, 20, budget)

    def test_beats_reference_recipe(self):
        """Same range ceiling and outcomes: the factor bound wins at scale."""
        budget = ErrorBudget(1e-6)
        for n_out, k_bits in ((2, 1.0), (4, 3.0)):
            tc = lambda b: c_tilde(b, n_out, k_bits * LOG2)
            for n in (10**6, 10**7, 10**8):
                qef = eat_from_qef_bound(0.4, tc, n, budget)
                ref = eat_reference_bound(0.4, k_bits, n_out, n, budget)
                assert qef > ref


class TestRateCurves:
    def test_r_max_eat_closed_form(self):
        width = math.log(5.0) + 1.0
        expected = 0.3**2 / (4.0 * LOG2_E * width**2)
        assert abs(r_max_eat(0.3, 2, 1.0) - expected) <= 1e-15

    def test_r_max_qef_is_the_penalty_root(self):
        """qef_penalty at the returned ratio reproduces the rate."""
        for h in (0.05, 0.2, 0.5):
            r = r_max_qef(h, 2, 1.0)
            assert abs(qef_penalty(r, 2, 1.0) - h) <= 1e-9 * h

    def test_qef_penalty_formula(self):
        r, n_out, k_inf = 1e-3, 4, 2.0
        beta_bar = math.sqrt(2.0 * r / c_tilde(0.0, n_out, k_inf))
        expected = math.sqrt(2.0 * c_tilde(beta_bar, n_out, k_inf) * r)
        assert abs(qef_penalty(r, n_out, k_inf) - expected) <= 1e-15

    def test_eat_penalty_formula(self):
        """The reference penalty sqrt(4 log2(e) width^2 r) at r_max_eat is the rate."""
        width = math.log(9.0) + 2.0
        for h in (0.05, 0.3, 1.2):
            r = r_max_eat(h, 4, 2.0)
            assert math.isclose(math.sqrt(4.0 * LOG2_E * width**2 * r), h, rel_tol=1e-15)

    def test_qef_curve_dominates_reference(self):
        """The factor analysis tolerates a larger log-error ratio everywhere."""
        for n_out in (2, 4, 8):
            for k_inf in (1.0, math.log(n_out)):
                for h in np.linspace(0.02, math.log(n_out), 12):
                    assert r_max_qef(h, n_out, k_inf) > r_max_eat(h, n_out, k_inf)

    def test_monotone_in_rate(self):
        rs = [r_max_qef(h, 2, 1.0) for h in (0.1, 0.3, 0.6)]
        assert rs[0] < rs[1] < rs[2]

    def test_qef_penalty_domain(self):
        c0 = c_tilde(0.0, 2, 1.0)
        with pytest.raises(ValueError):
            qef_penalty(c0, 2, 1.0)
        with pytest.raises(ValueError):
            r_max_qef(0.0, 2, 1.0)

    def test_rmax_csv(self, tmp_path):
        path = tmp_path / "rmax.csv"
        count = write_rmax_csv(str(path), 2, 1.0)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["h_nats", "r_eat", "r_qef"]
        assert len(rows) == count + 1
        for row in rows[1:]:
            h = float(row[0])
            assert abs(float(row[1]) - r_max_eat(h, 2, 1.0)) <= 1e-9
            assert abs(float(row[2]) - r_max_qef(h, 2, 1.0)) <= 1e-9
        # The default grid, 0.01 to 0.66 nats in steps of 0.05, below log 2.
        assert count == 14
        assert abs(float(rows[1][0]) - 0.01) <= 1e-12
        assert abs(float(rows[2][0]) - 0.06) <= 1e-12
        assert abs(float(rows[-1][0]) - 0.66) <= 1e-12


class TestMinTrials:
    def test_row_consistency(self, nu_e):
        """Row fields reproduce the closed-form counts for the chosen power."""
        from qpe.pef_opt import optimize_pef_polytope

        budget = ErrorBudget(1e-6)
        row = min_trials_row(nu_e, math.pi / 4.0, [0.2], budget)
        F, rate = optimize_pef_polytope(nu_e, 0.2)
        g_bits = rate * LOG2_E
        assert row.beta == 0.2
        assert abs(row.g_bits - g_bits) <= 1e-9 * g_bits
        assert abs(row.n_qef - n_min_qef(g_bits, 0.2, budget)) <= 1e-6 * row.n_qef
        k_bits = F.max_abs_log() * LOG2_E / 0.2
        n_eat = n_min_eat_from_ee(g_bits, k_bits, 4, budget)
        assert abs(row.n_eat - n_eat) <= 1e-6 * n_eat
        assert abs(row.ratio - row.n_eat / row.n_qef) <= 1e-12
        assert abs(row.i_hat - 2.0 * math.sqrt(2.0)) <= 1e-6

    def test_grid_picks_best_count(self, nu_e):
        budget = ErrorBudget(1e-6)
        row = min_trials_row(nu_e, math.pi / 4.0, [0.05, 0.2], budget)
        single = min_trials_row(nu_e, math.pi / 4.0, [0.05], budget)
        assert row.n_qef <= single.n_qef + 1e-9

    def test_tied_powers_pick_the_stronger_reference(self):
        """At W 0.75 the rate is inverse in the power, so both powers need
        the same trials to 1e-10.  W 0.7075 is nearly local: its counts agree
        to 1e-6, but the optimizer's gap certifies them only to about 2e-3,
        relative.  Either way the tie goes to the smaller reference count, in
        either grid order."""
        from qpe.models import family_distribution

        budget = ErrorBudget(1e-6)
        for p, rtol in ((0.75, 1e-10), (0.7075, 1e-6)):
            nu = family_distribution("W", p)
            rows = {b: min_trials_row(nu, p, [b], budget) for b in (0.05, 0.2)}
            assert math.isclose(rows[0.05].n_qef, rows[0.2].n_qef, rel_tol=rtol)
            assert rows[0.05].n_eat < rows[0.2].n_eat
            for grid in ([0.05, 0.2], [0.2, 0.05]):
                assert min_trials_row(nu, p, grid, budget) == rows[0.05]

    def test_table_skips_zero_rate_points(self):
        """A non-violating point cannot fund a positive rate and is skipped."""
        budget = ErrorBudget(1e-6)
        with pytest.warns(RuntimeWarning, match="skipped"):
            rows = min_trials_table("E", [0.0, math.pi / 4.0], [0.2], budget)
        assert len(rows) == 1
        assert abs(rows[0].param - math.pi / 4.0) <= 1e-12

    def test_table_matches_its_rows(self):
        """The table's one grid call gives each point the row of a lone
        ``min_trials_row``, field for field."""
        from qpe.models import family_distribution

        budget, grid = ErrorBudget(1e-6), [0.05, 0.2]
        params = [0.75, 0.9, 1.0]
        rows = min_trials_table("W", params, grid, budget)
        assert rows == [
            min_trials_row(family_distribution("W", p), p, grid, budget) for p in params
        ]

    def test_table_skips_points_outside_the_model(self, nu_e, monkeypatch):
        """A point whose table the model cannot reach is skipped with a
        warning before the grid solve, and the other points are solved in it."""
        from qpe import models, pef_opt

        local = models.family_distribution("E", 0.0)
        assert local.joint[1, 0] == 0.0 < nu_e.joint[1, 0]
        tables = pef_opt.MODEL_TABLES.copy()
        tables[:, 1, 0] = 0.0
        monkeypatch.setattr(pef_opt, "MODEL_TABLES", tables)
        monkeypatch.setattr(
            models, "family_distribution", lambda fam, p: nu_e if p == 0.0 else local
        )
        solved = []
        grid = pef_opt.optimize_pef_grid

        def spy(nus, betas):
            if betas:  # A grid of no powers only checks the tables.
                solved.extend(nus)
            return grid(nus, betas)

        monkeypatch.setattr(pef_opt, "optimize_pef_grid", spy)
        with pytest.warns(RuntimeWarning) as caught:
            rows = min_trials_table("E", [0.0, 1.0], [0.05, 0.2], ErrorBudget(1e-6))
        assert rows == [] and solved == [local]
        assert [str(w.message) for w in caught] == [
            "E param 0 skipped: an observed outcome is outside the model polytope",
            "E param 1 skipped: no positive rate on the power grid",
        ]

    @pytest.mark.parametrize("grid", [[0.05, -0.2], [math.nan], [0.05, math.inf]])
    def test_bad_power_fails_the_table(self, grid):
        """A bad power raises, naming it, instead of skipping every point."""
        budget = ErrorBudget(1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"not {grid[-1]!r}"):
                min_trials_table("W", [0.75, 1.0], grid, budget)

    def test_csv_format(self, tmp_path):
        row = MinTrialsRow(
            param=0.9,
            i_hat=2.5,
            beta=0.2,
            g_bits=0.1,
            n_qef=1000.0,
            n_eat=30000.0,
        )
        path = tmp_path / "table.csv"
        write_mintrials_csv(str(path), [row])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["family_param", "I_hat", "n_qef", "n_eat_F", "ratio"]
        assert float(rows[1][0]) == 0.9
        assert float(rows[1][2]) == 1000.0
        assert float(rows[1][4]) == 30.0
