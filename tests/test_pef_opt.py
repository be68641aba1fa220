"""Polytope factors: vertex tables, the rate optimizer, and their quantum bracket."""

from __future__ import annotations

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from qpe import pef_opt
from qpe.estimators import binary_model
from qpe.models import TrialDistribution, chsh_value, correlators
from qpe.pef_opt import (
    CUT_TABLES,
    LOCAL_TABLES,
    MODEL_TABLES,
    local_deterministic_vertices,
    optimize_pef_grid,
    optimize_pef_polytope,
    pef_inequality_check,
)
from qpe.qef_engine import certify_fmax, inner_max_tau, q_alpha

ROOT2 = math.sqrt(2.0)

# The default power grid of ``qpe mintrials``, and the largest power tested.
BETA_GRID = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.45)

# The eight CHSH sign patterns: an odd number of minus signs.
PATTERNS = [s for s in itertools.product((-1, 1), repeat=4) if np.prod(s) == -1]


def variant_values(tables):
    """``values[..., i] = sum_z PATTERNS[i][z] E(z)``: each table's signed
    correlator sum on each CHSH sign pattern."""
    return correlators(tables) @ np.array(PATTERNS, dtype=float).T


def strategy_loop_tables():
    """Joint table of each local deterministic vertex, built strategy by
    strategy: ``a = fa(x)``, ``b = fb(y)``, ``c = a + 2 b``."""
    strategies = (lambda x: 0, lambda x: 1, lambda x: x, lambda x: 1 - x)
    out = []
    for fa in strategies:
        for fb in strategies:
            probs = {}
            for z in range(4):
                hit = fa(z & 1) + 2 * fb((z >> 1) & 1)
                for c in range(4):
                    probs[(c, z)] = 0.25 if c == hit else 0.0
            out.append(probs)
    return out


def box_loop_tables():
    """Joint table of each PR box, outcome by outcome: box ``ax + 2 by + 4 g``
    puts 1/8 on ``(c, z)`` when ``a ^ b = x y ^ ax x ^ by y ^ g``."""
    out = []
    for flags in range(8):
        ax, by, g = flags & 1, (flags >> 1) & 1, (flags >> 2) & 1
        probs = {}
        for z in range(4):
            x, y = z & 1, (z >> 1) & 1
            for c in range(4):
                a, b = c & 1, (c >> 1) & 1
                hit = (a ^ b) == (x & y) ^ (ax & x) ^ (by & y) ^ g
                probs[(c, z)] = 0.125 if hit else 0.0
        out.append(probs)
    return out


def loop_correlators(t):
    """``E(z) = sum_c (-1)**(a + b) t[c, z]``, outcome by outcome."""
    return np.array(
        [sum((-1) ** ((c & 1) + (c >> 1)) * t[c, z] for c in range(4)) for z in range(4)]
    )


def cond_array(probs):
    """``t[c, z]`` of a joint table, normalized over ``c`` by a validated
    :class:`TrialDistribution`."""
    return TrialDistribution(2, 2, probs).cond


# The 8 PR boxes, the nonlocal vertices of the no-signaling polytope that
# the cuts are taken toward, as conditional tables.
PR_BOXES = np.array([cond_array(b) for b in box_loop_tables()])


@pytest.fixture(scope="module")
def pef45(nu_e):
    return optimize_pef_polytope(nu_e, 0.45)


@pytest.fixture(scope="module")
def cert45(pef45, config22):
    """The power-0.45 factor's bracket over quantum models at gap 1e-3,
    with its cells."""
    F, _ = pef45
    return certify_fmax(F, config22, 1e-3, seed=0)


class TestVertices:
    def test_counts(self):
        assert LOCAL_TABLES.shape == (16, 4, 4)
        assert PR_BOXES.shape == (8, 4, 4)
        assert CUT_TABLES.shape == (64, 4, 4)
        assert MODEL_TABLES.shape == (80, 4, 4)
        assert len(local_deterministic_vertices()) == 16

    def test_deterministic_tables(self):
        """Each local table has one unit conditional per setting."""
        for t in LOCAL_TABLES:
            for z in range(4):
                assert sorted(t[:, z]) == [0.0, 0.0, 0.0, 1.0]

    def test_tables_are_normalized(self):
        """Every table, boxes included, sums to one over ``c``."""
        for tables in (MODEL_TABLES, PR_BOXES):
            assert np.abs(tables.sum(axis=1) - 1.0).max() <= 1e-12
            assert tables.min() >= 0.0

    def test_tables_are_no_signaling(self):
        """Each station's conditional marginal ignores the other's setting."""
        for tables in (MODEL_TABLES, PR_BOXES):
            # t[m, b, a, y, x]: outcomes and settings split by station.
            t = tables.reshape(-1, 2, 2, 2, 2)
            marg_a = t.sum(axis=1)  # [m, a, y, x]
            marg_b = t.sum(axis=2)  # [m, b, y, x]
            assert np.abs(marg_a[:, :, 0] - marg_a[:, :, 1]).max() <= 1e-10
            assert np.abs(marg_b[..., 0] - marg_b[..., 1]).max() <= 1e-10

    def test_variant_values(self):
        """Locals reach 2, boxes reach 4, cut points reach 2 sqrt(2)."""
        for vals in variant_values(LOCAL_TABLES):
            assert abs(vals.max() - 2.0) <= 1e-12
        for vals in variant_values(PR_BOXES):
            assert abs(vals.max() - 4.0) <= 1e-12
            assert np.sum(vals > 2.0 + 1e-9) == 1
        for vals in variant_values(CUT_TABLES):
            assert abs(vals.max() - 2.0 * ROOT2) <= 1e-12

    def test_cut_reaches_tsirelson_on_its_box_pattern(self):
        """Box ``i // 8``'s cuts reach ``2 sqrt(2)`` on the pattern of the box's
        correlator signs, and the box reaches 4 there."""
        for i, t in enumerate(CUT_TABLES):
            pattern = correlators(PR_BOXES[i // 8])
            assert sorted(np.abs(pattern)) == [1.0] * 4
            assert abs(correlators(t) @ pattern - 2.0 * ROOT2) <= 1e-12
            assert correlators(PR_BOXES[i // 8]) @ pattern == 4.0

    def test_tables_match_strategy_loop(self):
        """Every table equals its loop-built reference: the local tables and
        their ``TrialDistribution`` view, and each cut at weight
        ``sqrt(2) - 1`` between a box and a local table that reaches 2 on the
        box's pattern, taken box by box."""
        ref = strategy_loop_tables()
        for t, v, probs in zip(LOCAL_TABLES, local_deterministic_vertices(), ref):
            assert list(v.probs.items()) == sorted(probs.items())
            assert np.array_equal(t, cond_array(probs))
        boxes = box_loop_tables()
        w = ROOT2 - 1.0
        want = []
        for box in boxes:
            signs = loop_correlators(cond_array(box))
            for ld in ref:
                if round(float(loop_correlators(cond_array(ld)) @ signs)) == 2:
                    want.append(
                        cond_array(
                            {key: w * p + (1.0 - w) * ld[key] for key, p in box.items()}
                        )
                    )
        assert np.array_equal(CUT_TABLES, np.array(want))
        assert np.array_equal(MODEL_TABLES, np.concatenate([LOCAL_TABLES, CUT_TABLES]))

    def test_no_vertex_exceeds_quantum_bound(self):
        assert variant_values(MODEL_TABLES).max() <= 2.0 * ROOT2 + 1e-9

    def test_vertices_distinct(self):
        keys = {tuple(np.round(t, 12).ravel()) for t in MODEL_TABLES}
        assert len(keys) == len(MODEL_TABLES)

    def test_variant_matches_standard_functional(self):
        """The correlators are the outcome-by-outcome sums, and the
        all-but-last sign pattern is the usual correlator sum."""
        want = np.array([loop_correlators(t) for t in MODEL_TABLES])
        assert np.array_equal(correlators(MODEL_TABLES), want)
        for t in CUT_TABLES[:8]:
            got = float(correlators(t) @ np.array([1.0, 1.0, 1.0, -1.0]))
            probs = {(c, z): 0.25 * float(t[c, z]) for c in range(4) for z in range(4)}
            assert abs(got - chsh_value(TrialDistribution(2, 2, probs))) <= 1e-12


class TestPefInequalityCheck:
    def test_unit_factor_is_tight(self):
        """F = 1 saturates the constraint at every deterministic vertex."""
        from qpe.qef_engine import TrialFunction

        keys = {(c, z): 1.0 for c in range(4) for z in range(4)}
        F = TrialFunction(keys, 0.3, role="pef")
        assert abs(pef_inequality_check(F)) <= 1e-12

    def test_scaling_identity(self, pef45):
        F, _ = pef45
        slack = pef_inequality_check(F)
        half = pef_inequality_check(F.scaled(0.5))
        assert abs((1.0 - half) - 0.5 * (1.0 - slack)) <= 1e-12

    def test_optimizer_output_feasible(self, nu_e):
        for beta in (0.005, 0.05, 0.45):
            F, _ = optimize_pef_polytope(nu_e, beta)
            assert pef_inequality_check(F) >= -1e-9


class TestOptimizePolytope:
    def test_pinned_rates_at_maximal_violation(self, nu_e):
        """Rates at the singlet-like table, nats per trial."""
        expected = {
            0.005: 0.6120561844264081,
            0.02: 0.5748977507296258,
            0.05: 0.492241910678252,
            0.45: 0.07127685884466994,
        }
        for beta, rate_ref in expected.items():
            _, rate = optimize_pef_polytope(nu_e, beta)
            assert abs(rate - rate_ref) <= 1e-9

    def test_rate_decreases_with_power(self, nu_e):
        rates = [optimize_pef_polytope(nu_e, b)[1] for b in (0.005, 0.05, 0.45)]
        assert rates[0] > rates[1] > rates[2]

    def test_local_table_has_no_rate(self):
        """Tables inside the local polytope get the all-ones factor on their
        observed outcomes, and no rate, not even roundoff."""
        from qpe.models import family_distribution

        uni = TrialDistribution(
            2, 2, {(c, z): 1.0 / 16.0 for c in range(4) for z in range(4)}
        )
        for nu in (uni, family_distribution("E", 0.0), family_distribution("W", 0.5)):
            for beta in BETA_GRID:
                F, rate = optimize_pef_polytope(nu, beta)
                assert -1e-9 <= rate <= 0.0
                observed = [key for key, p in nu.probs.items() if p > 0.0]
                assert all(F.value(*key) == 1.0 for key in observed)

    @pytest.mark.parametrize(
        "family, param, beta, loop_rate",
        [
            ("E", 0.4, 0.005, 0.34305129195369727),
            ("E", 0.4, 0.02, 0.33061400253819656),
            ("P", 0.9, 0.005, 0.234278539226844),
            ("P", 0.9, 0.02, 0.20843265972000422),
            ("E", math.pi / 4.0, 0.005, 0.6120554287955925),
            ("E", math.pi / 4.0, 0.02, 0.574896976462736),
            ("E", 0.01, 0.005, -3.004813918147389),
            ("E", 0.001, 0.005, -3.95619077372832),
        ],
    )
    def test_rate_is_optimal(self, family, param, beta, loop_rate):
        """The rate is certified without a warning, is at least the
        multiplicative-gradient loop's rate (``loop_rate``, which stopped up
        to 1e-3 short, and far short on nearly local tables whose entries
        reach 1e-13 and 4e-18), and is no more than 1e-8 below an
        independent SLSQP solve of the same program in log-variables,
        rescaled onto the polytope."""
        from scipy.optimize import minimize

        from qpe.models import family_distribution

        nu = family_distribution(family, param)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, rate = optimize_pef_polytope(nu, beta)
        assert rate >= loop_rate - 1e-12

        keys = [key for key in sorted(nu.probs) if nu.probs[key] > 0.0]
        w = np.array([nu.probs[key] for key in keys])
        a = np.array(
            [
                [nu.mu[z] * float(t[c, z]) ** (1.0 + beta) for c, z in keys]
                for t in MODEL_TABLES
            ]
        )
        res = minimize(
            lambda u: -w @ u,
            np.full(len(keys), math.log(0.5)),
            jac=lambda u: -w,
            constraints=[
                {
                    "type": "ineq",
                    "fun": lambda u: 1.0 - a @ np.exp(u),
                    "jac": lambda u: -a * np.exp(u),
                }
            ],
            method="SLSQP",
            options={"ftol": 1e-15, "maxiter": 1000},
        )
        x = np.exp(res.x)
        independent = float(w @ np.log(x / (a @ x).max())) / beta
        assert rate >= independent - 1e-8

    def test_rate_grows_with_violation(self, nu_e):
        from qpe.models import family_distribution

        r1 = optimize_pef_polytope(family_distribution("E", 0.2), 0.02)[1]
        r2 = optimize_pef_polytope(family_distribution("E", 0.45), 0.02)[1]
        r3 = optimize_pef_polytope(nu_e, 0.02)[1]
        assert 0.0 < r1 < r2 < r3

    def test_binary_model_embedding(self):
        """A capped-success model solved by the dual matches the closed form."""
        p, q = 0.3, 0.2
        # Vertex tables t[m, c, z]: success c = 1 at rate s0 under z = 0 and
        # s1 under z = 1, each capped at p.
        tables = np.array(
            [[[1.0 - s0, 1.0 - s1], [s0, s1]] for s0 in (0.0, p) for s1 in (0.0, p)]
        )
        obs = TrialDistribution(
            1, 1, {(c, z): (q if c else 1.0 - q) / 2.0 for c in (0, 1) for z in (0, 1)}
        )
        _, rate = optimize_pef_polytope(obs, 0.1, tables=tables)
        assert abs(rate - binary_model(p, q, 0.1).rate) <= 1e-5
        _, tiny = optimize_pef_polytope(obs, 1e-4, tables=tables)
        shannon = -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))
        assert abs(tiny - (q / p) * shannon) <= 1e-3

    def test_domain(self, nu_e):
        with pytest.raises(ValueError):
            optimize_pef_polytope(nu_e, 0.0)
        # Model tables must cover the observed table's (c, z) grid.
        one_bit = TrialDistribution(1, 1, {(c, z): 0.25 for c in (0, 1) for z in (0, 1)})
        with pytest.raises(ValueError):
            optimize_pef_polytope(one_bit, 0.1)
        with pytest.raises(ValueError):
            optimize_pef_polytope(nu_e, 0.1, tables=MODEL_TABLES[:, :2, :2])


class TestGrid:
    """A grid's programs, solved in lockstep, against each solved alone."""

    POINTS = (("E", 0.0), ("E", math.pi / 4.0), ("W", 0.8), ("P", 0.9))
    POWERS = (0.005, 0.05, 0.45)

    def test_grid_matches_single_programs(self):
        """Every factor value and rate bit for bit.  E 0 has zero cells, so
        its programs are a second group of the grid."""
        from qpe.models import family_distribution

        nus = [family_distribution(fam, p) for fam, p in self.POINTS]
        assert len({(nu.joint > 0.0).tobytes() for nu in nus}) == 2
        grid = optimize_pef_grid(nus, self.POWERS, tables=LOCAL_TABLES)
        assert [len(row) for row in grid] == [3] * 4
        for nu, row in zip(nus, grid):
            for beta, (F, rate) in zip(self.POWERS, row):
                alone, alone_rate = optimize_pef_polytope(nu, beta, tables=LOCAL_TABLES)
                assert F.beta == beta
                assert F.values == alone.values
                assert rate.hex() == alone_rate.hex()

    @staticmethod
    def singular_at_third_step(monkeypatch):
        """Make the first program's Newton system zero, so singular, at the
        third lockstep solve."""
        solve, calls = np.linalg.solve, []

        def fake(k, rhs):
            if k.ndim == 3:
                calls.append(k.shape[0])
                if len(calls) == 3:
                    k[0] = 0.0
            return solve(k, rhs)

        monkeypatch.setattr(np.linalg, "solve", fake)
        return calls

    def test_singular_system_stops_only_its_program(self, nu_e, monkeypatch):
        """A singular Newton system in one program of a lockstep run."""
        clean = optimize_pef_grid([nu_e], self.POWERS)[0]
        calls = self.singular_at_third_step(monkeypatch)
        with pytest.warns(RuntimeWarning, match="duality gap") as caught:
            hit = optimize_pef_grid([nu_e], self.POWERS)[0]
        assert calls[:3] == [3, 3, 3]
        assert len(caught) == 1
        # The other programs keep their results.
        for (F, rate), (F1, rate1) in zip(hit[1:], clean[1:]):
            assert F.values == F1.values
            assert rate.hex() == rate1.hex()
        # The hit program stopped where a lone solve with the same fault stops.
        assert hit[0][1] < clean[0][1]
        self.singular_at_third_step(monkeypatch)
        with pytest.warns(RuntimeWarning, match="duality gap"):
            F, rate = optimize_pef_polytope(nu_e, self.POWERS[0])
        assert F.values == hit[0][0].values
        assert rate.hex() == hit[0][1].hex()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.2, 0.0])
    def test_bad_power_raises_before_any_solve(self, nu_e, bad, monkeypatch):
        def no_solve(a, nu):
            raise AssertionError("a program was solved")

        monkeypatch.setattr(pef_opt, "_max_log_factor", no_solve)
        message = re.escape(f"not {bad!r}")
        with pytest.raises(ValueError, match=message):
            optimize_pef_grid([nu_e], [0.05, bad])
        with pytest.raises(ValueError, match=message):
            optimize_pef_polytope(nu_e, bad)


class TestCertifyPefFmax:
    """The polytope factor's bound over quantum models, from ``certify_fmax``.

    For a pure state ``tau^{1/alpha} = tau``, so the PEF functional is
    ``q_alpha``; the supremum over all densities bounds it.
    """

    def test_witness_attains_lower(self, pef45, cert45):
        F, _ = pef45
        got = q_alpha(F, cert45.witness_theta, cert45.witness_tau)
        assert abs(got - cert45.f_lower) <= 1e-12 * cert45.f_lower

    def test_upper_bound_dominates_samples(self, pef45, cert45):
        """Real and complex pure states and rank-2 mixtures at random angles
        stay under the bracket."""
        F, _ = pef45
        rng = np.random.default_rng(17)

        def unit():
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            return x / np.linalg.norm(x)

        states = []
        for _ in range(300):
            x = rng.standard_normal(4)
            states.append(np.outer(x, x) / (x @ x))
        for _ in range(100):
            x = unit()
            states.append(np.outer(x, x.conj()))
        for _ in range(100):
            x, y, p = unit(), unit(), rng.uniform()
            states.append(p * np.outer(x, x.conj()) + (1 - p) * np.outer(y, y.conj()))
        for tau in states:
            theta = rng.uniform(0.0, math.pi, size=2)
            assert q_alpha(F, theta, tau) <= cert45.f_upper + 1e-9

    def test_recorded_regions_are_sound(self, pef45, cert45):
        """At interior angles of kept cells, sampled states and the inner
        maximum respect the cell bounds."""
        F, _ = pef45
        rng = np.random.default_rng(23)
        boxes, _, bounds = cert45.cells
        assert len(bounds)
        idx = rng.choice(len(bounds), size=min(60, len(bounds)), replace=False)
        for i in idx:
            theta = [rng.uniform(lo, hi) for lo, hi in boxes[i]]
            assert inner_max_tau(F, theta, tol=1e-6).value <= bounds[i] + 1e-9
            for _ in range(4):
                x = rng.standard_normal(4)
                val = q_alpha(F, theta, np.outer(x, x) / (x @ x))
                assert val <= bounds[i] + 1e-9

    def test_agrees_with_mixed_state_certifier(self, pef45, cert45):
        """The supremum over densities is attained by a pure state, so the
        pure-state supremum lies in the same bracket."""
        F, _ = pef45
        lam, vecs = np.linalg.eigh(cert45.witness_tau.matrix)
        assert lam[-1] >= 1.0 - 1e-9 and lam[:-1].sum() <= 1e-9
        v = vecs[:, -1]
        pure = q_alpha(F, cert45.witness_theta, np.outer(v, v.conj()))
        assert abs(pure - cert45.f_lower) <= 1e-9 * cert45.f_lower
        assert pure <= cert45.f_upper + 1e-9


class TestQuantumBracket:
    """``certify_fmax`` brackets a polytope factor over all quantum models."""

    def test_one_homogeneous(self, pef45, config22, cert45):
        """Scaling the factor and the gap by 1.5 scales the bracket by 1.5
        and explores the same regions."""
        F, _ = pef45
        for gap, r1 in (
            (1e-2, certify_fmax(F, config22, 1e-2, seed=0)),
            (1e-3, cert45),
        ):
            r2 = certify_fmax(F.scaled(1.5), config22, 1.5 * gap, seed=0)
            assert r1.regions_explored == r2.regions_explored
            assert abs(r2.f_upper - 1.5 * r1.f_upper) <= 1e-8 * r2.f_upper
            assert abs(r2.f_lower - 1.5 * r1.f_lower) <= 1e-8 * r2.f_lower
