"""Estimation-factor engine: the defining inequality, record sums, certification."""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qpe import models, qef_engine, quantum_core
from qpe.models import (
    BellConfig,
    CanonicalState,
    TrialDistribution,
    canonical_cq_state,
    povm_vectors,
)
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
from qpe.quantum_core import CqDistribution, HermitianOperator, RenyiOrder, renyi_power


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def chained_case(f: np.ndarray, beta: float, entries: np.ndarray):
    """A product factor and a composed two-trial state on a 4-dimensional memory.

    ``f[t, c, z]`` is trial ``t``'s weight.  ``entries`` holds 20 complex 2x2
    matrices as ``[re/im, j]``: ``a_j a_j*`` is the trial-1 block of cell ``j``
    for ``j < 4`` and the trial-2 block, given trial-1 cell ``(j - 4) // 4``,
    of cell ``(j - 4) % 4``.  Cells ``(c, z)`` are numbered ``c + 2 z``.  The
    composed state has unit trace unless it is zero.
    """
    a = entries[0] + 1j * entries[1]
    rho = a @ a.conj().swapaxes(-1, -2)
    blocks, values = {}, {}
    for (c1, z1, c2, z2) in np.ndindex(2, 2, 2, 2):
        key = (c1 + 2 * c2, z1 + 2 * z2)
        first = c1 + 2 * z1
        blocks[key] = np.kron(rho[first], rho[4 + 4 * first + c2 + 2 * z2])
        values[key] = f[0, c1, z1] * f[1, c2, z2]
    total = sum(np.trace(b).real for b in blocks.values())
    if total > 0.0:
        # Complex division by a subnormal total overflows; the parts do not.
        blocks = {k: b.real / total + 1j * (b.imag / total) for k, b in blocks.items()}
    stack = [[blocks[(c, z)] for c in range(4)] for z in range(4)]
    return TrialFunction(values, beta, role="qef"), CqDistribution(stack)


def _leak_entries(imag: float) -> np.ndarray:
    """Entries for :func:`chained_case` with one nearly rank-one trial-1 block."""
    entries = np.full((2, 20, 2, 2), 0.25)
    entries[0, 0] = [[1e-6, 0.25], [0.0, 0.25]]
    entries[1] = imag
    return entries


def per_block_slack(F: TrialFunction, rho: CqDistribution, kind: str) -> float:
    """The defining inequality's slack as a loop of single-pair Renyi powers."""
    order = RenyiOrder.from_beta(F.beta)
    total = 0.0
    for c, z in rho.keys():
        block, marg = rho.block(c, z).matrix, rho.marginal(z).matrix
        total += F.value(c, z) * renyi_power(block, marg, order, kind=kind)
    return rho.trace_total() - total


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
        assert TrialFunction.from_json(F.to_json()).scaled(1.0, role="qef").role == "qef"

    def test_json_round_robin_keys(self):
        F = TrialFunction({(0, 0, 0): 1.0, (0, 0, 1): 2.0}, 0.3)
        back = TrialFunction.from_json(F.to_json())
        assert back.values == F.values


class TestMissingCell:
    """A factor with no value at some cell of its ``(c, z)`` grid is rejected by name."""

    def test_certifier_paths_name_the_first_missing_cell(self, config22):
        gone = {(3, 3), (1, 2)}
        values = {(c, z): 1.0 for c in range(4) for z in range(4) if (c, z) not in gone}
        F = TrialFunction(values, 0.05, role="qef")
        theta = (0.3, 1.2)
        calls = (
            lambda: certify_fmax(F, config22, 1e-3),
            lambda: inner_max_tau(F, theta),
            lambda: q_alpha(F, theta, np.eye(4) / 4.0),
        )
        for call in calls:
            # Cells run z major, so (1, 2) comes before (3, 3).
            with pytest.raises(ValueError, match=r"no value at cell \(1, 2\)"):
                call()


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

    @pytest.mark.parametrize("kind", ["sandwiched", "petz"])
    def test_stacked_matches_per_block_loop(self, kind):
        """One broadcast evaluation equals a loop of single-pair powers."""
        rng = np.random.default_rng(38)

        def factor(k):
            n = 1 << k
            values = {(c, z): float(rng.uniform(0.0, 2.0)) for c in range(n) for z in range(n)}
            return TrialFunction(values, float(rng.uniform(0.05, 0.95)), role="qef")

        def canonical(k, rank=None):
            d = 1 << k
            a = rng.standard_normal((d, rank or d)) + 1j * rng.standard_normal((d, rank or d))
            tau = a @ a.conj().T
            config = BellConfig.uniform(tuple(rng.uniform(0.0, math.pi, size=k)))
            return canonical_cq_state(CanonicalState(config, HermitianOperator(tau / np.trace(tau).real)))

        cases = [(factor(k), canonical(k)) for k in (1, 2, 3) for _ in range(3)]
        # Rank-deficient states: every marginal tau / 2**k has a kernel.
        cases += [(factor(k), canonical(k, rank)) for k, rank in ((1, 1), (2, 1), (2, 3), (3, 2))]
        # |0><0| measured at angle 0 leaves the block (1, 0) zero.
        zero = canonical_cq_state(CanonicalState(
            BellConfig.uniform((0.0,)), HermitianOperator(np.diag([1.0, 0.0]))
        ))
        assert not zero.block(1, 0).matrix.any()
        cases.append((factor(1), zero))
        for _ in range(5):
            joint = rng.dirichlet(np.ones(8)).reshape(2, 4)
            joint[rng.integers(0, 2), rng.integers(0, 4)] = 0.0
            joint[:, rng.integers(0, 4)] = 0.0
            rho = CqDistribution.classical({(c, z): joint[c, z] for c in range(2) for z in range(4)})
            values = {(c, z): float(rng.uniform(0.0, 2.0)) for c in range(2) for z in range(4)}
            cases.append((TrialFunction(values, 0.4, role="qef"), rho))
        for _ in range(5):
            f = rng.uniform(0.2, 1.0, size=(2, 2, 2))
            cases.append(chained_case(f, 0.3, rng.standard_normal((2, 20, 2, 2))))
        for F, rho in cases:
            got = qef_inequality_check(F, rho, kind=kind)
            assert abs(got - per_block_slack(F, rho, kind)) <= 1e-13

    def test_canonical_slack_is_the_functional(self):
        """``tr rho - slack`` is ``q_alpha`` at the state's ``tau`` and angles:
        pure and mixed ``tau``, random and commuting angles."""
        rng = np.random.default_rng(40)
        for i in range(300):
            k = 1 + i % 2
            d = 1 << k
            F = TrialFunction(
                {(c, z): float(rng.uniform(0.0, 2.0)) for c in range(d) for z in range(d)},
                float(rng.uniform(0.05, 0.95)),
            )
            rank = int(rng.integers(1, d + 1))
            a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
            tau = a @ a.conj().T
            tau /= np.trace(tau).real
            if i % 3 == 0:
                theta = tuple(math.pi * rng.integers(0, 2, size=k).astype(float))
            else:
                theta = tuple(rng.uniform(0.0, math.pi, size=k))
            rho = canonical_cq_state(CanonicalState(BellConfig.uniform(theta), HermitianOperator(tau)))
            got = rho.trace_total() - qef_inequality_check(F, rho)
            ref = q_alpha(F, theta, tau)
            assert abs(got - ref) <= 1e-12 * max(1.0, ref)

    def test_canonical_checks_decompose_no_product(self, monkeypatch):
        """A canonical state and its four checks take one ``eigh`` call, on
        ``tau``: the blocks' supports and the marginals' spectra are known, and
        the sandwiched kind's 1x1 support matrices are their own eigenvalues."""
        rng = np.random.default_rng(41)
        tau = HermitianOperator(random_density(rng, 4))
        config = BellConfig.uniform(tuple(rng.uniform(0.0, math.pi, size=2)))
        values = {(c, z): float(rng.uniform(0.5, 1.5)) for c in range(4) for z in range(4)}
        factors = [TrialFunction(values, beta) for beta in (0.2, 0.1, 0.25, 0.4)]
        shapes = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        rho = canonical_cq_state(CanonicalState(config, tau))
        slack = qef_inequality_check(factors[0], rho)
        petz = [qef_inequality_check(F, rho, kind="petz") for F in factors[1:]]
        assert shapes == [(4, 4)]
        assert math.isfinite(slack) and all(math.isfinite(s) for s in petz)

    def test_cell_outside_factor_domain_named(self):
        F = constant_one(1, 1, 0.2)
        rho = CqDistribution.classical({(c, z): 0.125 for c in range(4) for z in range(2)})
        with pytest.raises(ValueError, match=r"cell \(2, 0\) of the state is outside"):
            qef_inequality_check(F, rho)

    def test_petz_above_order_two_rejected(self, canonical_sampler):
        rho = canonical_sampler(np.random.default_rng(39))
        with pytest.raises(ValueError, match="alpha <= 2"):
            qef_inequality_check(constant_one(2, 2, 1.5), rho, kind="petz")


class TestCachedChecks:
    """A state's support geometry and a factor's value grid are built on first
    use and kept: checks read the same bits as on a fresh state and factor."""

    @staticmethod
    def _states(rng):
        """``(cells, build)`` pairs: a state's ``(n_z, n_c)`` and a function
        that builds it afresh.  Canonical states with ``tau`` of every rank,
        then random block stacks with zero and rank-deficient blocks."""
        out = []
        for k in (1, 2):
            d = 1 << k
            for rank in range(1, d + 1):
                a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
                tau = a @ a.conj().T
                state = CanonicalState(
                    BellConfig.uniform(tuple(rng.uniform(0.0, math.pi, size=k))),
                    HermitianOperator(tau / np.trace(tau).real),
                )
                out.append(((d, d), lambda state=state: canonical_cq_state(state)))
        for n_z, n_c, dim in ((1, 3, 2), (2, 2, 3), (3, 4, 1), (4, 2, 4)):
            blocks = np.zeros((n_z, n_c, dim, dim), dtype=complex)
            for z, c in np.ndindex(n_z, n_c):
                rank = int(rng.integers(0, dim + 1))
                a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
                blocks[z, c] = a @ a.conj().T / (n_z * n_c * dim)
            out.append(((n_z, n_c), lambda blocks=blocks: CqDistribution(blocks.copy())))
        return out

    def test_checks_in_any_order_match_fresh_states(self):
        rng = np.random.default_rng(42)
        states = self._states(rng)
        # Factors over a 4 x 4 grid serve every state, sliced to its cells.
        factors = [
            TrialFunction(
                {(c, z): float(rng.uniform(0.0, 2.0)) for c in range(4) for z in range(4)},
                beta,
            )
            for beta in (0.05, 0.3, 0.7, 0.95, 0.3)
        ]
        built = [build() for _, build in states]
        jobs = [
            (i, j, kind)
            for i in range(len(states)) for j in range(len(factors))
            for kind in ("sandwiched", "petz")
        ] * 2
        for n in rng.permutation(len(jobs)):
            i, j, kind = jobs[n]
            F = factors[j]
            got = qef_inequality_check(F, built[i], kind=kind)
            fresh = TrialFunction(dict(F.values), F.beta)
            ref = qef_inequality_check(fresh, states[i][1](), kind=kind)
            assert got == ref, (i, j, kind)
        # The first six states are canonical: their cache is the blocks'
        # closed-form support, where renyi_power on the bare operators
        # decomposes the blocks, so the two agree to roundoff.
        for i, rho in enumerate(built):
            for kind in ("sandwiched", "petz"):
                for normalized in (False, True):
                    order = RenyiOrder(float(rng.uniform(1.05, 1.95)))
                    direct = renyi_power(
                        rho.blocks, rho.marginals, order, kind=kind, normalized=normalized
                    )
                    cached = quantum_core._renyi_on_support(rho._support(), order, kind, normalized)
                    if i < 6:
                        assert np.abs(direct - cached).max() <= 1e-12 * np.abs(direct).max()
                    else:
                        assert np.array_equal(direct, cached)

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_one_support_check_per_state(self, monkeypatch, rank):
        """A canonical state's sandwiched and three Petz checks decompose and
        check its support once."""
        rng = np.random.default_rng(43)
        a = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        tau = a @ a.conj().T
        config = BellConfig.uniform(tuple(rng.uniform(0.0, math.pi, size=2)))
        values = {(c, z): float(rng.uniform(0.5, 1.5)) for c in range(4) for z in range(4)}
        factors = [TrialFunction(values, beta) for beta in (0.2, 0.1, 0.25, 0.4)]
        shapes = []
        leak = quantum_core._support_leak

        def counted(rho, sigma):
            shapes.append((rho.matrix.shape, sigma.matrix.shape))
            return leak(rho, sigma)

        monkeypatch.setattr(quantum_core, "_support_leak", counted)
        rho = canonical_cq_state(
            CanonicalState(config, HermitianOperator(tau / np.trace(tau).real))
        )
        slack = qef_inequality_check(factors[0], rho)
        petz = [qef_inequality_check(F, rho, kind="petz") for F in factors[1:]]
        assert shapes == [((4, 4, 4, 4), (4, 1, 4, 4))]
        assert math.isfinite(slack) and all(math.isfinite(s) for s in petz)

    def test_domain_errors_survive_the_grid(self):
        """A missing cell is named, z major, on every use of the factor."""
        rho = CqDistribution.classical({(c, z): 1 / 16 for c in range(4) for z in range(4)})
        # Cells run z major, so (3, 2) comes before (1, 3).
        gone = {(1, 3), (3, 2)}
        F = TrialFunction(
            {(c, z): 1.0 for c in range(4) for z in range(4) if (c, z) not in gone}, 0.2
        )
        cases = [
            (F, r"\(3, 2\)"),
            # Grids that stop short of the state's inputs, or of its outcomes.
            (constant_one(2, 1, 0.2), r"\(0, 2\)"),
            (constant_one(1, 2, 0.2), r"\(2, 0\)"),
            # A factor over (c, z, t) keys has no (c, z) cell.
            (TrialFunction({(c, z, 0): 1.0 for c in range(4) for z in range(4)}, 0.2), r"\(0, 0\)"),
        ]
        for G, cell in cases:
            for _ in range(2):
                with pytest.raises(ValueError, match=rf"cell {cell} of the state is outside"):
                    qef_inequality_check(G, rho)
                with pytest.raises(ValueError, match=rf"no value at cell {cell}"):
                    qef_engine._cell_values(G, 4)
            assert not G.table.flags.writeable
        # A far index is refused when the factor is built, with its key named.
        with pytest.raises(ValueError, match=r"key \(0, 1000000000000\) is not"):
            TrialFunction({(0, 0): 0.5, (1, 0): 1.5, (0, 10**12): 1.0}, 0.2)
        # Cells past the state's are not read.
        small = CqDistribution.classical({(c, z): 0.25 for c in range(2) for z in range(2)})
        wide = TrialFunction({**constant_one(1, 1, 0.2).values, (3, 3): 5.0}, 0.2)
        assert qef_inequality_check(wide, small) == qef_inequality_check(constant_one(1, 1, 0.2), small)
        assert qef_engine._cell_values(wide, 2).tolist() == [1.0] * 4


class TestClosedFormCanonicalState:
    """``canonical_cq_state`` builds its distribution from the vectors ``u``
    and ``tau``'s spectrum; the general constructor on ``conj(u) u^T``
    decomposes the same blocks and marginals."""

    @staticmethod
    def _cases(rng):
        """``(state, u)`` pairs: k = 1 and 2, ``tau`` of every rank, and
        ``|0...0><0...0|`` measured along z, whose blocks ``(c, z)`` with
        ``c != 0`` have ``u = 0``."""
        out = []
        for k in (1, 2):
            d = 1 << k
            taus = []
            for rank in range(1, d + 1):
                a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
                tau = a @ a.conj().T
                taus.append((tuple(rng.uniform(0.0, math.pi, size=k)), tau / np.trace(tau).real))
            ground = np.zeros((d, d))
            ground[0, 0] = 1.0
            taus.append(((0.0,) * k, ground))
            for theta, tau in taus:
                state = CanonicalState(BellConfig.uniform(theta), HermitianOperator(tau))
                z, c = np.divmod(np.arange(d * d), d)
                u = povm_vectors(theta, c, z) @ state.tau.power(0.5) / math.sqrt(d)
                out.append((state, u.reshape(d, d, d)))
        return out

    def test_matches_the_general_constructor(self):
        rng = np.random.default_rng(44)
        values = {(c, z): float(rng.uniform(0.5, 1.5)) for c in range(4) for z in range(4)}
        factors = [TrialFunction(values, beta) for beta in (0.2, 0.1, 0.25, 0.4)]
        cases = self._cases(rng)
        assert sum(not u.any(axis=-1).all() for _, u in cases) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for state, u in cases:
                rho = canonical_cq_state(state)
                ref = CqDistribution(u.conj()[..., :, None] * u[..., None, :])
                assert np.array_equal(rho.blocks.matrix, ref.blocks.matrix)
                assert np.array_equal(rho.marginals.matrix, ref.marginals.matrix)
                assert rho.trace_total() == ref.trace_total()
                for F, kind in zip(factors, ("sandwiched", "petz", "petz", "petz")):
                    got = qef_inequality_check(F, rho, kind=kind)
                    want = qef_inequality_check(F, ref, kind=kind)
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
                # The blocks' own spectra, decomposed only when asked for.
                spectrum = np.zeros(u.shape)
                spectrum[..., 0] = np.square(np.abs(u)).sum(axis=-1)
                assert np.abs(rho.blocks.eigenvalues - spectrum).max() <= 1e-12

    def test_known_spectra_are_checked(self):
        state, u = self._cases(np.random.default_rng(45))[-2]
        w, V = state.tau.psd_eigenvalues() / 4, state.tau.eigenvectors
        assert CqDistribution._rank_one(u, (w, V)).trace_total() == pytest.approx(1.0)
        with pytest.raises(ValueError, match="marginal spectrum does not reconstruct"):
            CqDistribution._rank_one(u, (w[::-1], V))
        bad = u.copy()
        bad[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            CqDistribution._rank_one(bad, (w, V))
        with pytest.raises(ValueError, match=r"must be \(n_z, n_c, d\)"):
            CqDistribution._rank_one(u[0], (w, V))


def _counting(monkeypatch) -> collections.Counter:
    """Counts, from here on, of ``np.linalg.eigh`` calls, Hermitian checks
    (``HermitianOperator.__init__``), reconstruction checks
    (``_check_spectrum``) and positivity floors (each computes one ``_norms``)."""
    counts = collections.Counter()

    def counted(key, f):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(HermitianOperator, "__init__", counted("hermitian", HermitianOperator.__init__))
    for key, name in (("reconstruction", "_check_spectrum"), ("floor", "_norms")):
        monkeypatch.setattr(quantum_core, name, counted(key, getattr(quantum_core, name)))
    return counts


class TestSupportRecords:
    """Each operand's support data is computed once and read by every later
    check: the work per call is pinned, the results are those of fresh
    operands, and every refusal still happens."""

    def test_canonical_state_and_its_checks_count(self, monkeypatch):
        """One ``eigh`` (``tau``), one Hermitian check (``tau``), three
        reconstruction checks (``tau``, the blocks' supports, the marginals
        against ``tau``'s spectrum) and one positivity floor (``tau``) for a
        canonical state and its four checks, at any rank of ``tau``."""
        rng = np.random.default_rng(60)
        values = {(c, z): float(rng.uniform(0.5, 1.5)) for c in range(4) for z in range(4)}
        factors = [TrialFunction(values, beta) for beta in (0.2, 0.1, 0.25, 0.4)]
        for rank in (1, 2, 4):
            a = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            tau = a @ a.conj().T / np.trace(a @ a.conj().T).real
            theta = tuple(rng.uniform(0.0, math.pi, size=2))
            counts = _counting(monkeypatch)
            rho = canonical_cq_state(CanonicalState(BellConfig.uniform(theta), HermitianOperator(tau)))
            slacks = [
                qef_inequality_check(F, rho, kind=kind)
                for F, kind in zip(factors, ("sandwiched", "petz", "petz", "petz"))
            ]
            assert counts == {"eigh": 1, "hermitian": 1, "reconstruction": 3, "floor": 1}
            assert all(math.isfinite(s) for s in slacks)
            monkeypatch.undo()

    @pytest.mark.parametrize(
        "kind, rank, want",
        [
            ("petz", 4, {"eigh": 2, "hermitian": 2, "reconstruction": 2, "floor": 2}),
            ("petz", 1, {"eigh": 2, "hermitian": 2, "reconstruction": 2, "floor": 2}),
            ("sandwiched", 1, {"eigh": 2, "hermitian": 2, "reconstruction": 2, "floor": 2}),
            # Z* Z is symmetrized by construction and wrapped, not checked for
            # being Hermitian; its eigh, residual and floor stay.
            ("sandwiched", 3, {"eigh": 3, "hermitian": 2, "reconstruction": 3, "floor": 3}),
        ],
    )
    def test_single_pair_counts(self, monkeypatch, kind, rank, want):
        rng = np.random.default_rng(61)
        a = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        rho, sigma = a @ a.conj().T, random_density(rng, 4)
        order = RenyiOrder(1.4)
        ref = renyi_power(rho, sigma, order, kind=kind)
        counts = _counting(monkeypatch)
        assert renyi_power(rho, sigma, order, kind=kind) == ref
        assert counts == want

    @staticmethod
    def _states(rng):
        """General block stacks of every support rank, zero blocks included,
        and canonical states at k = 1 and 2 with ``tau`` of several ranks."""
        out = []
        for d in (2, 3, 4):
            blocks = np.empty((2, 3, d, d), dtype=complex)
            for iz, ic in np.ndindex(2, 3):
                r = int(rng.integers(1, d + 1))
                a = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
                blocks[iz, ic] = a @ a.conj().T * rng.uniform(0.1, 1.0)
            blocks[1, 2] = 0.0
            out.append(CqDistribution(blocks))
        for k, rank in ((1, 1), (1, 2), (2, 1), (2, 3), (2, 4)):
            d = 1 << k
            a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
            tau = a @ a.conj().T / np.trace(a @ a.conj().T).real
            config = BellConfig.uniform(tuple(rng.uniform(0.0, math.pi, size=k)))
            out.append(canonical_cq_state(CanonicalState(config, HermitianOperator(tau))))
        return out

    def test_cached_powers_match_fresh_operands(self):
        """Powers read from each state's kept geometry and its operands' kept
        support data, at several orders and both kinds in shuffled order,
        equal ``renyi_power`` on fresh copies of the same matrices."""
        rng = np.random.default_rng(62)
        states = self._states(rng)
        jobs = [
            (i, alpha, kind)
            for i in range(len(states))
            for alpha in (1.05, 1.3, 1.7, 1.95)
            for kind in ("sandwiched", "petz")
        ] * 2
        for n in rng.permutation(len(jobs)):
            i, alpha, kind = jobs[n]
            rho, order = states[i], RenyiOrder(alpha)
            got = quantum_core._renyi_on_support(rho._support(), order, kind, False)
            ref = renyi_power(rho.blocks.matrix.copy(), rho.marginals.matrix.copy(), order, kind=kind)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (i, alpha, kind)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_canonical_blocks_match_povm_vectors(self, k):
        """The grid's product vectors are the :func:`povm_vectors` rows, bit
        for bit, so the blocks and marginals are too."""
        rng = np.random.default_rng(63 + k)
        d = 1 << k
        theta = tuple(rng.uniform(-math.pi, math.pi, size=k))
        z, c = np.divmod(np.arange(d * d), d)
        rows = povm_vectors(theta, c, z)
        assert models._grid_vectors(theta).tobytes() == rows.tobytes()
        state = CanonicalState(BellConfig.uniform(theta), HermitianOperator(random_density(rng, d)))
        u = (rows @ state.tau.power(0.5) / math.sqrt(d)).reshape(d, d, d)
        ref = CqDistribution(u.conj()[..., :, None] * u[..., None, :])
        rho = canonical_cq_state(state)
        assert rho.blocks.matrix.tobytes() == ref.blocks.matrix.tobytes()
        assert rho.marginals.matrix.tobytes() == ref.marginals.matrix.tobytes()
        for z in range(d):
            assert rho.marginal(z).matrix.tobytes() == ref.marginal(z).matrix.tobytes()
            assert np.array_equal(rho.marginal(z).eigenvalues, state.tau.psd_eigenvalues() / d)

    def test_bad_states_are_refused(self):
        rng = np.random.default_rng(66)
        config = BellConfig.uniform((0.4, 1.1))
        tau = random_density(rng, 4)
        skewed = tau.copy()
        skewed[0, 1] += 1e-6
        with pytest.raises(ValueError, match="is not Hermitian"):
            CanonicalState(config, HermitianOperator(skewed))
        nan = tau.copy()
        nan[2, 3] = nan[3, 2] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            CanonicalState(config, HermitianOperator(nan))
        negative = tau - 1e-6 * np.eye(4) - np.linalg.eigvalsh(tau)[0] * np.eye(4)
        with pytest.raises(ValueError, match="positive semidefinite"):
            CanonicalState(config, HermitianOperator(negative / np.trace(negative).real))

    def test_perturbed_supports_are_refused_by_stack_index(self):
        """``tau`` of rank 3: a block given mass 1e-6 in the marginals' kernel
        leaks, one marginal scaled by 1 + 1e-6 no longer has ``tau``'s
        spectrum, and one pushed 1e-6 below it is not positive."""
        rng = np.random.default_rng(67)
        a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        tau = HermitianOperator(a @ a.conj().T / np.trace(a @ a.conj().T).real)
        state = CanonicalState(BellConfig.uniform((0.4, 1.1)), tau)
        rho = canonical_cq_state(state)
        order = RenyiOrder(1.3)
        kernel = tau.eigenvectors[:, -1:]
        bump = 1e-6 * kernel @ kernel.conj().T
        blocks, marginals = rho.blocks.matrix.copy(), rho.marginals.matrix.copy()
        leaky = blocks.copy()
        leaky[2, 1] += bump
        for kind in ("sandwiched", "petz"):
            with pytest.raises(ValueError, match=r"leaks outside support of sigma at stack index \(2, 1\)"):
                renyi_power(leaky, marginals, order, kind=kind)
        low = marginals.copy()
        low[3, 0] -= bump
        with pytest.raises(ValueError, match=r"operator at stack index \(3, 0\) is not positive"):
            renyi_power(blocks, low, order)
        d = 4
        u = (povm_vectors((0.4, 1.1), *np.divmod(np.arange(16), 4)[::-1]) @ tau.power(0.5) / 2.0).reshape(d, d, d)
        w, V = tau.psd_eigenvalues() / d, tau.eigenvectors
        assert np.array_equal(CqDistribution._rank_one(u, (w, V)).blocks.matrix, rho.blocks.matrix)
        scaled = u.copy()
        scaled[1] *= math.sqrt(1.0 + 1e-6)
        with pytest.raises(ValueError, match=r"does not reconstruct the marginal at stack index \(1, 0\)"):
            CqDistribution._rank_one(scaled, (w, V))
        moved = u.copy()
        moved[2, 3] += 1e-6 * kernel[:, 0].conj()
        with pytest.raises(ValueError, match=r"does not reconstruct the marginal at stack index \(2, 0\)"):
            CqDistribution._rank_one(moved, (w, V))


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
        total = chain(F, records)[-1] * math.log(2.0)
        expect = float(p @ logs)
        se = float(np.sqrt(p @ (logs - expect) ** 2 / n))
        assert abs(total / n - expect) <= 3.0 * se

    def test_zero_value_flags_minus_infinity(self):
        values = {(0, 0): 0.0, (1, 0): 2.0, (0, 1): 1.0, (1, 1): 1.0}
        F = TrialFunction(values, 0.1, role="qef")
        with pytest.warns(RuntimeWarning, match="record 2"):
            out = chain(F, [(1, 0), (0, 0), (1, 0)])
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
        # The outcome width is the factor's station count, read from its inputs.
        with pytest.raises(ValueError, match="record 1: outcome 2 does not fit in 1 bits"):
            chain(constant_one(1, 1, 0.1), [(2, 0)])
        with pytest.raises(ValueError, match="power of two"):
            chain(TrialFunction({(0, 0): 1.0, (1, 0): 1.0}, 0.1, role="qef"), [(0, 0)])

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        f=arrays(np.float64, (2, 2, 2), elements=st.floats(0.0, 1.0)),
        beta=st.floats(0.01, 1.0),
        kind=st.sampled_from(["sandwiched", "petz"]),
        entries=arrays(np.float64, (2, 20, 2, 2), elements=st.floats(-1.0, 1.0)),
    )
    # A composed trace of about 1.4e-309, a subnormal.
    @example(
        f=np.ones((2, 2, 2)),
        beta=0.5,
        kind="sandwiched",
        entries=np.where(np.arange(160).reshape(2, 20, 2, 2) == 0, 1.0, 6.52451814e-156),
    )
    # Roundoff mass of about 4e-16 in a marginal's kernel, whose norm
    # (about 1.9e-8) was once read as the leak.
    @example(
        f=np.zeros((2, 2, 2)),
        beta=1.0,
        kind="sandwiched",
        entries=_leak_entries(0.25),
    )
    # A sandwiched product whose skew (about 3e-13) was once checked against
    # the input tolerance relative to its own entries.
    @example(
        f=np.zeros((2, 2, 2)),
        beta=1.0,
        kind="sandwiched",
        entries=_leak_entries(0.0),
    )
    def test_two_trial_chained_inequality(self, f, beta, kind, entries):
        """Products of per-trial factors stay factors on composed states.

        Trial-2 model states depend on the trial-1 outcome and input; the
        composed quantum memory is the tensor product (dimension 4).  Any
        pointwise-below-one function is a factor of either kind at
        ``beta <= 1``, so drawn such pairs give chained factors whose
        composed slack must stay nonnegative.
        """
        G, rho = chained_case(f, beta, entries)
        assert qef_inequality_check(G, rho, kind=kind) >= -1e-9


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

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        gamma=st.floats(0.0, 1.0, exclude_min=True),
        angles=st.tuples(*[st.floats(-math.pi, math.pi, exclude_min=True)] * 2),
        entries=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32),
    )
    def test_reduced_factor_keeps_slack_on_drawn_states(self, qef02, gamma, angles, entries):
        if 1.0 + qef02.beta * gamma == 1.0:
            # No Renyi order alpha > 1 is that close to 1 in floats.
            with pytest.raises(ValueError):
                power_reduce(qef02, gamma)
            return
        a = np.reshape(entries[:16], (4, 4)) + 1j * np.reshape(entries[16:], (4, 4))
        tau = a @ a.conj().T
        assume(np.trace(tau).real > 1e-6)
        tau /= np.trace(tau).real
        config = BellConfig.uniform(angles)
        rho = canonical_cq_state(CanonicalState(config, HermitianOperator(tau)))
        assert qef_inequality_check(power_reduce(qef02, gamma), rho) >= -1e-9

    def test_gamma_domain(self, qef02):
        # 1e-300 leaves a power whose order 1 + beta rounds to 1.
        for gamma in (0.0, 1.5, -0.1, 1e-300):
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
        assert (got.k, got.dim) == (2, 4)
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
                    w = F.value(c, z) / d
                    if w > 0.0:
                        ws.append(w)
                        vs.append(povm_vector(config, c, z))
            w, V = _weights_and_vectors(F, config.angles)
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
            _, V = _weights_and_vectors(F, config.angles)
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
            out = inner_max_tau(F, theta, tol=1e-9)
            assert out.converged, (F.values, F.beta, theta, out.iterations)
            assert out.iterations <= 3000
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
        value, tau, bound, conv, pairs, _ = qef_engine._solve_vertices(
            F, angles, 1e-9, 0, False
        )
        assert pairs[0] == pairs[3] == 4
        for p in range(4):
            one = qef_engine._solve_vertices(F, angles[p:p + 1], 1e-9, 0, False)
            assert pairs[p] == one[4][0] and conv[p] == one[3][0]
            assert abs(value[p] - one[0][0]) <= 1e-12
            assert abs(bound[p] - one[2][0]) <= 1e-12

    def test_padded_solves_match_native_solves(self):
        """2-dim problems, ``V = I`` among them, padded into one stack with
        4-dim problems: each gets the pairs of its own native solve, its value
        and bound within 1e-12, and a ``tau`` that is zero off its corner.

        A padded ascent matches its native one to roundoff, not bit for bit:
        its inverse Hessian and gradient sums run over 16 entries, not 4, and
        associate differently.  So the tolerance is the inner solver's default
        1e-9; at 1e-13, within roundoff of these values, problem 1 stops a
        pair earlier padded than native.
        """
        rng = np.random.default_rng(48)
        two = self._stack_of_problems(rng)
        V4 = rng.standard_normal((4, 3, 4))
        V4 /= np.linalg.norm(V4, axis=2)[:, :, None]
        four = _BlockProblem(V4, rng.uniform(0.1, 2.0, size=(4, 3)), 1.5)
        prob = _BlockProblem(
            np.concatenate([np.pad(two.V, ((0, 0), (0, 0), (0, 2))), four.V]),
            np.concatenate([two.w, four.w]),
            1.5,
        )._pad(np.array([2] * 8 + [4] * 4))
        val, tau, ub, conv, n, trace = qef_engine._maximize_block(prob, 1e-9, 10000, 0, True)
        assert conv.all()
        natives = [two[[i]] for i in range(8)] + [four[[i]] for i in range(4)]
        for i, native in enumerate(natives):
            one = qef_engine._maximize_block(native, 1e-9, 10000, 0, False)
            assert n[i] == one[4][0] == len(trace[i])
            assert abs(val[i] - one[0][0]) <= 1e-12
            assert abs(ub[i] - one[2][0]) <= 1e-12
            d = native.m
            assert not tau[i, d:].any() and not tau[i, :, d:].any()
            assert abs(np.trace(tau[i]) - 1.0) <= 1e-12

    def test_three_station_blocks_solve_alike_in_one_stack(self, monkeypatch):
        """At k = 3, configurations with 0, 1, 2 and 3 commuting stations have
        blocks of 8, 4, 2 and 1 dimensions.  Solved together, the 2- and 4-dim
        blocks share one padded stack and the 8-dim ones keep their own; each
        configuration gets the pairs, value and bound of its solve alone."""
        rng = np.random.default_rng(49)
        F = TrialFunction(
            {(c, z): float(rng.uniform(0.1, 2.0)) for c in range(8) for z in range(8)}, 0.3
        )
        angles = np.array(
            [(0.7, 1.9, 2.3), (0.0, 1.9, 2.3), (math.pi, 0.4, 0.0), (0.0, math.pi, 0.0)]
        )
        stacks = []
        maximize = qef_engine._maximize_block

        def recorded(prob, *args):
            stacks.append((prob.m, sorted(set(prob.dim.tolist()))))
            return maximize(prob, *args)

        monkeypatch.setattr(qef_engine, "_maximize_block", recorded)
        value, tau, bound, conv, pairs, _ = qef_engine._solve_vertices(F, angles, 1e-6, 0, False)
        assert sorted(stacks) == [(1, [1]), (4, [2, 4]), (8, [8])]
        assert conv.all() and pairs[3] == 8
        for p in range(4):
            one = qef_engine._solve_vertices(F, angles[p:p + 1], 1e-6, 0, False)
            assert pairs[p] == one[4][0] and conv[p] == one[3][0]
            assert abs(value[p] - one[0][0]) <= 1e-12
            assert abs(bound[p] - one[2][0]) <= 1e-12


def product_form_update(H: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The BFGS inverse-Hessian update ``(I - r s y^T) H (I - r y s^T) + r s s^T``."""
    r = 1.0 / (s @ y)
    J = np.eye(len(s)) - r * np.outer(s, y)
    return J @ H @ J.T + r * np.outer(s, s)


@st.composite
def bfgs_stacks(draw):
    """A stack of SPD inverse Hessians of order 4 or 16, with steps, gradient
    changes and a row mask.  The mask keeps only rows that curve clearly, and
    the steps off the mask may be NaN."""
    n = draw(st.sampled_from([4, 16]))
    b = draw(st.integers(1, 4))
    unit = st.floats(-1.0, 1.0)
    B = draw(arrays(np.float64, (b, n, n), elements=unit))
    H = B @ B.swapaxes(-1, -2) + np.eye(n)
    H = (H + H.swapaxes(-1, -2)) / 2.0
    s = draw(arrays(np.float64, (b, n), elements=unit))
    y = draw(arrays(np.float64, (b, n), elements=unit))
    sy = (s * y).sum(axis=-1)
    mask = draw(arrays(np.bool_, b)) & (
        sy > 0.01 * np.linalg.norm(s, axis=-1) * np.linalg.norm(y, axis=-1)
    )
    if draw(st.booleans()):
        s[~mask] = math.nan
    return H, s, y, sy, mask


class TestBfgsUpdate:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(case=bfgs_stacks())
    def test_rank_two_form_equals_product_form(self, case):
        """The in-place rank-two update matches the product form to 1e-12
        relative on the masked rows and leaves every other row bit for bit."""
        H, s, y, sy, mask = case
        out = H.copy()
        qef_engine._bfgs_update(out, s, y, sy, mask)
        for i in range(len(H)):
            if mask[i]:
                ref = product_form_update(H[i], s[i], y[i])
                assert np.abs(out[i] - ref).max() <= 1e-12 * np.abs(ref).max()
            else:
                assert out[i].tobytes() == H[i].tobytes()


def brentq_interval_bound(f: float, f_prime: float, phi: float, order: RenyiOrder) -> float:
    """The scalar ``brentq`` interval bound that the closed form replaced."""
    from scipy.optimize import brentq

    if f == 0.0 and f_prime == 0.0:
        return 0.0
    alpha, beta = order.alpha, order.beta
    cap = (phi / math.sin(phi)) ** alpha * max(f, f_prime)
    sphi = math.sin(phi)

    def u(x: float) -> float:
        s0, s1 = math.sin(phi - x), math.sin(x)
        return (s0 + s1) ** beta * (s0 * f + s1 * f_prime) / sphi**alpha

    def du(x: float) -> float:
        s0, s1 = math.sin(phi - x), math.sin(x)
        c0, c1 = math.cos(phi - x), math.cos(x)
        return beta * (c1 - c0) / (s1 + s0) + (c1 * f_prime - c0 * f) / (
            s1 * f_prime + s0 * f
        )

    if f > 0.0 and du(0.0) <= 0.0:
        return min(f, cap)
    if f_prime > 0.0 and du(phi) >= 0.0:
        return min(f_prime, cap)
    lo = 0.0 if f > 0.0 else phi * 1e-12
    hi = phi if f_prime > 0.0 else phi * (1.0 - 1e-12)
    try:
        root = brentq(du, lo, hi, xtol=1e-12 * phi, rtol=8.9e-16)
    except ValueError:
        return cap
    return min(max(u(root), f, f_prime), cap)


# Values are 0 or at least 1e-100, and widths at least 1e-12.  Below that, a
# width times a value leaves the normal float range, and neither the grid of
# the bound curve nor the ``brentq`` reference keeps its precision.  The
# branch-and-bound's cells and vertex values stay far inside.
endpoint_values = st.one_of(st.just(0.0), st.floats(1e-100, 100.0))


class TestIntervalBound:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        f=arrays(np.float64, 6, elements=endpoint_values),
        f_prime=arrays(np.float64, 6, elements=endpoint_values),
        phi=arrays(np.float64, 6, elements=st.floats(1e-12, math.pi / 2.0)),
        alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
    )
    def test_closed_form_bound_properties(self, f, f_prime, phi, alpha):
        """One array call equals the scalar calls, lies between the larger
        endpoint and the cap, dominates the bound curve on a grid, and is
        never below the ``brentq`` bound by more than 1e-15 relative, nor
        above it by more than 1e-12."""
        order = RenyiOrder(alpha)
        bound = interval_bound(f, f_prime, phi, order)
        assert bound.shape == (6,)
        xs = np.linspace(0.0, 1.0, 201)[1:-1]
        for i in range(6):
            fi, fpi, w = float(f[i]), float(f_prime[i]), float(phi[i])
            one = interval_bound(fi, fpi, w, order)
            assert isinstance(one, float) and one == bound[i]
            # NumPy's power may round the cap one unit differently.
            cap = (w / math.sin(w)) ** alpha * max(fi, fpi)
            assert max(fi, fpi) <= one <= cap * (1.0 + 1e-15)
            x = xs * w
            s0, s1 = np.sin(w - x), np.sin(x)
            u = (s0 + s1) ** order.beta * (s0 * fi + s1 * fpi) / math.sin(w) ** alpha
            assert u.max() <= one * (1.0 + 1e-12)
            ref = brentq_interval_bound(fi, fpi, w, order)
            assert ref * (1.0 - 1e-15) <= one <= ref * (1.0 + 1e-12)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_endpoints_rejected(self, bad):
        """A NaN or infinite endpoint raises, as a scalar and inside an array,
        at either end; before, NaN gave NaN and ``(1, inf)`` gave 1."""
        order = RenyiOrder(1.5)
        arr = np.ones(3)
        arr[1] = bad
        for f, fp in ((bad, 1.0), (1.0, bad), (arr, np.ones(3)), (np.ones(3), arr)):
            with pytest.raises(ValueError, match="finite"):
                interval_bound(f, fp, 0.5, order)


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
        res = certify_fmax(F, config, 1e-3, seed=0)
        boxes, _, bounds = res.cells
        assert len(bounds)
        rng = np.random.default_rng(42)
        picks = rng.choice(len(bounds), size=min(10, len(bounds)), replace=False)
        for i in picks:
            theta = tuple(
                float(rng.uniform(lo, hi)) for lo, hi in boxes[i]
            )
            inner = inner_max_tau(F, theta, tol=1e-6)
            assert bounds[i] >= inner.value - 1e-9

    def test_cells_match_the_per_cell_reduction(self, nu_e, config22):
        """A cell's bound is at most the scalar axis-by-axis reduction of its
        corner bounds, axis 0 first, and equals it in the first sweep, whose
        cells (those of side pi/4) have no parent's cap."""
        F, _ = optimize_pef_polytope(nu_e, 0.2)
        res = certify_fmax(F, config22, 1e-3, seed=0)
        order = RenyiOrder.from_beta(F.beta)
        first = 0
        for box, corners, bound in zip(*res.cells):
            # Corner j is high on axis a when bit a of j is set.
            vals = corners.tolist()
            for lo, hi in box.tolist():
                vals = [
                    interval_bound(v0, v1, hi - lo, order)
                    for v0, v1 in zip(vals[0::2], vals[1::2])
                ]
            assert bound <= vals[0] * (1.0 + 1e-12)
            if abs(box[0, 1] - box[0, 0] - math.pi / 4.0) <= 1e-12:
                first += 1
                assert abs(bound - vals[0]) <= 1e-12 * vals[0]
        assert first == 3

    @staticmethod
    def _leaves(boxes: np.ndarray) -> np.ndarray:
        """Cells whose half-side child at the same low corner is absent."""
        lows = [tuple(low) for low in boxes[:, :, 0].tolist()]
        width = (boxes[:, 0, 1] - boxes[:, 0, 0]).tolist()
        at: dict[tuple, list[float]] = {}
        for low, w in zip(lows, width):
            at.setdefault(low, []).append(w)
        return np.array([
            not any(abs(2.0 * c - w) <= 1e-9 * w for c in at[low])
            for low, w in zip(lows, width)
        ])

    @staticmethod
    def _images(boxes: np.ndarray, maps) -> np.ndarray:
        """The distinct images ``(m, k, 2)`` of the boxes under the angle maps:
        station ``j`` of an image takes axis ``perm[j]``, mirrored to
        ``[pi - hi, pi - lo]`` where ``reflect[j]``."""
        out = []
        for perm, reflect in maps:
            moved = boxes[:, list(perm), :]
            mirrored = math.pi - moved[:, :, ::-1]
            out.append(np.where(np.array(reflect)[None, :, None], mirrored, moved))
        images = np.concatenate(out)
        return images[np.unique(np.round(images * 1e9), axis=0, return_index=True)[1]]

    @classmethod
    def _assert_leaves_tile_the_cube(cls, res, k: int) -> np.ndarray:
        """The leaves' images under ``res.symmetries`` tile ``[0, pi]^k``:
        their volumes sum to ``pi^k`` and no two overlap.  Returns the leaf
        mask."""
        boxes = res.cells[0]
        leaf = cls._leaves(boxes)
        tiles = cls._images(boxes[leaf], res.symmetries)
        volume = np.prod(tiles[:, :, 1] - tiles[:, :, 0], axis=1).sum()
        assert abs(volume - math.pi**k) <= 1e-12 * math.pi**k
        lo, hi = tiles[:, None, :, 0], tiles[None, :, :, 1]
        top, bottom = np.maximum(lo, lo.swapaxes(0, 1)), np.minimum(hi, hi.swapaxes(0, 1))
        overlap = (top < bottom - 1e-9).all(-1)
        assert overlap.sum() == len(tiles)  # each tile overlaps itself only
        return leaf

    def test_cells_tile_the_cube_and_give_f_upper(self, nu_e, cert02, config22):
        """At k = 1, k = 2 and a budget-stopped k = 2 run, every bounded cell
        is kept, the leaves' images under the recorded angle maps tile
        ``[0, pi]^k`` (volumes sum to ``pi^k`` and no two overlap), and
        ``f_upper`` is the larger of ``f_lower`` and the leaves' largest
        bound, plus the slack, exactly."""
        one = TrialFunction(
            {(c, z): 1.0 + 0.1 * c - 0.05 * z for c in (0, 1) for z in (0, 1)},
            0.2,
            role="candidate",
        )
        F05, _ = optimize_pef_polytope(nu_e, 0.05)
        stopped = certify_fmax(F05, config22, 1e-5, budget=40, seed=0)
        assert stopped.gap_flag
        for k, res in (
            (1, certify_fmax(one, BellConfig.uniform((0.0,)), 1e-3, seed=0)),
            (2, cert02),
            (2, stopped),
        ):
            boxes, corners, bounds = res.cells
            n = res.regions_explored
            assert len(bounds) == n
            assert boxes.shape == (n, k, 2) and corners.shape == (n, 1 << k)
            leaf = self._assert_leaves_tile_the_cube(res, k)
            assert res.f_upper == max(res.f_lower, bounds[leaf].max()) + qef_engine.NUMERIC_SLACK
        assert CertificationResult.from_json(cert02.to_json()).cells is None

    def test_three_station_fold_certifies(self):
        """A factor whose values are each the largest over its orbit under the
        cyclic station permutation folds over the three cyclic maps at
        k = 3: the leaves' images under them tile ``[0, pi]^3``, and
        ``f_upper`` bounds the inner maximum at random angles."""

        def rotate(x: int) -> int:
            return (x << 1 | x >> 2) & 7

        rng = np.random.default_rng(5)
        base = rng.uniform(0.5, 1.5, (8, 8))
        values = {}
        for c in range(8):
            for z in range(8):
                orbit = [(c, z), (rotate(c), rotate(z)), (rotate(rotate(c)), rotate(rotate(z)))]
                values[(c, z)] = float(max(base[key] for key in orbit))
        F = TrialFunction(values, 0.3)
        res = certify_fmax(F, BellConfig.uniform((0.0, 0.0, 0.0)), 5e-2, seed=0)
        assert res.symmetries == (
            ((0, 1, 2), (False,) * 3),
            ((1, 2, 0), (False,) * 3),
            ((2, 0, 1), (False,) * 3),
        )
        assert not res.gap_flag
        self._assert_leaves_tile_the_cube(res, 3)
        for _ in range(20):
            theta = tuple(rng.uniform(0.0, math.pi, 3))
            assert inner_max_tau(F, theta, tol=1e-6).upper_bound <= res.f_upper

    def test_station_count_must_match_the_factor(self, nu_e):
        """Angles for another station count raise instead of certifying a
        different functional (k = 1) or failing on a missing key (k = 3)."""
        F, _ = optimize_pef_polytope(nu_e, 0.05)
        for angles in ((0.0,), (0.0, 0.0, 0.0)):
            with pytest.raises(ValueError, match="station"):
                certify_fmax(F, BellConfig.uniform(angles), 1e-3, seed=0)
        with pytest.raises(ValueError, match="station"):
            inner_max_tau(F, (0.3,))
        with pytest.raises(ValueError, match="station"):
            q_alpha(F, (0.3,), np.eye(2) / 2.0)

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
        for key in ("gap_flag", "gap_target"):
            data = json.loads(unmet.to_json())
            del data[key]
            with pytest.raises(ValueError, match=key):
                CertificationResult.from_json(json.dumps(data))

    def test_sweeps_pin_the_search(self, nu_e, config22):
        """Sweeps split the regions the one-at-a-time search split: the same
        count and a bracket within the gap of its ``(f_lower, f_upper)``."""
        F, _ = optimize_pef_polytope(nu_e, 0.2)
        res = certify_fmax(F, config22, 1e-3, seed=0)
        assert res.regions_explored == 48 and not res.gap_flag
        assert abs(res.f_lower - 1.0) <= 1e-3
        assert abs(res.f_upper - 1.0006632130135131) <= 1e-3
        F, _ = optimize_pef_polytope(nu_e, 0.05)
        res = certify_fmax(F, config22, 1e-5, budget=40, seed=0)
        assert res.regions_explored == 38 and res.gap_flag
        assert res.f_upper >= res.f_lower

    def test_gap_target_domain(self, pef02, config22):
        F, _ = pef02
        with pytest.raises(ValueError):
            certify_fmax(F, config22, 0.0)

    @pytest.mark.parametrize("gap", [math.nan, math.inf, -1e-3])
    def test_gap_target_must_be_finite_and_positive(self, pef02, config22, monkeypatch, gap):
        """A NaN target would split no cell and an infinite one would be
        written as ``Infinity``: both are refused by value, as a negative one
        is, before any vertex is solved."""
        F, _ = pef02

        def no_solve(*args):
            raise AssertionError("a vertex was solved")

        monkeypatch.setattr(qef_engine, "_solve_vertices", no_solve)
        with pytest.raises(ValueError, match=rf"gap target must be finite and positive, got {gap!r}"):
            certify_fmax(F, config22, gap)

    @pytest.mark.parametrize("tol", [math.nan, -1e-3, -math.inf])
    def test_inner_tolerance_domain(self, pef02, monkeypatch, tol):
        """A NaN tolerance would run every block to the pair cap."""
        F, _ = pef02

        def no_solve(*args):
            raise AssertionError("a vertex was solved")

        monkeypatch.setattr(qef_engine, "_solve_vertices", no_solve)
        with pytest.raises(ValueError, match=rf"tolerance must be nonnegative, got {tol!r}"):
            inner_max_tau(F, (0.3, 1.2), tol=tol)

    def test_nan_vertex_bound_raises(self, pef02, config22, monkeypatch):
        """A NaN vertex bound stops the search; it used to drop out of the
        maximum of cell bounds and leave ``f_upper = f_lower + slack``."""
        solve = qef_engine._solve_vertices

        def one_nan(*args):
            value, tau, bound, converged, pairs, trace = solve(*args)
            bound[0] = math.nan
            return value, tau, bound, converged, pairs, trace

        monkeypatch.setattr(qef_engine, "_solve_vertices", one_nan)
        F, _ = pef02
        with pytest.raises(ValueError, match="finite"):
            certify_fmax(F, config22, 1e-3, seed=0)

    @staticmethod
    def _tsirelson_table() -> TrialDistribution:
        """The E pi/4 table as explicit Born-rule sums: a maximally entangled
        pair measured at (0, pi/2) and (pi/4, -pi/4), uniform inputs."""
        z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        phi = np.zeros(4)
        phi[0] = phi[3] = 1.0 / math.sqrt(2.0)
        rho = np.outer(phi, phi)

        def projector(outcome: int, angle: float) -> np.ndarray:
            sign = 1.0 if outcome == 0 else -1.0
            return (np.eye(2) + sign * (math.cos(angle) * z + math.sin(angle) * x)) / 2.0

        probs = {}
        for i, ta in enumerate((0.0, math.pi / 2.0)):
            for j, tb in enumerate((math.pi / 4.0, -math.pi / 4.0)):
                for a in (0, 1):
                    for b in (0, 1):
                        op = np.kron(projector(a, ta), projector(b, tb))
                        p = float(np.real(np.trace(rho @ op)))
                        probs[(a + 2 * b, i + 2 * j)] = 0.25 * max(p, 0.0)
        return TrialDistribution(2, 2, probs)

    @pytest.mark.parametrize(
        "beta, regions, f_lower, f_upper",
        [
            (0.05, 136, 0.9999999999954675, 1.000091571736561),
            (0.2, 61, 1.0000000000000004, 1.0000791280520844),
        ],
    )
    def test_benchmark_certifications_pinned(self, beta, regions, f_lower, f_upper):
        """The E pi/4 polytope factors at gap 1e-4, seed 1 and budget 200000
        keep their region counts and brackets over the fundamental domain of
        their 8 angle maps: a faster solver must cost less per certified
        pair, not split fewer regions."""
        F, _ = optimize_pef_polytope(self._tsirelson_table(), beta)
        res = certify_fmax(F, BellConfig.uniform((0.0, 0.0)), 1e-4, budget=200000, seed=1)
        assert res.regions_explored == regions and not res.gap_flag
        assert len(res.symmetries) == 8
        assert abs(res.f_lower - f_lower) <= 1e-12
        assert abs(res.f_upper - f_upper) <= 1e-12

    def test_one_lockstep_ascent_per_sweep(self, monkeypatch):
        """The E pi/4 beta = 0.05 certification of the benchmark (gap 1e-4,
        seed 1, budget 200000) solves each sweep's blocks of 2 to 4
        dimensions in at most one ``_maximize_block`` call, 8 calls in all
        with the 1-dim ones, in 91 lockstep steps.  With one ascent per block
        dimension it made 15 calls and 149 steps."""
        sweeps, stacks, steps = [], [], []
        solve, maximize, evaluate = (
            qef_engine._solve_vertices, qef_engine._maximize_block, qef_engine._evaluate
        )

        def counted(record, fn, key):
            def wrapper(*args):
                record.append(key(*args))
                return fn(*args)
            return wrapper

        monkeypatch.setattr(qef_engine, "_solve_vertices", counted(sweeps, solve, lambda *a: 1))
        monkeypatch.setattr(
            qef_engine, "_maximize_block", counted(stacks, maximize, lambda prob, *a: prob.m)
        )
        monkeypatch.setattr(qef_engine, "_evaluate", counted(steps, evaluate, lambda *a: 1))
        F, _ = optimize_pef_polytope(self._tsirelson_table(), 0.05)
        res = certify_fmax(F, BellConfig.uniform((0.0, 0.0)), 1e-4, budget=200000, seed=1)
        assert res.regions_explored == 136
        assert sum(2 <= m <= 4 for m in stacks) <= len(sweeps)
        assert len(steps) <= 95

    def test_factor_without_symmetry_pinned(self, config22):
        """A random-weight candidate has no symmetry, so the search bounds
        the whole cube: its region count and bracket are those of the search
        before the fold existed.  A faster solver must not split fewer
        regions."""
        rng = np.random.default_rng(2206)
        F = TrialFunction(
            {(c, z): float(rng.uniform(0.1, 2.0)) for c in range(4) for z in range(4)},
            0.3,
            role="candidate",
        )
        res = certify_fmax(F, config22, 1e-3, seed=0)
        assert res.symmetries == (((0, 1), (False, False)),)
        assert res.regions_explored == 144 and not res.gap_flag
        assert abs(res.f_lower - 1.6342568918015004) <= 1e-12
        assert abs(res.f_upper - 1.6348001827395646) <= 1e-12

    @pytest.mark.parametrize(
        "bends, maps, regions",
        [({(0, 0): 1e-6}, 2, 176), ({(0, 0): 1e-6, (1, 0): 2e-6}, 1, 320)],
        ids=["one-value", "two-values"],
    )
    def test_broken_symmetry_folds_less(self, nu_e, config22, bends, maps, regions):
        """Relative changes of 1e-6 to values of the E pi/4 factor break its
        symmetry.  Changing one value keeps the station swap, whose
        relabeling fixes that cell, so 2 of the 8 maps survive; a second
        change leaves the identity alone, and the search bounds the whole
        cube in as many regions as the unfolded search of ``F`` took.
        Either bracket agrees with the folded one within the gap plus the
        change."""
        F, _ = optimize_pef_polytope(nu_e, 0.2)
        values = dict(F.values)
        for key, rel in bends.items():
            values[key] *= 1.0 + rel
        bent = TrialFunction(values, F.beta, F.role)
        gap = 1e-3
        folded = certify_fmax(F, config22, gap, seed=0)
        unfolded = certify_fmax(bent, config22, gap, seed=0)
        assert len(folded.symmetries) == 8 and len(unfolded.symmetries) == maps
        assert folded.regions_explored == 48 and unfolded.regions_explored == regions
        assert max(folded.f_lower, unfolded.f_lower) <= min(folded.f_upper, unfolded.f_upper) + 1e-6
        assert abs(folded.f_upper - unfolded.f_upper) <= gap + 1e-6
        assert abs(folded.f_lower - unfolded.f_lower) <= gap + 1e-6

    def test_json_keeps_symmetries(self, cert02):
        """The angle maps survive JSON; a certificate without them is
        refused, not read as unfolded."""
        assert len(cert02.symmetries) == 8
        assert CertificationResult.from_json(cert02.to_json()).symmetries == cert02.symmetries
        data = json.loads(cert02.to_json())
        del data["symmetries"]
        with pytest.raises(ValueError, match="symmetries"):
            CertificationResult.from_json(json.dumps(data))


def _apply_map(g, theta) -> tuple[float, ...]:
    """The image of ``theta`` under ``g = (perm, reflect)``: station ``j``
    is ``theta[perm[j]]``, mirrored to ``pi - theta[perm[j]]`` where
    ``reflect[j]``."""
    perm, reflect = g
    return tuple(math.pi - theta[p] if r else theta[p] for p, r in zip(perm, reflect))


class TestSymmetries:
    """The angle maps of the cube, their cell relabelings, and the keep rule."""

    def test_relabeling_moves_the_angles(self):
        """For every candidate angle map ``g`` and every relabeling ``t`` that
        fixes the angles, the inner maximum at ``g theta`` equals that of the
        relabeled factor at ``theta``."""
        rng = np.random.default_rng(2207)
        values = rng.uniform(0.1, 2.0, 16)
        F = TrialFunction({(c, z): values[4 * z + c] for c in range(4) for z in range(4)}, 0.3)
        maps, table = qef_engine._angle_maps(2)
        assert len(maps) == 8 and table.shape == (8, 16, 16)
        theta = tuple(rng.uniform(0.0, math.pi, 2))
        for g, rows in zip(maps, table):
            want = inner_max_tau(F, _apply_map(g, theta), tol=1e-11).value
            for t in rows:
                G = TrialFunction(
                    {(c, z): values[t[4 * z + c]] for c in range(4) for z in range(4)}, 0.3
                )
                assert abs(inner_max_tau(G, theta, tol=1e-11).value - want) <= 1e-9

    def test_polytope_factors_find_all_eight_maps(self, nu_e, pef02):
        for F in (pef02[0], optimize_pef_polytope(nu_e, 0.2)[0]):
            folded, maps = qef_engine._fold(F, 2)
            assert len(maps) == 8 and maps[0] == ((0, 1), (False, False))
            # The fold only rounds values up, by no more than the slack.
            for key, value in F.values.items():
                assert value <= folded.value(*key) <= value + qef_engine.NUMERIC_SLACK

    def test_random_candidates_find_only_the_identity(self):
        rng = np.random.default_rng(2208)
        for _ in range(20):
            F = TrialFunction(
                {(c, z): float(rng.uniform(0.1, 2.0)) for c in range(4) for z in range(4)}, 0.3
            )
            folded, maps = qef_engine._fold(F, 2)
            assert folded is F and maps == [((0, 1), (False, False))]

    @pytest.mark.parametrize(
        "k, maps",
        [
            (3, [((0, 1, 2), (False,) * 3), ((1, 2, 0), (False,) * 3), ((2, 0, 1), (False,) * 3)]),
            (2, [(p, (a, b)) for p in ((0, 1), (1, 0)) for a in (0, 1) for b in (0, 1)]),
        ],
        ids=["k3-cyclic", "k2-all"],
    )
    def test_kept_leaves_tile_the_cube(self, k, maps):
        """Uniform refinement, three levels below the ``4**k`` grid: the kept
        leaves' images under the group cover every cell of the finest grid
        exactly once.  The rule that keeps each cell least in its whole orbit
        covers only 86.7 % of the cube here at ``k = 3`` under the cyclic
        group."""
        perm = np.array([p for p, _ in maps[1:]])
        reflect = np.array([r for _, r in maps[1:]], dtype=bool)
        lows = np.array(list(np.ndindex(*([4] * k)))) / 4.0
        side = np.full(len(lows), 0.25)
        kept = qef_engine._kept(lows, side, np.zeros_like(lows), np.ones(len(lows)), perm, reflect)
        lows = lows[kept]
        bits = np.arange(1 << k)[:, None] >> np.arange(k) & 1
        for depth in range(3):
            s = 0.125 / 2**depth
            children = (lows[:, None, :] + s * bits).reshape(-1, k)
            parents = np.repeat(lows, 1 << k, axis=0)
            n = len(children)
            kept = qef_engine._kept(
                children, np.full(n, s), parents, np.full(n, 2 * s), perm, reflect
            )
            lows = children[kept]
        n = 32
        covered = np.zeros((n,) * k, dtype=int)
        for low in (lows * n).round().astype(int):
            images = {
                tuple(n - 1 - low[p] if r else low[p] for p, r in zip(pm, rf)) for pm, rf in maps
            }
            for cell in images:
                covered[cell] += 1
        assert (covered == 1).all()
