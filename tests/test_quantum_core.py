"""Operator substrate: Hermitian decompositions, Renyi powers, entropies.

Oracles are written independently of the package internals: spectra and
fractional powers come from a direct eigendecomposition, classical cases
from scalar formulas.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from qpe.quantum_core import (
    CqDistribution,
    HermitianOperator,
    RenyiOrder,
    conditional_entropy,
    renyi_power,
)


def random_hermitian(rng: np.random.Generator, dim: int, complex_: bool = True):
    a = rng.standard_normal((dim, dim))
    if complex_:
        a = a + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None):
    r = dim if rank is None else rank
    a = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_spectrum_reconstruction(self):
        """Eigenpairs reassemble the matrix to relative 1e-10."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = random_hermitian(rng, int(rng.integers(2, 8)))
            op = HermitianOperator(a)
            lam, vec = op.eigenvalues, op.eigenvectors
            rebuilt = (vec * lam) @ vec.conj().T
            assert np.linalg.norm(rebuilt - op.matrix) <= 1e-10 * max(
                np.linalg.norm(op.matrix), 1e-300
            )

    def test_power_matches_eigen_oracle(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 5)
        op = HermitianOperator(rho)
        lam, vec = np.linalg.eigh(rho)
        lam = np.clip(lam, 0.0, None)
        oracle = (vec * lam**0.37) @ vec.conj().T
        root = op.power(0.37)
        assert np.allclose(root, oracle, atol=1e-10)
        assert not root.flags.writeable

    def test_psd_predicates(self):
        assert HermitianOperator(np.diag([1.0, 0.0])).is_psd()
        assert not HermitianOperator(np.diag([1.0, -1e-6])).is_psd()

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, complex(math.inf, math.nan), complex(math.nan, 0.0)]
    )
    def test_non_finite_entries_rejected_without_warning(self, bad):
        """A non-finite entry anywhere in a stack is refused before any
        arithmetic on it, so no ``inf - inf`` warns."""
        mixed = np.array(
            [[math.nan, complex(math.inf, math.nan)], [-math.inf, math.inf]], dtype=complex
        )
        one = np.eye(2, dtype=complex)
        one[0, 1] = bad
        for m in (mixed, one, np.full((2, 2), bad, dtype=complex)):
            stack = np.stack([np.eye(2), m, np.eye(2)])
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ValueError, match="matrix entries must be finite"):
                    HermitianOperator(stack)
                with pytest.raises(ValueError, match="matrix entries must be finite"):
                    HermitianOperator(m)


class TestRenyiPower:
    def test_state_relative_to_itself(self):
        rng = np.random.default_rng(10)
        rho = random_density(rng, 4)
        for alpha in (1.1, 1.5, 2.0):
            v = renyi_power(rho, rho, RenyiOrder(alpha))
            assert abs(v - 1.0) <= 1e-10

    def test_zero_numerator(self):
        sigma = np.eye(3) / 3.0
        assert renyi_power(np.zeros((3, 3)), sigma, RenyiOrder(1.3)) == 0.0

    def test_classical_reduction(self):
        """Diagonal blocks give (mu(cz)/mu(z))^beta in normalized form."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            weights = rng.dirichlet(np.ones(n))
            marginal = np.diag(rng.dirichlet(np.ones(n) * 2.0) + 1e-6)
            marginal /= np.trace(marginal)
            c = int(rng.integers(0, n))
            block = weights[c] * marginal
            beta = float(rng.uniform(0.05, 0.9))
            got = renyi_power(
                block, marginal, RenyiOrder.from_beta(beta), normalized=True
            )
            assert abs(got - weights[c] ** beta) <= 1e-10

    def test_commuting_scalar_oracle(self):
        """Shared eigenbasis reduces both kinds to sum r^alpha s^(-beta)."""
        rng = np.random.default_rng(12)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            basis = np.linalg.qr(
                rng.standard_normal((dim, dim))
                + 1j * rng.standard_normal((dim, dim))
            )[0]
            r = rng.dirichlet(np.ones(dim))
            s = rng.dirichlet(np.ones(dim)) + 1e-3
            s /= s.sum()
            rho = (basis * r) @ basis.conj().T
            sigma = (basis * s) @ basis.conj().T
            order = RenyiOrder(float(rng.uniform(1.05, 1.95)))
            scalar = float((r**order.alpha * s**-order.beta).sum())
            for kind in ("sandwiched", "petz"):
                got = renyi_power(rho, sigma, order, kind=kind)
                assert abs(got - scalar) <= 1e-10 * max(1.0, scalar)

    def test_petz_dominates_sandwiched(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            rho = random_density(rng, 3)
            sigma = random_density(rng, 3) + 0.05 * np.eye(3)
            sigma /= np.trace(sigma).real
            order = RenyiOrder(float(rng.uniform(1.05, 1.95)))
            petz = renyi_power(rho, sigma, order, kind="petz")
            sand = renyi_power(rho, sigma, order, kind="sandwiched")
            assert petz >= sand - 1e-10

    def test_petz_order_cap(self):
        rng = np.random.default_rng(14)
        rho = random_density(rng, 2)
        with pytest.raises(ValueError):
            renyi_power(rho, rho, RenyiOrder(2.5), kind="petz")

    def test_support_violation_rejected(self):
        rho = np.diag([1.0, 0.0])
        sigma = np.diag([0.0, 1.0])
        with pytest.raises(ValueError):
            renyi_power(rho, sigma, RenyiOrder(1.5))

    def test_support_leak_is_a_mass(self):
        """A leak of mass 1e-7 is rejected, and one of 1e-9 is not: the mass,
        not its square root, is held against ``SUPPORT_TOL``."""
        sigma = np.diag([1.0, 0.0])
        for mass, leaks in ((1e-7, True), (1e-9, False)):
            rho = np.array([[1.0 - mass, math.sqrt(mass * (1.0 - mass))],
                            [math.sqrt(mass * (1.0 - mass)), mass]])
            if leaks:
                with pytest.raises(ValueError, match="relative mass 1.000e-07"):
                    renyi_power(rho, sigma, RenyiOrder(1.5))
            else:
                assert renyi_power(rho, sigma, RenyiOrder(1.5)) > 0.0

    @pytest.mark.parametrize("kind", ["sandwiched", "petz"])
    def test_leak_into_a_clipped_eigenvalue_is_refused(self, kind):
        """A roundoff-negative eigenvalue of sigma is clipped to 0 and lies in
        the kernel the powers use, so rho's mass along it leaks, as it does
        along an exact 0."""
        rho = np.diag([0.5, 0.5])
        for low in (-5e-12, 0.0):
            with pytest.raises(ValueError, match="relative mass 5.000e-01"):
                renyi_power(rho, np.diag([1.0, low]), RenyiOrder(1.5), kind=kind)


class TestConditionalEntropy:
    def test_uniform_classical(self):
        rho = CqDistribution.classical({(0, 0): 0.5, (1, 0): 0.5})
        assert abs(conditional_entropy(rho) - math.log(2.0)) <= 1e-12

    def test_deterministic(self):
        rho = CqDistribution.classical({(0, 0): 0.5, (0, 1): 0.5})
        assert abs(conditional_entropy(rho)) <= 1e-12

    def test_diagonal_matches_shannon_oracle(self):
        """Diagonal side information reduces to H(C|ZE) over the joint."""
        rng = np.random.default_rng(15)
        for _ in range(50):
            n_c, n_z, dim = 2, 2, 3
            # Diagonal blocks: the quantum register is a classical label E.
            p = rng.dirichlet(np.ones(n_c * n_z * dim)).reshape(n_c, n_z, dim)
            rho = CqDistribution(
                [[np.diag(p[c, z]) for c in range(n_c)] for z in range(n_z)]
            )
            joint = p.sum()  # == 1
            h = 0.0
            for z in range(n_z):
                for e in range(dim):
                    pz = p[:, z, e].sum()
                    if pz <= 0.0:
                        continue
                    for c in range(n_c):
                        if p[c, z, e] > 0.0:
                            h -= p[c, z, e] * math.log(p[c, z, e] / pz)
            assert abs(conditional_entropy(rho) - h) <= 1e-9 * max(1.0, joint)



class TestStacks:
    """Stacks of operators: each matrix is checked and evaluated on its own."""

    def test_stacked_renyi_matches_pairs(self):
        """A broadcast stack equals a loop of single-pair calls, zero blocks included."""
        rng = np.random.default_rng(16)
        sigma = np.stack([random_density(rng, 3), random_density(rng, 3, rank=2)])
        lam, vec = np.linalg.eigh(sigma)
        # Square roots with the rank-2 kernel exactly zero: r X r stays in the support.
        roots = (vec * np.where(lam > 1e-12, np.sqrt(np.abs(lam)), 0.0)[:, None]) @ vec.conj().swapaxes(1, 2)
        rho = np.stack([[r @ random_density(rng, 3) @ r for _ in range(3)] for r in roots])
        rho[0, 1] = 0.0
        # Kernels and floors are relative to each matrix, not to the stack.
        sigma[1] *= 1e-14
        rho[1] *= 1e-14
        for kind in ("sandwiched", "petz"):
            for normalized in (False, True):
                order = RenyiOrder(float(rng.uniform(1.05, 1.95)))
                got = renyi_power(rho, sigma[:, None], order, kind=kind, normalized=normalized)
                assert got.shape == (2, 3)
                for i, j in np.ndindex(2, 3):
                    ref = renyi_power(rho[i, j], sigma[i], order, kind=kind, normalized=normalized)
                    assert abs(got[i, j] - ref) <= 1e-13 * ref
                assert got[0, 1] == 0.0

    def test_stack_errors_name_the_pair(self):
        up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        order = RenyiOrder(1.5)
        with pytest.raises(ValueError, match=r"leaks outside support of sigma at stack index \(1,\)"):
            renyi_power(np.stack([up, up]), np.stack([up, down]), order)
        with pytest.raises(ValueError, match=r"leaks outside support of sigma at stack index \(1,\)"):
            renyi_power(np.stack([up, up]), np.stack([np.eye(2), down]), order)
        rho = np.stack([[up] * 3, [up, up, up + down]]) / 4.0
        with pytest.raises(ValueError, match=r"leaks outside support of sigma at stack index \(1, 2\)"):
            renyi_power(rho, np.stack([up, up])[:, None], order, kind="petz")
        with pytest.raises(ValueError, match=r"sigma = 0 with rho != 0 at stack index \(1,\)"):
            renyi_power(np.stack([up, up]), np.stack([np.eye(2), np.zeros((2, 2))]), order)
        got = renyi_power(np.stack([up, np.zeros((2, 2))]), np.stack([up, np.zeros((2, 2))]), order)
        assert got.tolist() == [1.0, 0.0]

    def test_hermiticity_is_per_matrix(self):
        skewed = np.array([[1e-6, 1e-15], [0.0, 1e-6]])
        with pytest.raises(ValueError, match=r"matrix at stack index \(1,\) is not Hermitian"):
            HermitianOperator(np.stack([np.eye(2), skewed]))

    def test_psd_floor_is_per_matrix(self):
        """A small matrix's negative eigenvalue is judged against its own norm."""
        small = np.diag([1e-6, -1e-12])
        ops = HermitianOperator(np.stack([np.diag([1.0, 0.0]), small]))
        assert ops.is_psd().tolist() == [True, False]
        with pytest.raises(ValueError, match=r"at stack index \(1,\) is not positive semidefinite"):
            ops.psd_eigenvalues()
        with pytest.raises(ValueError, match=r"block \(1, 0\) is not positive semidefinite"):
            CqDistribution([[np.diag([1.0, 0.0]), small]])
        # Roundoff below the block's own floor is clipped, not rejected.
        rho = CqDistribution([[np.diag([1.0, 0.0]), np.diag([1e-6, -1e-17])]])
        assert rho.block(1, 0).psd_eigenvalues().tolist() == [1e-6, 0.0]

    def test_classical_keys_fill_the_grid(self):
        rho = CqDistribution.classical({(c, z): 0.25 for z in range(2) for c in range(2)})
        assert rho.keys() == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert rho.blocks.matrix.shape == (2, 2, 1, 1)
        for c, z in ((2, 0), (0, 2), (-1, 0), (0, -1)):
            with pytest.raises(KeyError):
                rho.block(c, z)
        for z in (2, -1, 5):
            with pytest.raises(KeyError, match=str(z)):
                rho.marginal(z)
        assert rho.marginal(1).trace() == 0.5
        for probs in ({(0, 0): 0.5, (1, 1): 0.5}, {(1, 0): 1.0}, {}):
            with pytest.raises(ValueError):
                CqDistribution.classical(probs)

    def test_blocks_share_the_stacked_spectrum(self):
        rng = np.random.default_rng(17)
        blocks = {(c, z): random_density(rng, 3) / 4.0 for z in range(2) for c in range(2)}
        rho = CqDistribution([[blocks[(c, z)] for c in range(2)] for z in range(2)])
        assert rho.blocks.matrix.shape == (2, 2, 3, 3)
        assert rho.marginals.matrix.shape == (2, 1, 3, 3)
        assert list(rho.keys()) == list(blocks)
        for (c, z), block in blocks.items():
            op = rho.block(c, z)
            assert np.array_equal(op.matrix, HermitianOperator(block).matrix)
            assert np.allclose(op.eigenvalues, HermitianOperator(block).eigenvalues, atol=1e-15)
            assert np.allclose(rho.marginal(z).matrix, blocks[(0, z)] + blocks[(1, z)], atol=1e-15)


def _psd_power(m: np.ndarray, p: float) -> np.ndarray:
    """``m**p`` on the support of a PSD matrix, 0 on its relative kernel."""
    lam, vec = np.linalg.eigh(m)
    on = lam > 1e-12 * lam.max()
    return (vec * np.where(on, np.where(on, lam, 1.0) ** p, 0.0)) @ vec.conj().T


def full_matrix_power(rho, sigma, order, kind, normalized):
    """One pair's Renyi power from ``d x d`` products: the product
    ``sigma^(-beta/2alpha) rho sigma^(-beta/2alpha)`` decomposed whole, or
    ``rho^alpha`` built as a matrix."""
    alpha, beta = order.alpha, order.beta
    if kind == "sandwiched":
        s = _psd_power(sigma, -beta / (2.0 * alpha))
        m = s @ rho @ s
        w = np.clip(np.linalg.eigvalsh((m + m.conj().T) / 2.0), 0.0, None)
        value = float((w**alpha).sum())
    else:
        value = float(np.trace(_psd_power(rho, alpha) @ _psd_power(sigma, -beta)).real)
    return value / np.trace(rho).real if normalized else value


class TestSupportFormulas:
    """Both kinds on each ``rho``'s support equal the full-matrix formulas."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_mixed_ranks_match_full_matrix_formulas(self, dim):
        rng = np.random.default_rng(18 + dim)
        # Row 0: a full-rank sigma.  Row 1: a sigma with a one-dimensional
        # kernel, each rho inside its support.
        basis = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
        support = basis[:, : dim - 1]
        sigma = np.stack([random_density(rng, dim), support @ random_density(rng, dim - 1) @ support.conj().T])
        rho = np.empty((2, dim, dim, dim), dtype=complex)
        for j in range(dim):
            scale = rng.uniform(0.1, 1.0)
            rho[0, j] = scale * random_density(rng, dim, rank=j + 1)
            inner = random_density(rng, dim - 1, rank=min(j + 1, dim - 1))
            rho[1, j] = scale * support @ inner @ support.conj().T
        for kind in ("sandwiched", "petz"):
            for normalized in (False, True):
                order = RenyiOrder(float(rng.uniform(1.05, 1.95)))
                got = renyi_power(rho, sigma[:, None], order, kind=kind, normalized=normalized)
                for i, j in np.ndindex(2, dim):
                    ref = full_matrix_power(rho[i, j], sigma[i], order, kind, normalized)
                    assert abs(got[i, j] - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_rank_one_stacks_match_full_matrix_formulas(self, monkeypatch, dim):
        """When every ``rho`` has rank one, the sandwiched kind reads its
        ``1 x 1`` support matrix as its eigenvalue and decomposes nothing but
        the operands; both kinds equal the full-matrix formulas."""
        rng = np.random.default_rng(26 + dim)
        basis = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
        support = basis[:, : dim - 1]
        sigma = np.stack([random_density(rng, dim), support @ random_density(rng, dim - 1) @ support.conj().T])
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        y = x[:, : dim - 1] @ support.T
        rho = np.stack([
            x[..., :, None] * x.conj()[..., None, :],
            y[..., :, None] * y.conj()[..., None, :],
        ]) * rng.uniform(0.1, 1.0, size=(2, dim, 1, 1))
        shapes = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for kind in ("sandwiched", "petz"):
            for normalized in (False, True):
                order = RenyiOrder(float(rng.uniform(1.05, 1.95)))
                shapes.clear()
                got = renyi_power(rho, sigma[:, None], order, kind=kind, normalized=normalized)
                assert shapes == [(2, dim, dim, dim), (2, 1, dim, dim)]
                for i, j in np.ndindex(2, dim):
                    ref = full_matrix_power(rho[i, j], sigma[i], order, kind, normalized)
                    assert abs(got[i, j] - ref) <= 1e-12 * ref
