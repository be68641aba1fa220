"""Hermitian operator substrate: spectra, Renyi powers, conditional entropy.

All linear algebra is dense and eigendecomposition-based.  Operators are
small (dimension a few dozen at most), so numerical robustness is preferred
over asymptotic speed everywhere: spectra are cached once per operator,
reconstruction error is checked, and tiny negative eigenvalues produced by
roundoff are clipped under an explicit relative threshold before fractional
powers are taken.

Entropic quantities are in nats unless a function name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

# Relative tolerance for accepting a matrix as Hermitian.
TOL_HERM = 1e-12
# Relative tolerance on ||A - V diag(w) V*||_F after eigendecomposition.
TOL_SPECTRUM = 1e-10
# Eigenvalues in [-TOL_PSD * ||A||, 0) are treated as roundoff and clipped to 0.
TOL_PSD = 1e-10
# Relative cut below which an eigenvalue belongs to the kernel.
KERNEL_CUT = 1e-12
# Default relative tolerance for support-containment checks.
SUPPORT_TOL = 1e-8
# Tolerance on trace when a normalized distribution is required.
TOL_NORM = 1e-10


@dataclass(frozen=True)
class RenyiOrder:
    """Renyi order ``alpha > 1`` with derived exponent ``beta = alpha - 1``."""

    alpha: float

    def __post_init__(self) -> None:
        if not (self.alpha > 1.0) or not math.isfinite(self.alpha):
            raise ValueError(f"Renyi order must satisfy alpha > 1, got {self.alpha}")

    @property
    def beta(self) -> float:
        return self.alpha - 1.0

    @classmethod
    def from_beta(cls, beta: float) -> "RenyiOrder":
        return cls(1.0 + beta)


class HermitianOperator:
    """A dense Hermitian matrix with a lazily cached spectral decomposition.

    Parameters
    ----------
    entries : array_like
        Square matrix.  Hermiticity is enforced to relative tolerance
        ``TOL_HERM`` (against the largest entry magnitude); the residual
        skew part is symmetrized away.

    Notes
    -----
    Instances are immutable: the entry array is frozen, and the spectrum is
    computed at most once.  Fractional powers, logs and support projectors
    all share the single decomposition.
    """

    __slots__ = ("_m", "dim", "_spectrum")

    def __init__(self, entries) -> None:
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        scale = float(np.abs(m).max()) if m.size else 0.0
        if scale > 0.0:
            skew = float(np.abs(m - m.conj().T).max())
            if skew > TOL_HERM * scale:
                raise ValueError(
                    f"matrix is not Hermitian: skew {skew:.3e} exceeds "
                    f"{TOL_HERM:.0e} * {scale:.3e}"
                )
        m = (m + m.conj().T) / 2.0
        m.setflags(write=False)
        self._m = m
        self.dim = int(m.shape[0])
        self._spectrum = None

    # -- basic views ---------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    def __repr__(self) -> str:  # pragma: no cover
        return f"HermitianOperator(dim={self.dim}, trace={self.trace():.6g})"

    def trace(self) -> float:
        return float(np.real(np.trace(self._m)))

    def fro_norm(self) -> float:
        return float(np.linalg.norm(self._m))

    # -- spectrum ------------------------------------------------------

    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        # Cached descending eigensystem with a reconstruction check.
        if self._spectrum is None:
            w, v = np.linalg.eigh(self._m)
            w, v = w[::-1].copy(), v[:, ::-1].copy()
            resid = np.linalg.norm((v * w) @ v.conj().T - self._m)
            if resid > TOL_SPECTRUM * max(1.0, self.fro_norm()):
                raise ValueError(f"eigendecomposition failed: residual {resid:.3e}")
            w.setflags(write=False)
            v.setflags(write=False)
            self._spectrum = (w, v)
        return self._spectrum

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order."""
        return self._eig()[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        """Orthonormal eigenvectors, columns matching :attr:`eigenvalues`."""
        return self._eig()[1]

    def spectral_norm(self) -> float:
        w = self.eigenvalues
        return float(max(abs(w[0]), abs(w[-1]))) if self.dim else 0.0

    # -- positive-semidefinite helpers ----------------------------------

    def psd_eigenvalues(self) -> np.ndarray:
        """Eigenvalues with roundoff negatives clipped to zero.

        Eigenvalues in ``[-TOL_PSD * ||A||, 0)`` are set to 0; anything more
        negative means the operator is genuinely not positive semidefinite
        and a ``ValueError`` is raised.
        """
        w = self.eigenvalues
        floor = -TOL_PSD * max(1e-300, self.spectral_norm())
        if w[-1] < floor:
            raise ValueError(
                f"operator is not positive semidefinite: min eigenvalue "
                f"{w[-1]:.3e} below {floor:.3e}"
            )
        return np.clip(w, 0.0, None)

    def is_psd(self) -> bool:
        try:
            self.psd_eigenvalues()
        except ValueError:
            return False
        return True

    def support_projector(self) -> np.ndarray:
        """Projector onto eigenvalues above ``KERNEL_CUT`` times the largest."""
        w, v = self._eig()
        top = abs(w[0]) if self.dim else 0.0
        keep = np.abs(w) > KERNEL_CUT * top
        vs = v[:, keep]
        return vs @ vs.conj().T

    def power(self, p: float) -> "HermitianOperator":
        """Positive-semidefinite fractional power with relative-kernel semantics.

        Kernel eigenvalues (below ``KERNEL_CUT`` times the largest) map to 0
        for every exponent, so negative powers are inverses on the support.
        """
        w = self.psd_eigenvalues()
        top = w[0] if self.dim else 0.0
        out = np.zeros_like(w)
        on = w > KERNEL_CUT * top
        out[on] = w[on] ** p
        v = self.eigenvectors
        return HermitianOperator((v * out) @ v.conj().T)

    def support_log(self) -> np.ndarray:
        """Matrix log on the support, zero on the kernel (a plain ndarray)."""
        w = self.psd_eigenvalues()
        top = w[0] if self.dim else 0.0
        out = np.zeros_like(w)
        on = w > KERNEL_CUT * top
        out[on] = np.log(w[on])
        v = self.eigenvectors
        return (v * out) @ v.conj().T


def _as_operator(x) -> HermitianOperator:
    return x if isinstance(x, HermitianOperator) else HermitianOperator(x)


class CqDistribution:
    """Classical-quantum distribution: positive blocks indexed by ``(c, z)``.

    Parameters
    ----------
    blocks : mapping
        ``(c, z) -> HermitianOperator`` (or array_like).  All blocks must
        share one dimension and be positive semidefinite to tolerance
        ``TOL_PSD`` relative to each block's norm.  The key set must be the
        full product of the ``c`` and ``z`` ranges that appear.

    Notes
    -----
    Block keys are plain hashables, normally small ints.  The object is a
    value type: blocks are not mutated after construction, and marginals
    over ``c`` are cached.
    """

    __slots__ = ("_blocks", "dim", "c_range", "z_range", "_marginals")

    def __init__(self, blocks: Mapping) -> None:
        if not blocks:
            raise ValueError("at least one block is required")
        ops = {k: _as_operator(v) for k, v in blocks.items()}
        cs = sorted({k[0] for k in ops})
        zs = sorted({k[1] for k in ops})
        if set(ops) != {(c, z) for c in cs for z in zs}:
            raise ValueError("block keys must form a full (c, z) product")
        dims = {op.dim for op in ops.values()}
        if len(dims) != 1:
            raise ValueError(f"blocks must share one dimension, got {sorted(dims)}")
        for k, op in ops.items():
            if not op.is_psd():
                raise ValueError(f"block {k} is not positive semidefinite")
        self._blocks = ops
        self.dim = dims.pop()
        self.c_range = tuple(cs)
        self.z_range = tuple(zs)
        self._marginals: dict = {}

    @classmethod
    def classical(cls, probs: Mapping) -> "CqDistribution":
        """Embed a joint probability table as 1x1 blocks."""
        return cls({k: np.array([[float(p)]]) for k, p in probs.items()})

    # -- access ---------------------------------------------------------

    def block(self, c, z) -> HermitianOperator:
        return self._blocks[(c, z)]

    def keys(self):
        return self._blocks.keys()

    def marginal(self, z) -> HermitianOperator:
        """Block sum over outcomes at fixed input, cached."""
        if z not in self._marginals:
            total = sum(self._blocks[(c, z)].matrix for c in self.c_range)
            self._marginals[z] = HermitianOperator(total)
        return self._marginals[z]

    def trace_total(self) -> float:
        return float(sum(op.trace() for op in self._blocks.values()))

    def is_normalized(self) -> bool:
        return abs(self.trace_total() - 1.0) <= TOL_NORM

    def require_normalized(self, what: str) -> None:
        if not self.is_normalized():
            raise ValueError(
                f"{what} requires a normalized distribution, "
                f"total trace {self.trace_total():.12g}"
            )


# -- Renyi powers ---------------------------------------------------------


def _support_leak(rho: HermitianOperator, sigma: HermitianOperator) -> float:
    """Relative mass of ``rho`` outside the support of ``sigma``."""
    kernel = np.eye(sigma.dim) - sigma.support_projector()
    leak = float(np.linalg.norm(kernel @ rho.matrix))
    return leak / max(1.0, rho.fro_norm())


def _clip_tiny_negatives(w: np.ndarray, scale: float) -> np.ndarray:
    floor = -TOL_PSD * max(1e-300, scale)
    if w.min(initial=0.0) < floor:
        raise ValueError(
            f"unexpected negative eigenvalue {w.min():.3e} "
            f"(threshold {floor:.3e})"
        )
    return np.clip(w, 0.0, None)


def renyi_power(
    rho,
    sigma,
    order: RenyiOrder,
    kind: str = "sandwiched",
    normalized: bool = False,
) -> float:
    """Renyi power of ``rho`` relative to ``sigma`` at order ``alpha``.

    Parameters
    ----------
    rho, sigma : HermitianOperator or array_like
        Positive semidefinite operators.  The support of ``rho`` must be
        contained in the support of ``sigma`` to relative tolerance
        ``SUPPORT_TOL``; negative powers of ``sigma`` act on its support.
    order : RenyiOrder
        The order ``alpha = 1 + beta``, ``beta > 0``.
    kind : {"sandwiched", "petz"}
        ``"sandwiched"`` evaluates
        ``tr (sigma^{-beta/(2 alpha)} rho sigma^{-beta/(2 alpha)})^alpha``;
        ``"petz"`` evaluates ``tr rho^alpha sigma^{-beta}`` and is only
        admitted for ``alpha <= 2``.
    normalized : bool
        Divide by ``tr rho`` (the hatted variant).

    Returns
    -------
    float
        The power; ``0.0`` when both operators vanish (and for ``rho = 0``).
    """
    rho = _as_operator(rho)
    sigma = _as_operator(sigma)
    if rho.dim != sigma.dim:
        raise ValueError("operands must share dimension")
    if kind not in ("sandwiched", "petz"):
        raise ValueError(f"unknown kind {kind!r}")
    alpha, beta = order.alpha, order.beta
    if kind == "petz" and alpha > 2.0 + 1e-12:
        raise ValueError("petz powers are only supported for alpha <= 2")
    rho.psd_eigenvalues()

    rho_scale = rho.spectral_norm()
    sigma_scale = sigma.spectral_norm()
    if rho_scale <= 0.0:
        # Both-zero and rho-zero cases are defined as 0.
        return 0.0
    if sigma_scale <= 0.0:
        raise ValueError("sigma = 0 with rho != 0 violates support containment")
    leak = _support_leak(rho, sigma)
    if leak > SUPPORT_TOL:
        raise ValueError(
            f"support of rho leaks outside support of sigma: "
            f"relative mass {leak:.3e} > {SUPPORT_TOL:.0e}"
        )

    if kind == "sandwiched":
        s = sigma.power(-beta / (2.0 * alpha)).matrix
        inner = HermitianOperator(s @ rho.matrix @ s)
        w = _clip_tiny_negatives(inner.eigenvalues, inner.spectral_norm())
        value = float((w**alpha).sum())
    else:
        ra = rho.power(alpha).matrix
        sb = sigma.power(-beta).matrix
        value = float(np.real(np.trace(ra @ sb)))
        value = max(value, 0.0)
    if normalized:
        value /= rho.trace()
    return value


# -- entropies ------------------------------------------------------------


def _entropy_weights(op: HermitianOperator) -> float:
    """``tr(rho log rho)`` over the support of ``rho``."""
    w = op.psd_eigenvalues()
    top = w[0] if op.dim else 0.0
    on = w > KERNEL_CUT * top
    return float((w[on] * np.log(w[on])).sum())


def conditional_entropy(rho: CqDistribution) -> float:
    """Conditional von Neumann entropy of outcomes given inputs, in nats.

    Evaluates ``-sum_cz [tr rho(cz) log rho(cz) - tr rho(cz) log rho(z)]``
    for a normalized distribution; block supports sit inside the marginal
    supports automatically.
    """
    rho.require_normalized("conditional_entropy")
    total = 0.0
    for z in rho.z_range:
        log_marg = rho.marginal(z).support_log()
        for c in rho.c_range:
            block = rho.block(c, z)
            if block.trace() <= 0.0:
                continue
            total += _entropy_weights(block)
            total -= float(np.real(np.trace(block.matrix @ log_marg)))
    return -total

