"""Hermitian operator substrate: spectra, Renyi powers, conditional entropy.

All linear algebra is dense and eigendecomposition-based.  Operators are
small (dimension a few dozen at most), so numerical robustness is preferred
over asymptotic speed everywhere: reconstruction error is checked, and tiny
negative eigenvalues produced by roundoff are clipped under an explicit
relative threshold before fractional powers are taken.

Operators come in stacks.  A :class:`HermitianOperator` holds one matrix or
an ``(..., d, d)`` stack of them, and computes the spectra of the whole stack
at most once, by one broadcast eigendecomposition.  Every check, clip and
kernel cut applies to each matrix on its own, with tolerances relative to
that matrix.  A :class:`CqDistribution` keeps its blocks and its marginals in
one such stack, decomposed together; one built from rank-one blocks
``conj(u) u^T`` and a known marginal spectrum decomposes nothing, its
supports read from ``u`` and checked like a decomposition.
:func:`renyi_power` broadcasts over stacks and works on the support of each
``rho``, so a whole distribution is evaluated in a few array calls; one
matrix is the stack of one.

Entropic quantities are in nats unless a function name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

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


# -- stacked helpers --------------------------------------------------------


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _from_spectrum(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v diag(w) v*`` for every matrix of a stack."""
    return (v * w[..., None, :]) @ _dagger(v)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + _dagger(m)) / 2.0


def _fro(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.square(np.abs(m)).sum(axis=(-2, -1)))


def _check_spectrum(m: np.ndarray, w: np.ndarray, v: np.ndarray, what: str) -> None:
    """Raise unless ``v diag(w) v*`` reconstructs each matrix of ``m``.

    The residual's Frobenius norm must be at most ``TOL_SPECTRUM`` times the
    larger of 1 and the matrix's own; ``v`` may hold fewer columns than
    ``m``, for a spectrum known on a support only.
    """
    resid = _fro(_from_spectrum(w, v) - m)
    bad = resid > TOL_SPECTRUM * np.maximum(1.0, _fro(m))
    if _any(bad):
        i = _first(bad)
        raise ValueError(f"{what}{_where(i)}: residual {resid[i]:.3e}")


def _norms(w: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix from its eigenvalues ``w[..., :]``."""
    return np.abs(w).max(axis=-1, initial=0.0)


def _any(mask: np.ndarray) -> bool:
    # Much cheaper than ``mask.any()`` on the numpy scalar of one matrix.
    return np.count_nonzero(mask) > 0


def _first(mask: np.ndarray) -> tuple:
    """Stack index of the first failing matrix (``()`` for one matrix)."""
    return tuple(int(i) for i in np.argwhere(mask)[0])


def _where(index: tuple) -> str:
    return f" at stack index {index}" if index else ""


def _per_matrix(x: np.ndarray):
    """A plain Python scalar for one matrix, the array for a stack."""
    return x.item() if np.ndim(x) == 0 else x


class HermitianOperator:
    """A dense Hermitian matrix, or a stack of them, with a lazily cached spectral decomposition.

    Parameters
    ----------
    entries : array_like
        A square matrix ``(d, d)`` or a stack ``(..., d, d)``.  Hermiticity
        is enforced on each matrix to relative tolerance ``TOL_HERM``
        (against its largest entry magnitude); the residual skew part is
        symmetrized away.

    Notes
    -----
    Instances are immutable: the entry array is frozen, and the spectrum is
    computed at most once, for the whole stack.  Fractional powers, logs and
    kernels all share the single decomposition and act on each
    matrix of a stack on its own.  Per-matrix quantities (:meth:`trace`,
    :meth:`is_psd`) are Python scalars for one matrix and arrays over the
    stack axes for a stack.
    """

    __slots__ = ("_m", "dim", "_spectrum", "_psd")

    def __init__(self, entries) -> None:
        m = np.asarray(entries, dtype=complex)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
        scale = np.abs(m).max(axis=(-2, -1), initial=0.0)
        # A non-finite entry shows in its matrix's scale: NaN carries through
        # the max and fails the comparison, and |inf| is inf whatever the
        # other part.
        if np.count_nonzero(scale < math.inf) != scale.size:
            raise ValueError("matrix entries must be finite")
        mh = _dagger(m)
        skew = np.abs(m - mh).max(axis=(-2, -1), initial=0.0)
        bad = skew > TOL_HERM * scale
        if _any(bad):
            i = _first(bad)
            raise ValueError(
                f"matrix{_where(i)} is not Hermitian: skew {skew[i]:.3e} exceeds "
                f"{TOL_HERM:.0e} * {scale[i]:.3e}"
            )
        m = (m + mh) / 2.0
        m.setflags(write=False)
        self._m = m
        self.dim = int(m.shape[-1])
        self._spectrum = self._psd = None

    @classmethod
    def _wrap(cls, m: np.ndarray, spectrum=None, psd=None) -> "HermitianOperator":
        # An operator on a read-only array that is exactly Hermitian already,
        # with whatever spectra are known: no check is repeated.
        out = object.__new__(cls)
        out._m, out.dim, out._spectrum, out._psd = m, int(m.shape[-1]), spectrum, psd
        return out

    def _at(self, index: tuple) -> "HermitianOperator":
        # The matrices at an index of the stack axes (integers or slices):
        # they share the stack's checks and cached spectra.
        spectrum = None if self._spectrum is None else (
            self._spectrum[0][index], self._spectrum[1][index]
        )
        return self._wrap(self._m[index], spectrum, None if self._psd is None else self._psd[index])

    # -- basic views ---------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    def __repr__(self) -> str:  # pragma: no cover
        return f"HermitianOperator(shape={self._m.shape})"

    def trace(self):
        return _per_matrix(np.real(np.trace(self._m, axis1=-2, axis2=-1)))

    # -- spectrum ------------------------------------------------------

    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        # Cached descending eigensystem with a reconstruction check per matrix.
        if self._spectrum is None:
            w, v = np.linalg.eigh(self._m)
            w, v = w[..., ::-1], v[..., ::-1]
            _check_spectrum(self._m, w, v, "eigendecomposition failed")
            w.setflags(write=False)
            v.setflags(write=False)
            self._spectrum = (w, v)
        return self._spectrum

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order, along the last axis."""
        return self._eig()[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        """Orthonormal eigenvectors, columns matching :attr:`eigenvalues`."""
        return self._eig()[1]

    # -- positive-semidefinite helpers ----------------------------------

    def _psd_floor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eigenvalues, each matrix's least eigenvalue, and its roundoff floor."""
        w = self.eigenvalues
        return w, w.min(axis=-1, initial=0.0), -TOL_PSD * np.maximum(1e-300, _norms(w))

    def psd_eigenvalues(self) -> np.ndarray:
        """Eigenvalues with roundoff negatives clipped to zero, cached.

        Eigenvalues in ``[-TOL_PSD * ||A||, 0)`` are set to 0, with ``||A||``
        the norm of their own matrix; anything more negative means that
        matrix is genuinely not positive semidefinite and a ``ValueError``
        is raised.
        """
        if self._psd is None:
            w, low, floor = self._psd_floor()
            bad = low < floor
            if _any(bad):
                i = _first(bad)
                raise ValueError(
                    f"operator{_where(i)} is not positive semidefinite: min eigenvalue "
                    f"{low[i]:.3e} below {floor[i]:.3e}"
                )
            self._psd = np.maximum(w, 0.0)
            self._psd.setflags(write=False)
        return self._psd

    def is_psd(self):
        """Whether each matrix passes :meth:`psd_eigenvalues`."""
        _, low, floor = self._psd_floor()
        return _per_matrix(low >= floor)

    def _on_support(self, f) -> np.ndarray:
        # f of the clipped eigenvalues on each matrix's support, 0 on its kernel.
        w = self.psd_eigenvalues()
        on = w > KERNEL_CUT * w[..., :1]
        return np.where(on, f(np.where(on, w, 1.0)), 0.0)

    def _power(self, p: float) -> np.ndarray:
        return _from_spectrum(self._on_support(lambda w: w**p), self.eigenvectors)

    def power(self, p: float) -> np.ndarray:
        """Positive-semidefinite fractional power with relative-kernel semantics.

        Kernel eigenvalues (below ``KERNEL_CUT`` times the largest) map to 0
        for every exponent, so negative powers are inverses on the support.
        The result is a read-only array, symmetrized as an operator's
        :attr:`matrix` is.
        """
        m = _hermitian_part(self._power(p))
        m.setflags(write=False)
        return m

    def support_log(self) -> np.ndarray:
        """Matrix log on the support, zero on the kernel (a plain ndarray)."""
        return _from_spectrum(self._on_support(np.log), self.eigenvectors)


def _as_operator(x) -> HermitianOperator:
    return x if isinstance(x, HermitianOperator) else HermitianOperator(x)


class CqDistribution:
    """Classical-quantum distribution: positive blocks indexed by ``(c, z)``.

    Parameters
    ----------
    blocks : array_like
        An ``(n_z, n_c, d, d)`` array whose ``[z, c]`` matrix is the block
        ``(c, z)``, for ``c`` in ``range(n_c)`` and ``z`` in ``range(n_z)``.
        Every block must be positive semidefinite to tolerance ``TOL_PSD``
        relative to its own norm.

    Notes
    -----
    :attr:`blocks` is the ``(n_z, n_c, d, d)`` stacked operator of the
    blocks.  :attr:`marginals` stacks the ``n_z`` block sums over outcomes
    as ``(n_z, 1, d, d)``, so that it broadcasts against the blocks; the sums
    are taken over the symmetrized blocks.  Built from blocks, both are
    views of one ``(n_z, n_c + 1, d, d)`` operator, which is checked and
    decomposed once, by one broadcast eigendecomposition, at construction.
    Built by :meth:`_rank_one` from vectors ``u`` and a known marginal
    spectrum, nothing is decomposed: each block's support is ``u`` itself,
    and the blocks' full spectra are decomposed only if a caller asks for
    them.  The support geometry of the blocks against their marginals,
    which every Renyi power of the state reads whatever its order and kind,
    is built and checked the first time it is used and kept
    (:meth:`_support`); the total trace is taken once, at construction.
    The object is a value type: blocks are not mutated after construction.
    """

    __slots__ = (
        "blocks", "marginals", "dim", "c_range", "z_range", "_known", "_geometry", "_total"
    )

    def __init__(self, blocks) -> None:
        stack = np.asarray(blocks, dtype=complex)
        if stack.ndim != 4 or 0 in stack.shape[:2]:
            raise ValueError(f"a block array must be (n_z, n_c, d, d), got shape {stack.shape}")
        n_c = stack.shape[1]
        checked = HermitianOperator(stack).matrix
        both = np.concatenate(
            [checked, _hermitian_part(checked.sum(axis=1, keepdims=True))], axis=1
        )
        both.setflags(write=False)
        ops = HermitianOperator._wrap(both)
        ops._eig()  # before the views are cut, so that they share one decomposition
        blocks = ops._at((slice(None), slice(None, n_c)))
        bad = ~blocks.is_psd()
        if _any(bad):
            iz, ic = _first(bad)
            raise ValueError(f"block {(ic, iz)} is not positive semidefinite")
        self._fill(blocks, ops._at((slice(None), slice(n_c, None))), None)

    @classmethod
    def _rank_one(cls, u, marginal_spectrum) -> "CqDistribution":
        """The distribution of the rank-one blocks ``conj(u) u^T``, ``u`` indexed ``[z, c]``.

        ``u`` is an ``(n_z, n_c, d)`` array, and ``marginal_spectrum`` is
        ``(w, V)``: descending eigenvalues, clipped to zero on the kernel,
        and their eigenvectors, shared by every marginal.  Each block has support weight ``|u|^2`` along
        ``conj(u) / |u|``.  Both spectra are checked against the stored
        matrices by their reconstruction residuals, as a decomposition is;
        the blocks and marginals are stored as :meth:`__init__` stores them,
        so the matrices are the same bits.
        """
        u = np.asarray(u, dtype=complex)
        if u.ndim != 3 or 0 in u.shape[:2]:
            raise ValueError(f"a vector array must be (n_z, n_c, d), got shape {u.shape}")
        if not np.isfinite(u).all():
            raise ValueError("matrix entries must be finite")
        # Where the multiply is fused, the outer products are Hermitian only
        # to roundoff: they are symmetrized, as __init__ symmetrizes.
        blocks = _hermitian_part(u.conj()[..., :, None] * u[..., None, :])
        marginals = _hermitian_part(blocks.sum(axis=1, keepdims=True))
        lam = np.square(np.abs(u)).sum(axis=-1, keepdims=True)
        norm = np.sqrt(lam)
        E = np.divide(u.conj(), norm, out=np.zeros_like(u), where=norm > 0.0)[..., None]
        _check_spectrum(blocks, lam, E, "block support does not reconstruct the block")
        w, V = marginal_spectrum
        w, V = np.broadcast_to(w, marginals.shape[:-1]), np.broadcast_to(V, marginals.shape)
        _check_spectrum(marginals, w, V, "marginal spectrum does not reconstruct the marginal")
        for x in (blocks, marginals, lam, E):
            x.setflags(write=False)
        out = object.__new__(cls)
        out._fill(
            HermitianOperator._wrap(blocks),
            HermitianOperator._wrap(marginals, (w, V), w),
            (lam, E),
        )
        return out

    def _fill(self, blocks: HermitianOperator, marginals: HermitianOperator, known) -> None:
        # ``known``: the blocks' support ``(lam, E)`` when it is known, else None.
        self.blocks, self.marginals = blocks, marginals
        self.dim = blocks.dim
        n_z, n_c = blocks.matrix.shape[:2]
        self.c_range = tuple(range(n_c))
        self.z_range = tuple(range(n_z))
        self._known = known
        self._geometry = None
        self._total = float(blocks.trace().sum())

    @classmethod
    def classical(cls, probs: Mapping) -> "CqDistribution":
        """Embed a joint probability table ``(c, z) -> p`` as 1x1 blocks.

        The keys must be exactly ``range(n_c) x range(n_z)``.
        """
        n_c = 1 + max((k[0] for k in probs), default=-1)
        n_z = 1 + max((k[1] for k in probs), default=-1)
        if set(probs) != {(c, z) for c in range(n_c) for z in range(n_z)}:
            raise ValueError("probability keys must fill range(n_c) x range(n_z)")
        return cls([[[[float(probs[(c, z)])]] for c in range(n_c)] for z in range(n_z)])

    # -- access ---------------------------------------------------------

    def block(self, c, z) -> HermitianOperator:
        if c not in self.c_range or z not in self.z_range:
            raise KeyError((c, z))
        return self.blocks._at((z, c))

    def keys(self):
        """The ``(c, z)`` keys of the blocks, ``z`` major."""
        return [(c, z) for z in self.z_range for c in self.c_range]

    def marginal(self, z) -> HermitianOperator:
        """Block sum over outcomes at fixed input."""
        if z not in self.z_range:
            raise KeyError(z)
        return self.marginals._at((self.z_range.index(z), 0))

    def _support(self) -> "_Geometry":
        # The blocks against their marginals, as renyi_power(blocks,
        # marginals) sees them: built on first use, shared by every order.
        if self._geometry is None:
            self._geometry = _support_geometry(self.blocks, self.marginals, self._known)
        return self._geometry

    def trace_total(self) -> float:
        return self._total

    def require_normalized(self, what: str) -> None:
        if not abs(self.trace_total() - 1.0) <= TOL_NORM:
            raise ValueError(
                f"{what} requires a normalized distribution, "
                f"total trace {self.trace_total():.12g}"
            )


# -- Renyi powers ---------------------------------------------------------


def _support_leak(rho: HermitianOperator, sigma: HermitianOperator):
    """Mass of each ``rho`` outside the support of its ``sigma``, relative to the pair.

    The mass is ``tr(P_ker rho)``, over the larger of ``tr rho`` and
    ``tr sigma``.  The kernel of ``sigma`` spans its eigenvalues at most
    ``KERNEL_CUT`` times the largest, so a block far smaller than its
    marginal may lie in it whole; over ``tr sigma``, its mass is below the
    cut.  When no ``sigma`` has a kernel, nothing can leak.
    """
    w, v = sigma._eig()
    kernel = np.abs(w) <= KERNEL_CUT * np.abs(w[..., :1])
    if not _any(kernel):
        return 0.0
    # Not ``||P_ker rho||_F``: that norm scales as the square root of the
    # mass, so roundoff mass of 1e-16 reads as 1e-8.
    kernel_part = _from_spectrum(kernel.astype(float), v) @ rho.matrix
    leak = np.real(np.trace(kernel_part, axis1=-2, axis2=-1))
    scale = np.maximum(rho.trace(), sigma.trace())
    return np.divide(leak, scale, out=np.zeros_like(leak), where=scale > 0.0)


class _Geometry(NamedTuple):
    """The order-free support data of ``(rho, sigma)`` pairs (see :func:`renyi_power`)."""

    rho: HermitianOperator
    sigma: HermitianOperator
    # Whether each rho is nonzero.
    live: np.ndarray
    # Each rho's clipped support eigenvalues ``lam[..., :r]`` and its top r
    # eigenvectors in sigma's eigenbasis; None when no rho is live.
    lam: np.ndarray | None
    C: np.ndarray | None


def _support_geometry(rho, sigma, support=None) -> _Geometry:
    """Decompose and check each ``(rho, sigma)`` pair for :func:`_renyi_on_support`.

    Raises the support errors of :func:`renyi_power`; the arrays it keeps
    are read-only, so one geometry serves any number of orders and kinds.
    ``support``, when given, is each ``rho``'s known ``(lam, E)``: its
    largest clipped eigenvalues, descending along the last axis of ``lam``,
    and their eigenvectors as the columns of ``E``.  It stands in for
    ``rho``'s decomposition and passes the same checks.
    """
    rho = _as_operator(rho)
    sigma = _as_operator(sigma)
    if rho.dim != sigma.dim:
        raise ValueError("operands must share dimension")
    # Each rho's support: its eigenvalues above ``KERNEL_CUT`` times the largest.
    lam = rho.psd_eigenvalues() if support is None else support[0]
    on = lam > KERNEL_CUT * lam[..., :1]
    live = on.any(axis=-1)
    dead_sigma = _norms(sigma.eigenvalues) <= 0.0
    if not _any(live):
        return _Geometry(rho, sigma, live, None, None)
    bad = live & dead_sigma
    if _any(bad):
        raise ValueError(
            f"sigma = 0 with rho != 0{_where(_first(bad))} violates support containment"
        )
    leak = _support_leak(rho, sigma)
    bad = leak > SUPPORT_TOL
    if _any(bad):
        i = _first(bad)
        raise ValueError(
            f"support of rho leaks outside support of sigma{_where(i)}: "
            f"relative mass {leak[i]:.3e} > {SUPPORT_TOL:.0e}"
        )

    r = int(on.sum(axis=-1).max())
    lam = (lam * on)[..., :r]
    # The support vectors in sigma's eigenbasis.
    E = rho.eigenvectors if support is None else support[1]
    C = _dagger(sigma.eigenvectors) @ E[..., :r]
    lam.setflags(write=False)
    C.setflags(write=False)
    return _Geometry(rho, sigma, live, lam, C)


def _renyi_on_support(geometry: _Geometry, order: RenyiOrder, kind: str, normalized: bool):
    """The Renyi powers of the pairs whose geometry is given (see :func:`renyi_power`)."""
    if kind not in ("sandwiched", "petz"):
        raise ValueError(f"unknown kind {kind!r}")
    alpha, beta = order.alpha, order.beta
    if kind == "petz" and alpha > 2.0 + 1e-12:
        raise ValueError("petz powers are only supported for alpha <= 2")
    rho, sigma, live, lam, C = geometry
    if lam is None:
        # Both-zero and rho-zero cases are defined as 0.
        shape = np.broadcast_shapes(live.shape, sigma.eigenvalues.shape[:-1])
        return _per_matrix(np.zeros(shape))
    if kind == "sandwiched":
        s = sigma._on_support(lambda w: w ** (-beta / (2.0 * alpha)))
        Z = C * (s[..., :, None] * np.sqrt(lam)[..., None, :])
        if lam.shape[-1] == 1:
            # One support vector: Z* Z is 1 x 1, its eigenvalue sum |Z|^2.
            w = np.square(np.abs(Z)).sum(axis=-2)
        else:
            # Z* Z is Hermitian up to roundoff, so it is symmetrized rather than checked.
            w = HermitianOperator(_hermitian_part(_dagger(Z) @ Z)).psd_eigenvalues()
        value = (w**alpha).sum(axis=-1)
    else:
        s = sigma._on_support(lambda w: w**-beta)
        value = (lam**alpha * (np.square(np.abs(C)) * s[..., :, None]).sum(axis=-2)).sum(axis=-1)
    if normalized:
        value = value / np.where(live, rho.trace(), 1.0)
    return _per_matrix(value)


def renyi_power(
    rho,
    sigma,
    order: RenyiOrder,
    kind: str = "sandwiched",
    normalized: bool = False,
):
    """Renyi power of ``rho`` relative to ``sigma`` at order ``alpha``.

    Parameters
    ----------
    rho, sigma : HermitianOperator or array_like
        Positive semidefinite operators, or stacks ``(..., d, d)`` of them
        whose stack axes broadcast against each other; each pair is
        evaluated on its own.  The support of each ``rho`` must be contained
        in the support of its ``sigma`` to relative tolerance
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
    float or ndarray
        The power of each pair over the broadcast stack axes (a float for
        one pair); ``0`` where ``rho = 0``.

    Notes
    -----
    Both kinds are evaluated on the support of each ``rho``, from the
    spectrum that its positivity check computed.  With ``r`` the largest
    support rank in the stack (eigenvalues above ``KERNEL_CUT`` times the
    largest), each ``rho`` is ``E diag(lam) E*`` over its top ``r``
    eigenvectors, ``lam`` zero past its own rank.  The sandwiched power is
    ``sum w^alpha`` over the eigenvalues ``w`` of the ``r x r`` matrix
    ``diag(lam)^(1/2) E* sigma^{-beta/alpha} E diag(lam)^(1/2)``, which
    shares its nonzero spectrum with the sandwiched product; the Petz power
    is ``sum_i lam_i^alpha E_i* sigma^{-beta} E_i``.  Both are taken in
    ``sigma``'s eigenbasis, where its powers are diagonal: the ``r x r``
    matrix is ``Z* Z`` with ``Z = sigma^{-beta/(2 alpha)} E diag(lam)^(1/2)``.
    No ``d x d`` product is decomposed and no power of either operand is
    formed as a matrix: a full-rank ``rho`` costs a ``d x d`` eigenvalue
    problem, as the product did, and when ``r`` is 1 the ``1 x 1`` matrix
    ``Z* Z`` is its own eigenvalue, ``sum |Z|^2``, so nothing is decomposed.

    The work splits in two steps.  The first builds what no order changes:
    the clipped spectra, the ``rho = 0`` and ``sigma = 0`` cases, the
    support-containment check, ``r``, ``lam`` and ``C = V* E`` with ``V``
    the eigenvectors of ``sigma``.  The second takes that geometry with an
    order and a kind, and returns the powers.  A :class:`CqDistribution`
    keeps the first step's result for its blocks against its marginals, so
    a state checked at many orders decomposes and checks its support once;
    one built from rank-one blocks gives the first step their supports, so
    it decomposes no block.
    The kind and order are checked in the second step, after the operands.
    """
    return _renyi_on_support(_support_geometry(rho, sigma), order, kind, normalized)


# -- entropies ------------------------------------------------------------


def conditional_entropy(rho: CqDistribution) -> float:
    """Conditional von Neumann entropy of outcomes given inputs, in nats.

    Evaluates ``-sum_cz [tr rho(cz) log rho(cz) - tr rho(cz) log rho(z)]``
    for a normalized distribution; block supports sit inside the marginal
    supports automatically.
    """
    rho.require_normalized("conditional_entropy")
    w = rho.blocks.psd_eigenvalues()
    on = w > KERNEL_CUT * w[..., :1]
    own = (w * np.log(np.where(on, w, 1.0))).sum()
    cross = np.real(np.trace(
        rho.blocks.matrix @ rho.marginals.support_log(), axis1=-2, axis2=-1
    )).sum()
    return -float(own - cross)
