"""Shared fixtures: reference tables and certified factors built once."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qpe.models import (
    BellConfig,
    CanonicalState,
    bits_of,
    canonical_cq_state,
    family_distribution,
)
from qpe.pef_opt import optimize_pef_polytope
from qpe.qef_engine import certify_fmax
from qpe.quantum_core import HermitianOperator


@pytest.fixture(scope="session")
def nu_e():
    """Singlet-like table at the maximal-violation angle, uniform inputs."""
    return family_distribution("E", math.pi / 4.0, seed=0)


@pytest.fixture(scope="session")
def config22():
    """Two stations, reference angles zero, uniform inputs."""
    return BellConfig.uniform((0.0, 0.0))


@pytest.fixture(scope="session")
def pef02(nu_e):
    """Optimized polytope factor at power 0.02 together with its rate."""
    return optimize_pef_polytope(nu_e, 0.02)


@pytest.fixture(scope="session")
def cert02(pef02, config22):
    """Supremum bracket for the power-0.02 factor over quantum realizations."""
    F, _ = pef02
    return certify_fmax(F, config22, 1e-3, seed=0)


@pytest.fixture(scope="session")
def qef02(pef02, cert02):
    """The power-0.02 factor rescaled into the model by its certified supremum."""
    F, _ = pef02
    return F.scaled(1.0 / cert02.f_upper, role="qef")


@pytest.fixture(scope="session")
def canonical_sampler():
    """Factory for random canonical-model states at random angles."""

    def make(rng: np.random.Generator, k: int = 2):
        angles = tuple(rng.uniform(0.0, math.pi, size=k))
        config = BellConfig.uniform(angles)
        d = 1 << k
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        tau = a @ a.conj().T
        tau /= np.trace(tau).real
        return canonical_cq_state(CanonicalState(config, HermitianOperator(tau)))

    return make


def _station_vector(c: int, z: int, phi: float) -> np.ndarray:
    """Unit vector for outcome ``c`` of setting ``z`` at one station: setting 0
    measures at angle 0, setting 1 at ``phi``."""
    angle = 0.0 if z == 0 else phi
    v = np.array([math.cos(angle / 2.0), math.sin(angle / 2.0)])
    return v if c == 0 else np.array([-v[1], v[0]])


@pytest.fixture(scope="session")
def povm_vector():
    """Reference product-projector vector: the ``np.kron`` chain of stations."""

    def make(config: BellConfig, c: int, z: int) -> np.ndarray:
        cb, zb = bits_of(c, config.k), bits_of(z, config.k)
        v = np.array([1.0])
        for i in range(config.k):
            v = np.kron(v, _station_vector(cb[i], zb[i], config.angles[i]))
        return v

    return make
