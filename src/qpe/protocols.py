"""Executable randomness-generation protocols built on estimation factors.

A protocol fixes a factor, a trial count, an output length and an error
budget, splits the error between certification and extraction, and runs a
threshold test on the accumulated log factor: crossing the threshold
certifies enough conditional min-entropy in the outcome bits to drive a
seeded extractor.  Three variants are provided: plain (may fail), banked
(never fails, topping up any certification shortfall from a reserve of
fresh bits), and input-crediting (accounts for partially deterministic
input choices).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .models import TrialDistribution, bits_of
from .qef_engine import TrialFunction


def toeplitz_min_ki(k_o: int, epsilon_x: float) -> int:
    """Input min-entropy needed to extract ``k_o`` bits at error ``epsilon_x``."""
    if k_o < 1:
        raise ValueError("output length must be positive")
    if not (0.0 < epsilon_x < 1.0):
        raise ValueError("extractor error must lie in (0, 1)")
    return k_o + math.ceil(2.0 * math.log2(1.0 / epsilon_x)) + 1


def toeplitz_extract(
    seed_bits: np.ndarray, input_bits: np.ndarray, k_o: int
) -> np.ndarray:
    """Multiply the input by the seeded Toeplitz matrix over GF(2).

    The seed supplies the matrix's first column and row (length
    ``len(input) + k_o - 1``); output bit ``j`` is the parity of the input
    against the reversed seed window ``seed[j : j + len(input)]``, so only
    the ``k_o`` needed sums are formed.
    """
    seed = np.asarray(seed_bits, dtype=np.int64) & 1
    data = np.asarray(input_bits, dtype=np.int64) & 1
    n_in = data.size
    if seed.size != n_in + k_o - 1:
        raise ValueError(
            f"seed length must be {n_in + k_o - 1}, got {seed.size}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(seed, n_in)
    return (windows[:, ::-1] @ data) & 1


def _require_certified(F: TrialFunction) -> None:
    """Reject a factor whose role does not say its supremum is certified."""
    if F.role not in ("qef", "qefp"):
        raise ValueError(
            f"protocols need a certified factor of role 'qef' or 'qefp', got "
            f"role {F.role!r}; rescale it by its certified supremum first"
        )


@dataclass(frozen=True)
class ProtocolParams:
    """Immutable description of one protocol run.

    ``epsilon`` is the total soundness error, split into the extractor's
    share ``epsilon_x`` and the certification share ``epsilon - epsilon_x``.
    ``k_i`` is the extractor's input min-entropy demand and ``k_z`` credits
    input-side randomness already spent (zero for the plain protocol).
    ``F`` must be a certified factor, of role ``qef`` or ``qefp``.
    """

    F: TrialFunction
    n: int
    k_o: int
    epsilon: float
    epsilon_x: float
    k_i: int
    k_z: int = 0
    k: int = 2

    def __post_init__(self) -> None:
        _require_certified(self.F)
        if self.n < 1 or self.k_o < 1 or self.k < 1:
            raise ValueError("trial count, output length, stations must be positive")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("total error must lie in (0, 1)")
        if not (0.0 < self.epsilon_x < self.epsilon):
            raise ValueError("extractor error must lie in (0, epsilon)")
        if self.k_z < 0:
            raise ValueError("input credit must be nonnegative")
        if self.k_i < toeplitz_min_ki(self.k_o, self.epsilon_x):
            raise ValueError("input entropy demand below the extractor's need")

    @property
    def beta(self) -> float:
        return float(self.F.beta)

    @property
    def alpha(self) -> float:
        return 1.0 + self.beta

    @property
    def epsilon_h(self) -> float:
        return self.epsilon - self.epsilon_x

    @property
    def log2_p(self) -> float:
        """Log target probability; powers above 2 pay an error surcharge."""
        base = -float(self.k_i + self.k_z)
        if self.alpha > 2.0:
            base += (self.alpha - 2.0) / self.beta * math.log2(self.epsilon)
        return base

    @property
    def log2_f_min(self) -> float:
        """Threshold on the accumulated log factor (bits)."""
        delta = self.epsilon_h**2 / 2.0
        return -self.beta * self.log2_p - math.log2(delta)

    @property
    def n_input_bits(self) -> int:
        return self.k * self.n

    def seed_length(self, banked: bool = False) -> int:
        n_in = self.n_input_bits + (self.k_o if banked else 0)
        return n_in + self.k_o - 1


def design_params(
    F: TrialFunction,
    n: int,
    k_o: int,
    epsilon: float,
    k_z: int = 0,
    k: int = 2,
) -> ProtocolParams | None:
    """Split the error budget to minimize the certification threshold.

    Scans extractor errors on a 256-point log grid over ``(0, epsilon)``;
    each choice fixes the input-entropy demand and hence the threshold.
    Returns the cheapest feasible parameter set, or None when no split
    works.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("total error must lie in (0, 1)")
    _require_certified(F)
    best: ProtocolParams | None = None
    for eps_x in np.geomspace(epsilon * 1e-9, epsilon * (1.0 - 1e-6), 256):
        eps_x = float(eps_x)
        k_i = toeplitz_min_ki(k_o, eps_x)
        try:
            cand = ProtocolParams(
                F=F, n=n, k_o=k_o, epsilon=epsilon, epsilon_x=eps_x,
                k_i=k_i, k_z=k_z, k=k,
            )
        except ValueError:
            continue
        if best is None or cand.log2_f_min < best.log2_f_min:
            best = cand
    return best


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Outcome of one run: the decision, output bits, and accounting."""

    success: bool
    bits: np.ndarray | None
    log2_f: float
    trials_used: int
    params: ProtocolParams
    bank_used: int = 0


def _accumulate(params: ProtocolParams, records: Sequence[tuple[int, int]]):
    """Threshold accumulation with early stopping.

    Once the threshold is crossed the sum is frozen (the decision is a
    stopping rule) but outcome bits keep being collected for extraction.
    """
    if len(records) < params.n:
        raise ValueError(f"need {params.n} records, got {len(records)}")
    threshold = params.log2_f_min
    log2_f = 0.0
    crossed = False
    trials_used = params.n
    cbits = np.empty(params.n * params.k, dtype=np.int64)
    for i, (c, z) in enumerate(records[: params.n]):
        cbits[i * params.k : (i + 1) * params.k] = bits_of(c, params.k)
        if crossed:
            continue
        try:
            val = params.F.value(c, z)
        except KeyError:
            raise ValueError(f"record ({c}, {z}) outside the factor's domain")
        log2_f = -math.inf if val == 0.0 else log2_f + math.log2(val)
        if log2_f >= threshold:
            crossed = True
            trials_used = i + 1
    return crossed, log2_f, trials_used, cbits


def run_protocol1(
    params: ProtocolParams,
    records: Sequence[tuple[int, int]],
    seed_bits: np.ndarray,
) -> ProtocolResult:
    """Plain threshold protocol: extract on success, fail otherwise."""
    if params.k_z != 0:
        raise ValueError("the plain protocol takes no input credit")
    return run_protocol3(params, records, seed_bits)


def run_protocol3(
    params: ProtocolParams,
    records: Sequence[tuple[int, int]],
    seed_bits: np.ndarray,
) -> ProtocolResult:
    """Input-crediting variant; with zero credit it reproduces the plain run."""
    crossed, log2_f, trials_used, cbits = _accumulate(params, records)
    bits = None
    if crossed:
        bits = toeplitz_extract(seed_bits, cbits, params.k_o)
    return ProtocolResult(
        success=crossed,
        bits=bits,
        log2_f=log2_f,
        trials_used=trials_used,
        params=params,
    )


def run_protocol2(
    params: ProtocolParams,
    records: Sequence[tuple[int, int]],
    seed_bits: np.ndarray,
    bank_bits: np.ndarray,
) -> ProtocolResult:
    """Banked protocol: never fails.

    Any certification shortfall, in bits, is covered by appending that many
    reserve bits to the extractor input; if the shortfall exceeds the output
    length the reserve itself is returned (no expansion, but still sound).
    """
    bank = np.asarray(bank_bits, dtype=np.int64) & 1
    if bank.size != params.k_o:
        raise ValueError(f"bank must hold {params.k_o} bits, got {bank.size}")
    crossed, log2_f, trials_used, cbits = _accumulate(params, records)
    if crossed:
        k_b = 0
    else:
        deficit = (params.log2_f_min - log2_f) / params.beta
        k_b = math.ceil(deficit) if math.isfinite(deficit) else params.k_o
    if k_b >= params.k_o:
        return ProtocolResult(
            success=True,
            bits=bank.copy(),
            log2_f=log2_f,
            trials_used=trials_used,
            params=params,
            bank_used=params.k_o,
        )
    slots = np.zeros(params.k_o, dtype=np.int64)
    slots[:k_b] = bank[:k_b]
    data = np.concatenate([cbits, slots])
    bits = toeplitz_extract(seed_bits, data, params.k_o)
    return ProtocolResult(
        success=True,
        bits=bits,
        log2_f=log2_f,
        trials_used=trials_used,
        params=params,
        bank_used=k_b,
    )


def sample_records(
    nu: TrialDistribution, n: int, rng: np.random.Generator
) -> list[tuple[int, int]]:
    """Draw ``n`` independent trial records from a joint table."""
    keys = sorted(nu.probs)
    probs = np.array([nu.probs[k] for k in keys])
    probs = probs / probs.sum()
    idx = rng.choice(len(keys), size=n, p=probs)
    return [keys[i] for i in idx]


def read_records(path: str) -> list[tuple[int, int]]:
    """Read trial records from JSON-lines: one ``{"c": ..., "z": ...}`` per line."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            out.append((int(obj["c"]), int(obj["z"])))
    return out


def write_records(path: str, records: Iterable[tuple[int, int]]) -> None:
    with open(path, "w") as fh:
        for c, z in records:
            fh.write(json.dumps({"c": int(c), "z": int(z)}) + "\n")
