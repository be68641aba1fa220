"""Executable randomness-generation protocols built on estimation factors.

A protocol fixes a factor, a trial count, an output length and an error
budget, splits the error between certification and extraction, and runs a
threshold test on the accumulated log factor: crossing the threshold
certifies enough conditional min-entropy in the outcome bits to drive a
seeded extractor.  Three variants are provided: plain (may fail), banked
(never fails, topping up any certification shortfall from a reserve of
fresh bits), and input-crediting (accounts for partially deterministic
input choices).

Records are ``(n, 2)`` int64 arrays of ``(c, z)`` rows from end to end.
They are read from ``.npy`` files or from JSON lines.  A JSON-lines file in
exactly the format ``write_records`` writes for single-digit values is read
as bytes and checked against that line's template; any other file is parsed
in chunks by ``json.loads``, which alone gives the values of other formats
and the errors that name a malformed line.  The threshold test is one
``cumsum`` over a table of log factors, and the Toeplitz hash is a sum mod
2 of blocked FFT convolutions, each block checked against its rounding
error and recomputed by exact window sums if that check fails.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
from numpy.typing import ArrayLike

from .accounting import _log2_offset
from .models import TrialDistribution
from .qef_engine import TrialFunction, _as_records, chain

# Smallest FFT length of a Toeplitz hash block: bounds the FFT's memory and
# keeps its rounding error far below one half.
_FFT_BLOCK = 1 << 15
# Lines per ``json.loads`` call, or per byte-template check, when reading
# JSON-lines records.
_CHUNK_LINES = 4096


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
    against the reversed seed window ``seed[j : j + len(input)]``.

    Each block's integer products with its seed segment are read from one
    real FFT convolution, rounded with ``rint`` and reduced mod 2, and the
    blocks' parities are summed mod 2.  The FFT length is the larger of
    ``2**15`` and the smallest power of two above ``2 * k_o - 2``, and a
    block holds as many input bits as that FFT can convolve with their
    ``m + k_o - 1`` seed bits without wrap-around: the FFT length less
    ``k_o - 1``, so at least ``k_o``.  A last, shorter block gets the
    shortest such FFT.  The sums are below the block length, so the float
    rounding error is about 1e-10; a block whose largest error reaches 0.25
    is recomputed by exact integer window sums instead.
    """
    seed = np.asarray(seed_bits)
    data = np.asarray(input_bits)
    n_in = data.size
    if seed.size != n_in + k_o - 1:
        raise ValueError(
            f"seed length must be {n_in + k_o - 1}, got {seed.size}"
        )
    out = np.zeros(k_o, dtype=np.int64)
    block = max(_FFT_BLOCK, 1 << (2 * k_o - 2).bit_length()) - k_o + 1
    for start in range(0, n_in, block):
        stop = min(start + block, n_in)
        m = stop - start
        # A circular convolution at least as long as the segment leaves
        # the k_o entries read below free of wrap-around.
        size = 1 << (m + k_o - 2).bit_length()
        # Output j of this block is conv(segment, block)[m - 1 + j].
        segment = seed[n_in - stop : n_in - start + k_o - 1].astype(np.int64) & 1
        piece = data[start:stop].astype(np.int64) & 1
        conv = np.fft.irfft(
            np.fft.rfft(segment, size) * np.fft.rfft(piece, size), size
        )[m - 1 : m - 1 + k_o]
        sums = np.rint(conv)
        if np.abs(conv - sums).max() < 0.25:
            out ^= sums.astype(np.int64) & 1
        else:
            windows = np.lib.stride_tricks.sliding_window_view(segment, m)
            out ^= (windows[:, ::-1] @ piece) & 1
    return out


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
    ``k_z`` credits input-side randomness already spent (zero for the plain
    protocol).
    ``F`` must be a certified factor, of role ``qef`` or ``qefp``.
    """

    F: TrialFunction
    n: int
    k_o: int
    epsilon: float
    epsilon_x: float
    k_z: int = 0

    def __post_init__(self) -> None:
        _require_certified(self.F)
        if self.n < 1 or self.k_o < 1:
            raise ValueError("trial count and output length must be positive")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("total error must lie in (0, 1)")
        if not (0.0 < self.epsilon_x < self.epsilon):
            raise ValueError("extractor error must lie in (0, epsilon)")
        if self.k_z < 0:
            raise ValueError("input credit must be nonnegative")

    @property
    def k_i(self) -> int:
        """The extractor's input min-entropy demand."""
        return toeplitz_min_ki(self.k_o, self.epsilon_x)

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
        return self.beta * -self.log2_p + _log2_offset(self.epsilon_h)

    @property
    def n_input_bits(self) -> int:
        return self.F.stations * self.n

    def seed_length(self, banked: bool = False) -> int:
        n_in = self.n_input_bits + (self.k_o if banked else 0)
        return n_in + self.k_o - 1


def design_params(
    F: TrialFunction,
    n: int,
    k_o: int,
    epsilon: float,
    k_z: int = 0,
) -> ProtocolParams:
    """Split the error budget to minimize the certification threshold.

    Scans extractor errors on a 256-point log grid over ``(0, epsilon)``;
    each choice fixes the input-entropy demand and hence the threshold.
    Returns the cheapest parameter set; invalid arguments raise ValueError.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("total error must lie in (0, 1)")
    _require_certified(F)
    cands = (
        ProtocolParams(F=F, n=n, k_o=k_o, epsilon=epsilon, epsilon_x=float(eps_x), k_z=k_z)
        for eps_x in np.geomspace(epsilon * 1e-9, epsilon * (1.0 - 1e-6), 256)
    )
    return min(cands, key=lambda cand: cand.log2_f_min)


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Outcome of one run: the decision, output bits, and accounting."""

    success: bool
    bits: np.ndarray | None
    log2_f: float
    trials_used: int
    params: ProtocolParams
    bank_used: int = 0


def _accumulate(params: ProtocolParams, records: ArrayLike):
    """Threshold accumulation with early stopping.

    Once the threshold is crossed the sum is frozen (the decision is a
    stopping rule) but outcome bits keep being collected for extraction.
    The running sums are :func:`chain` over the first ``n`` records, which
    checks every one of them, after the crossing as well.
    """
    records = _as_records(records)
    n, k = params.n, params.F.stations
    if len(records) < n:
        raise ValueError(f"need {n} records, got {len(records)}")
    running = chain(params.F, records[:n])
    threshold = params.log2_f_min
    first = int(np.argmax(running >= threshold))
    crossed = bool(running[first] >= threshold)
    last = first if crossed else n - 1
    # c fits in k bits, so the smallest unsigned type holds it and its bits.
    small = records[:n, 0].astype(np.min_scalar_type((1 << k) - 1))
    cbits = ((small[:, None] >> np.arange(k, dtype=small.dtype)) & 1).ravel()
    return crossed, float(running[last]), last + 1, cbits


def run_protocol1(
    params: ProtocolParams,
    records: ArrayLike,
    seed_bits: np.ndarray,
) -> ProtocolResult:
    """Plain threshold protocol: extract on success, fail otherwise."""
    if params.k_z != 0:
        raise ValueError("the plain protocol takes no input credit")
    return run_protocol3(params, records, seed_bits)


def run_protocol3(
    params: ProtocolParams,
    records: ArrayLike,
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
    records: ArrayLike,
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
    slots = np.zeros(params.k_o, dtype=cbits.dtype)
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
) -> np.ndarray:
    """Draw ``n`` independent trial records from a joint table.

    Returns an ``(n, 2)`` int64 array of ``(c, z)`` rows.
    """
    probs = nu.joint.ravel()
    idx = rng.choice(probs.size, size=n, p=probs / probs.sum())
    return np.stack(np.divmod(idx, nu.joint.shape[1]), axis=1)


def _parse_lines(lines: list[str]) -> np.ndarray:
    """Records of non-blank JSON lines, parsed by one ``json.loads``.

    The values go through ``int()`` as ``np.fromiter`` converts them.
    Raises ValueError when the text is not exactly one record per line.
    """
    try:
        objs = json.loads("[" + ",".join(lines) + "]")
        if len(objs) != len(lines):
            raise ValueError("more than one JSON value on a line")
        return np.stack(
            [np.fromiter(map(itemgetter(key), objs), np.int64, len(objs))
             for key in ("c", "z")],
            axis=1,
        )
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise ValueError(f"{type(exc).__name__}: {exc}") from exc


def _bad_line(path: str, chunk: list[str], first: int) -> ValueError | None:
    """The error for the first line of ``chunk`` that is not one record."""
    for lineno, line in enumerate(chunk, first):
        if line.isspace():
            continue
        try:
            _parse_lines([line])
        except ValueError as exc:
            return ValueError(
                f"{path} line {lineno}: not a {{\"c\": int, \"z\": int}} "
                f"record ({exc}): {line.strip()[:80]!r}"
            )
    return None


def _read_canonical(path: str) -> np.ndarray | None:
    """Records of a file whose every line is ``write_records``' line for
    single-digit values, or None.

    Such a line is ``json.dumps({"c": D, "z": D})`` and a newline, 17 bytes
    whose two digit columns are read as ``byte - 48``.  The file is read
    about 4096 lines at a time as bytes, and each line is checked against
    that template, the digit columns against ``0`` to ``9``.  Returns None,
    having read nothing, for a path that is not a regular file (a pipe has
    no size) or whose size is not a whole number of lines; and at the first
    byte that does not fit.
    """
    line = np.frombuffer((json.dumps({"c": 0, "z": 0}) + "\n").encode(), np.uint8)
    # Largest allowed byte - template byte per column, as uint8 (a byte
    # below the template's wraps round to a large value).
    limit = np.where(line == ord("0"), 9, 0).astype(np.uint8)
    digits = np.flatnonzero(limit)
    if not os.path.isfile(path):
        return None
    n, extra = divmod(os.path.getsize(path), line.size)
    if extra:
        return None
    records = np.empty((n, 2), dtype=np.int64)
    with open(path, "rb") as fh:
        for start in range(0, n, _CHUNK_LINES):
            count = min(_CHUNK_LINES, n - start)
            chunk = np.frombuffer(fh.read(count * line.size), np.uint8)
            if chunk.size != count * line.size:
                return None
            rows = chunk.reshape(count, line.size) - line
            if (rows > limit).any():
                return None
            records[start : start + count] = rows[:, digits]
    return records


def _read_jsonl(path: str) -> np.ndarray:
    chunks = [np.empty((0, 2), dtype=np.int64)]
    with open(path) as fh:
        first = 1
        while chunk := list(itertools.islice(fh, _CHUNK_LINES)):
            lines = [line for line in chunk if not line.isspace()]
            try:
                chunks.append(_parse_lines(lines))
            except ValueError as exc:
                raise _bad_line(path, chunk, first) or exc from None
            first += len(chunk)
    return np.concatenate(chunks)


def read_records(path: str) -> np.ndarray:
    """Read trial records as an ``(n, 2)`` int64 array of ``(c, z)`` rows.

    A path ending in ``.npy`` is loaded with ``np.load`` (no pickles) and
    must hold an ``(n, 2)`` integer array.  Any other path is JSON lines,
    one ``{"c": ..., "z": ...}`` object per line in any key order, blank
    lines skipped and the values taken through ``int()``.

    A file in exactly the format ``write_records`` writes for values 0 to
    9 (every line ``{"c": D, "z": D}`` and a newline) is read as bytes,
    with no ``json.loads``.  At the first byte that does not fit that
    format (a size that is not a whole number of 17-byte lines, a blank
    line, CRLF, other spacing or key order, extra keys, a value of more
    than one digit, a last line without its newline) the file is parsed
    again from its start as below, so the values and the errors are those
    of the parse below; the bytes before that point are read twice.

    The lines are parsed about 4096 at a time by one ``json.loads`` whose
    object count must equal the line count; a chunk that fails is parsed
    again line by line, and the ValueError raised names the first bad line
    (1-based).  The count check alone lets one record span two lines when
    another line of the same chunk holds two records; every record read is
    still one ``{"c", "z"}`` object of the file.
    """
    if not path.endswith(".npy"):
        records = _read_canonical(path)
        return _read_jsonl(path) if records is None else records
    arr = np.load(path, allow_pickle=False)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
        raise ValueError(
            f"{path}: records must be an (n, 2) integer array, got shape "
            f"{arr.shape} of dtype {arr.dtype}"
        )
    return arr.astype(np.int64, copy=False)


def write_records(path: str, records: ArrayLike) -> None:
    """Write records to ``.npy`` (by suffix) or as JSON lines.

    A JSON line is ``json.dumps({"c": c, "z": z})``; each distinct cell is
    formatted once and the file is written in one call.
    """
    arr = _as_records(records)
    if path.endswith(".npy"):
        np.save(path, arr)
        return
    cells, inverse = np.unique(arr, axis=0, return_inverse=True)
    lines = np.array(
        [json.dumps({"c": int(c), "z": int(z)}) + "\n" for c, z in cells],
        dtype=object,
    )
    with open(path, "w") as fh:
        fh.write("".join(lines[inverse.ravel()].tolist()))
