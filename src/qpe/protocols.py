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
as bytes and checked eight bytes at a time against that line's template;
any other file is parsed in chunks by ``json.loads``, which alone gives the
values of other formats and the errors that name a malformed line.  The
threshold test is one ``cumsum`` over a table of log factors, and the
Toeplitz hash is a sum mod 2 of FFT convolutions over blocks of one short
FFT length, batched eight blocks to a group: each group is inverted once,
checked against its rounding error and recomputed by exact window sums if
that check fails.
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

# Least FFT length of a Toeplitz hash block, and blocks per batched FFT: a
# group's arrays stay about L2-sized and its rounding error far below one
# half.
_FFT_MIN = 1 << 12
_FFT_GROUP = 8
# Lines per ``json.loads`` call, or per byte-template check, when reading
# JSON-lines records: a multiple of 8, since 8 template lines are 17 words.
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

    The input is cut into blocks that share one FFT length: the smallest
    power of two of at least ``max(2**12, 4 * k_o)``, or the shortest one
    block needs (a power of two of at least ``len(input) + k_o - 1``) if
    that is shorter.  A block holds that length less ``k_o - 1`` input bits,
    the most its ``m + k_o - 1`` seed bits convolve with free of
    wrap-around, so at least three quarters of the FFT; the last block is
    padded with zeros.  The blocks go in groups of ``_FFT_GROUP``: each
    group's seed segments and input pieces are transformed by one batched
    real FFT each, their spectrum products summed and inverted once, and
    the group's window sums read off, rounded with ``rint`` and reduced
    mod 2.  The sums are below the group's input length, so the float
    rounding error stays far below one half; a group whose largest error
    reaches 0.25 is recomputed by exact integer window sums instead.  The bits are
    taken as ``astype(np.int64) & 1`` one group at a time, so no float copy
    of the whole input is made.
    """
    seed = np.asarray(seed_bits)
    data = np.asarray(input_bits)
    n_in = data.size
    if seed.size != n_in + k_o - 1:
        raise ValueError(
            f"seed length must be {n_in + k_o - 1}, got {seed.size}"
        )
    out = np.zeros(k_o, dtype=np.int64)
    size = min(
        1 << (max(_FFT_MIN, 4 * k_o) - 1).bit_length(),
        1 << (max(n_in, 1) + k_o - 2).bit_length(),
    )
    m = size - k_o + 1
    blocks = -(-n_in // m)
    for first in range(0, blocks, _FFT_GROUP):
        g = min(_FFT_GROUP, blocks - first)
        # Block b holds data[b*m : (b+1)*m] and is convolved with
        # seed[n_in - (b+1)*m : n_in - b*m + k_o - 1]; row i of the group's
        # pieces is block first + g - 1 - i, so its segment is window i of
        # the group's seed range.
        lo = first * m
        pieces = _padded_bits(data, lo, lo + g * m).reshape(g, m)[::-1]
        span = _padded_bits(seed, n_in - lo - g * m, n_in - lo + k_o - 1)
        segments = np.lib.stride_tricks.sliding_window_view(span, size)[::m]
        # Output j of every block is conv(segment, piece)[m - 1 + j].
        spectrum = (
            np.fft.rfft(segments, axis=1) * np.fft.rfft(pieces, size, axis=1)
        ).sum(axis=0)
        conv = np.fft.irfft(spectrum, size)[m - 1 : m - 1 + k_o]
        sums = np.rint(conv)
        if not np.abs(conv - sums).max() < 0.25:
            sums = _window_sums(segments, pieces)
        out ^= sums.astype(np.int64) & 1
    return out


def _padded_bits(bits: np.ndarray, start: int, stop: int) -> np.ndarray:
    """``bits[start:stop].astype(np.int64) & 1`` as float64, zero where the
    range leaves ``bits``."""
    out = np.zeros(stop - start)
    lo, hi = max(start, 0), min(stop, bits.size)
    out[lo - start : hi - start] = bits[lo:hi].astype(np.int64) & 1
    return out


def _window_sums(segments: np.ndarray, pieces: np.ndarray) -> np.ndarray:
    """A group's integer window sums, exactly: summed over its blocks, each
    piece against the reversed windows of its segment."""
    windows = np.lib.stride_tricks.sliding_window_view(segments, pieces.shape[1], axis=1)
    return np.einsum("bjm,bm->j", windows[:, :, ::-1], pieces)


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
    def epsilon_h(self) -> float:
        return self.epsilon - self.epsilon_x

    @property
    def log2_p(self) -> float:
        """Log target probability; powers above 2 pay an error surcharge."""
        return _log2_p(self.beta, self.k_i + self.k_z, self.epsilon)

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


def _log2_p(beta: float, k: int, epsilon: float) -> float:
    """:attr:`ProtocolParams.log2_p` at an entropy demand of ``k`` bits."""
    base, alpha = -float(k), 1.0 + beta
    if alpha > 2.0:
        base += (alpha - 2.0) / beta * math.log2(epsilon)
    return base


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
    Builds only the first cheapest parameter set; invalid arguments raise
    ValueError.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("total error must lie in (0, 1)")
    _require_certified(F)
    beta = float(F.beta)
    eps_x = min(
        np.geomspace(epsilon * 1e-9, epsilon * (1.0 - 1e-6), 256).tolist(),
        key=lambda e: beta * -_log2_p(beta, toeplitz_min_ki(k_o, e) + k_z, epsilon)
        + _log2_offset(epsilon - e),
    )
    return ProtocolParams(F=F, n=n, k_o=k_o, epsilon=epsilon, epsilon_x=eps_x, k_z=k_z)


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
    cbits = np.empty((n, k), dtype=small.dtype)
    for i in range(k):
        np.bitwise_and(small >> i, 1, out=cbits[:, i])
    return crossed, float(running[last]), last + 1, cbits.ravel()


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
    about 4096 lines at a time into one reused buffer, and each chunk is
    checked eight bytes at a time, as ``uint64`` words against the line
    template tiled over it (eight lines are 17 words): every byte must
    equal the template's, but for the high four bits only in the digit
    columns, so a digit byte lies in ``0x30`` to ``0x3F``.  A last chunk
    that is not a whole number of words has its tail checked byte by byte.
    The digit columns are then read as two strided columns less 48, and a
    value above 9 is refused, so a file is read exactly when each line is
    the template with ``0`` to ``9`` in its digit columns.  Returns None,
    having read nothing, for a path that is not a regular file (a pipe has
    no size) or whose size is not a whole number of lines; and at the first
    chunk that does not fit.
    """
    line = np.frombuffer((json.dumps({"c": 0, "z": 0}) + "\n").encode(), np.uint8)
    digits = np.flatnonzero(line == ord("0"))
    if not os.path.isfile(path):
        return None
    n, extra = divmod(os.path.getsize(path), line.size)
    if extra:
        return None
    records = np.empty((n, 2), dtype=np.int64)
    # _CHUNK_LINES is a multiple of 8, so each full chunk is whole words.
    lines = min(_CHUNK_LINES, -(-n // 8) * 8)
    template = np.tile(line, lines)
    mask = np.tile(np.where(line == ord("0"), 0xF0, 0xFF).astype(np.uint8), lines)
    words, mask_words = template.view(np.uint64), mask.view(np.uint64)
    buf = np.empty(template.size, np.uint8)
    with open(path, "rb") as fh:
        for start in range(0, n, _CHUNK_LINES):
            count = min(_CHUNK_LINES, n - start)
            size = count * line.size
            if fh.readinto(buf[:size]) != size:
                return None
            whole = size // 8
            if not np.array_equal(buf.view(np.uint64)[:whole] & mask_words[:whole],
                                  words[:whole]):
                return None
            tail = slice(8 * whole, size)
            if not np.array_equal(buf[tail] & mask[tail], template[tail]):
                return None
            rows = buf[:size].reshape(count, line.size)
            out = records[start : start + count]
            out[:, 0], out[:, 1] = rows[:, digits[0]], rows[:, digits[1]]
            out -= ord("0")
            if out.max() > 9:
                return None
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
    checked as ``uint64`` words against the tiled line template, with no
    ``json.loads``.  At the first chunk with a byte that does not fit that
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
