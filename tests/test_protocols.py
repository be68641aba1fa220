"""Protocol runs: extractor arithmetic, thresholds, banking, input credit."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qpe import protocols
from qpe.models import bits_of
from qpe.protocols import (
    _CHUNK_LINES,
    ProtocolParams,
    _accumulate,
    _read_canonical,
    _read_jsonl,
    design_params,
    read_records,
    run_protocol1,
    run_protocol2,
    run_protocol3,
    sample_records,
    toeplitz_extract,
    toeplitz_min_ki,
    write_records,
)
from qpe.qef_engine import TrialFunction

# Least FFT length of a hash block, and blocks per batched FFT.
BLOCK = 2**12
GROUP = 8


def flat_factor(value, beta=0.5, poison=None):
    """Constant factor on the (2,2) grid, optionally zeroing one key."""
    values = {(c, z): float(value) for c in range(4) for z in range(4)}
    if poison is not None:
        values[poison] = 0.0
    return TrialFunction(values, beta, role="qef")


def make_params(n=50, k_o=8, epsilon=1e-3, k_z=0, beta=0.5, poison=None):
    eps_x = epsilon / 2.0
    return ProtocolParams(
        F=flat_factor(2.0, beta=beta, poison=poison),
        n=n,
        k_o=k_o,
        epsilon=epsilon,
        epsilon_x=eps_x,
        k_z=k_z,
    )


def dense_toeplitz_product(seed, data, k_o):
    """``T @ data mod 2`` with ``T[j, i] = seed[n_in - 1 + j - i]`` built row by row."""
    n_in = data.size
    out = np.zeros(k_o, dtype=np.int64)
    step = max(1, 2**20 // n_in)
    for j0 in range(0, k_o, step):
        rows = np.arange(j0, min(j0 + step, k_o))
        T = seed[n_in - 1 + rows[:, None] - np.arange(n_in)[None, :]]
        out[rows] = (T @ data) & 1
    return out


def window_sums(seed, data, k_o):
    """Output bit j as the parity of the exact window sum of the reversed
    ``seed[j : j + n_in]`` against the data."""
    windows = np.lib.stride_tricks.sliding_window_view(seed, data.size)
    assert windows.shape[0] == k_o
    return (windows[:, ::-1] @ data) & 1


def data_block(k_o):
    """Input bits per FFT block of an input longer than one block: the FFT
    length, the least power of two of at least ``max(BLOCK, 4 * k_o)``, less
    ``k_o - 1``."""
    return max(BLOCK, 1 << (4 * k_o - 1).bit_length()) - k_o + 1


def popcount_toeplitz(seed, data, k_o):
    """Output bit j is the parity of ``(seed >> j) & reversed(data)`` as packed words."""
    s_word = int.from_bytes(np.packbits(seed.astype(np.uint8), bitorder="little"), "little")
    d_word = int.from_bytes(
        np.packbits(data[::-1].astype(np.uint8), bitorder="little"), "little"
    )
    return np.array([((s_word >> j) & d_word).bit_count() & 1 for j in range(k_o)])


class TestToeplitzMinKi:
    def test_formula(self):
        assert toeplitz_min_ki(8, 0.25) == 8 + 4 + 1
        assert toeplitz_min_ki(512, 2.0**-64) == 512 + 128 + 1

    def test_domain(self):
        with pytest.raises(ValueError):
            toeplitz_min_ki(0, 0.1)
        with pytest.raises(ValueError):
            toeplitz_min_ki(8, 0.0)
        with pytest.raises(ValueError):
            toeplitz_min_ki(8, 1.0)


class TestToeplitzExtract:
    def test_zero_input(self):
        rng = np.random.default_rng(0)
        seed = rng.integers(0, 2, size=19)
        out = toeplitz_extract(seed, np.zeros(12, dtype=np.int64), 8)
        assert out.shape == (8,)
        assert not out.any()

    def test_linearity(self):
        rng = np.random.default_rng(1)
        for n_in, k_o, reps in ((32, 16, 25), (BLOCK + 100, 64, 3)):
            for _ in range(reps):
                a = rng.integers(0, 2, size=n_in)
                b = rng.integers(0, 2, size=n_in)
                seed = rng.integers(0, 2, size=n_in + k_o - 1)
                lhs = toeplitz_extract(seed, a ^ b, k_o)
                rhs = toeplitz_extract(seed, a, k_o) ^ toeplitz_extract(seed, b, k_o)
                assert np.array_equal(lhs, rhs)

    def test_matches_naive_matrix_multiply(self):
        """Entry (i, j) of the hash matrix is seed[n_in - 1 + i - j]."""
        rng = np.random.default_rng(2)
        n_in, k_o = 8, 5
        for _ in range(50):
            data = rng.integers(0, 2, size=n_in)
            seed = rng.integers(0, 2, size=n_in + k_o - 1)
            want = np.zeros(k_o, dtype=np.int64)
            for i in range(k_o):
                acc = 0
                for j in range(n_in):
                    acc ^= int(seed[n_in - 1 + i - j]) & int(data[j])
                want[i] = acc
            assert np.array_equal(toeplitz_extract(seed, data, k_o), want)

    def test_seed_length_checked(self):
        with pytest.raises(ValueError):
            toeplitz_extract(np.zeros(10, dtype=np.int64), np.zeros(8, dtype=np.int64), 4)

    @pytest.mark.parametrize(
        "n_in, k_o",
        [(1, 1), (100, 7), (1019, 7), (BLOCK - 1, 7), (BLOCK, 300), (BLOCK + 1, 300),
         (3 * BLOCK, 2), (3 * BLOCK + 17, 300), (50, BLOCK + 3),
         (BLOCK - 6, 7), (3073, 1024), (3074, 1024), (2, 4),
         (2**15 - 1, 7), (2**15, 300), (2**15 + 1, 300), (3 * 2**15, 2),
         (3 * 2**15 + 17, 300), (50, 2**15 + 3)],
    )
    def test_matches_dense_product_across_blocks(self, n_in, k_o):
        """Both sides of the smallest FFT's length, inputs of two to four
        groups of blocks, and k_o above the smallest FFT.

        An input fits one block when its seed fits the FFT: (BLOCK - 6, 7)
        and (3073, 1024) fill it, and (3074, 1024) is one bit past.  At
        (1019, 7) and (2, 4) the seed is one longer than a power of two: the
        one block gets the shortest FFT free of wrap-around.
        """
        rng = np.random.default_rng(n_in + k_o)
        seed = rng.integers(0, 2, size=n_in + k_o - 1)
        data = rng.integers(0, 2, size=n_in)
        got = toeplitz_extract(seed, data, k_o)
        assert got.dtype == np.int64
        assert np.array_equal(got, dense_toeplitz_product(seed, data, k_o))

    def test_several_blocks_longer_than_default(self):
        """k_o above a quarter of 2**12 sets the FFT length, 2**13, and so
        the block length; three blocks of it."""
        rng = np.random.default_rng(15)
        k_o = BLOCK // 4 + 3
        n_in = 2 * data_block(k_o) + 5
        seed = rng.integers(0, 2, size=n_in + k_o - 1)
        data = rng.integers(0, 2, size=n_in)
        got = toeplitz_extract(seed, data, k_o)
        assert np.array_equal(got, popcount_toeplitz(seed, data, k_o))

    @pytest.mark.parametrize("noise", [0.4, 0.6])
    def test_rounding_guard_falls_back_to_exact_sums(self, monkeypatch, noise):
        """Noise of 0.6 would flip every parity that ``rint`` reads.  The
        input is two groups of blocks, and each falls back once."""
        rng = np.random.default_rng(16)
        k_o = 16
        n_in = GROUP * data_block(k_o) + 5
        seed = rng.integers(0, 2, size=n_in + k_o - 1)
        data = rng.integers(0, 2, size=n_in)
        want = dense_toeplitz_product(seed, data, k_o)
        exact = protocols._window_sums
        fallbacks = []
        monkeypatch.setattr(
            protocols, "_window_sums", lambda *a: fallbacks.append(1) or exact(*a)
        )
        assert np.array_equal(toeplitz_extract(seed, data, k_o), want)
        assert not fallbacks
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + noise)
        assert np.array_equal(toeplitz_extract(seed, data, k_o), want)
        assert len(fallbacks) == 2

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        n_in=st.integers(1, 3 * BLOCK),
        k_o=st.one_of(st.integers(1, 64), st.integers(BLOCK // 4 - 2, BLOCK + 2)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_linear_in_input_and_seed(self, n_in, k_o, seed):
        """GF(2)-linear in the input bits for a fixed seed, and in the seed
        for fixed input bits."""
        rng = np.random.default_rng(seed)
        a, b = rng.integers(0, 2, size=(2, n_in))
        s, t = rng.integers(0, 2, size=(2, n_in + k_o - 1))
        hash_sa = toeplitz_extract(s, a, k_o)
        assert np.array_equal(
            toeplitz_extract(s, a ^ b, k_o), hash_sa ^ toeplitz_extract(s, b, k_o)
        )
        assert np.array_equal(
            toeplitz_extract(s ^ t, a, k_o), hash_sa ^ toeplitz_extract(t, a, k_o)
        )

    @settings(max_examples=12, derandomize=True, deadline=None)
    @example(k_o=BLOCK // 4 + 1, blocks=1, offset=1, seed=2)
    @given(
        k_o=st.sampled_from([1, 2, 7, 300, 1000, BLOCK // 4 - 1, BLOCK // 4]),
        blocks=st.sampled_from([1, 2]),
        offset=st.sampled_from([-1, 0, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_window_sums_at_block_edges(self, k_o, blocks, offset, seed):
        """Inputs one bit short of, at and one past a whole number of data
        blocks, with k_o on both sides of a quarter of the smallest FFT,
        where the FFT length doubles (the explicit example)."""
        # The exact sums cost k_o * n_in products: one block is enough at
        # k_o near a quarter of the FFT.
        assume(blocks == 1 or k_o < BLOCK // 4 - 1)
        n_in = blocks * data_block(k_o) + offset
        rng = np.random.default_rng(seed)
        seed_bits = rng.integers(0, 2, size=n_in + k_o - 1)
        data = rng.integers(0, 2, size=n_in)
        got = toeplitz_extract(seed_bits, data, k_o)
        assert np.array_equal(got, window_sums(seed_bits, data, k_o))

    def test_paper_scale_matches_popcount(self):
        rng = np.random.default_rng(17)
        n_in, k_o = 2 * 10**6, 4096
        seed = rng.integers(0, 2, size=n_in + k_o - 1)
        data = rng.integers(0, 2, size=n_in)
        got = toeplitz_extract(seed, data, k_o)
        assert np.array_equal(got, popcount_toeplitz(seed, data, k_o))

    @pytest.mark.parametrize("k_o", [1, 7, BLOCK // 4, BLOCK + 5])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_matches_popcount_at_group_edges(self, k_o, offset):
        """One bit short of, at and one past a whole group of blocks: the
        last group is full, or holds one block of a single bit."""
        n_in = GROUP * data_block(k_o) + offset
        rng = np.random.default_rng([k_o, offset + 1])
        seed = rng.integers(0, 2, size=n_in + k_o - 1)
        data = rng.integers(0, 2, size=n_in)
        got = toeplitz_extract(seed, data, k_o)
        assert np.array_equal(got, popcount_toeplitz(seed, data, k_o))

    @pytest.mark.parametrize("k_o", [1, 9, 2000])
    def test_empty_input_hashes_to_zeros(self, k_o):
        got = toeplitz_extract(np.ones(k_o - 1, dtype=np.uint8), np.zeros(0), k_o)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.zeros(k_o, dtype=np.int64))

    def test_float_and_uint8_bits(self):
        """Bits are taken as ``astype(np.int64) & 1``, whatever the dtype:
        2.0 and 2.7 hash as 0, 3.0 as 1."""
        rng = np.random.default_rng(18)
        n_in, k_o = GROUP * data_block(64) + 100, 64
        seed = rng.integers(0, 4, size=n_in + k_o - 1)
        data = rng.integers(0, 4, size=n_in)
        want = popcount_toeplitz(seed & 1, data & 1, k_o)
        for s, d in ((seed, data), (seed + 0.7, data.astype(float)),
                     (seed.astype(np.uint8), data.astype(np.uint8) + 0.2)):
            got = toeplitz_extract(s, d, k_o)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    def test_memory_bounded_by_one_group(self):
        """Hashing 2e6 bits allocates well under one float64 copy of the
        input (16 MB), whatever the input's length."""
        rng = np.random.default_rng(19)
        n_in, k_o = 2 * 10**6, 4096
        seed = rng.integers(0, 2, size=n_in + k_o - 1, dtype=np.uint8)
        data = rng.integers(0, 2, size=n_in, dtype=np.uint8)
        tracemalloc.start()
        try:
            toeplitz_extract(seed, data, k_o)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10**6


class TestProtocolParams:
    def test_validation(self):
        good = make_params()
        with pytest.raises(ValueError):
            dataclasses.replace(good, n=0)
        with pytest.raises(ValueError):
            dataclasses.replace(good, epsilon=1.5)
        with pytest.raises(ValueError):
            dataclasses.replace(good, epsilon_x=2e-3)
        with pytest.raises(ValueError):
            dataclasses.replace(good, k_z=-1)

    def test_uncertified_roles_rejected(self):
        good = make_params()
        for role in ("candidate", "pef"):
            F = good.F.scaled(1.0, role=role)
            with pytest.raises(ValueError, match=repr(role)):
                dataclasses.replace(good, F=F)
            with pytest.raises(ValueError, match=repr(role)):
                design_params(F, 100, 8, 1e-3)
        qefp = TrialFunction(dict(good.F.values), 0.3, role="qefp")
        assert dataclasses.replace(good, F=qefp).F.role == "qefp"

    def test_frozen(self):
        params = make_params()
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.n = 100

    def test_log_target_probability(self):
        params = make_params(beta=0.5)
        assert params.log2_p == -float(params.k_i)
        shifted = make_params(beta=0.5, k_z=7)
        assert shifted.log2_p == -float(shifted.k_i + 7)

    def test_log_target_surcharge_above_alpha_two(self):
        """Powers above one pay an extra epsilon term in the target."""
        params = make_params(beta=1.5)
        want = -float(params.k_i) + 0.5 / 1.5 * math.log2(params.epsilon)
        assert abs(params.log2_p - want) <= 1e-12

    def test_threshold_formula(self):
        params = make_params()
        delta = params.epsilon_h**2 / 2.0
        want = -params.beta * params.log2_p - math.log2(delta)
        assert abs(params.log2_f_min - want) <= 1e-12

    def test_seed_lengths(self):
        params = make_params(n=50, k_o=8)
        assert params.n_input_bits == 100
        assert params.seed_length() == 100 + 8 - 1
        assert params.seed_length(banked=True) == 100 + 8 + 8 - 1


class TestDesignParams:
    def test_matches_direct_scan(self):
        """The chosen split minimizes the threshold over the same grid."""
        F = flat_factor(2.0, beta=0.1)
        eps, k_o = 1e-3, 16
        got = design_params(F, 1000, k_o, eps)
        assert got is not None
        best = math.inf
        best_eps = None
        for eps_x in np.geomspace(eps * 1e-9, eps * (1.0 - 1e-6), 256):
            k_i = toeplitz_min_ki(k_o, float(eps_x))
            thr = 0.1 * k_i - math.log2((eps - float(eps_x)) ** 2 / 2.0)
            if thr < best:
                best, best_eps = thr, float(eps_x)
        assert abs(got.log2_f_min - best) <= 1e-9
        assert abs(got.epsilon_x - best_eps) <= 1e-18
        assert got.k_i == toeplitz_min_ki(k_o, got.epsilon_x)
        assert got.n == 1000 and got.k_z == 0

    @pytest.mark.parametrize(
        "n, k_o, eps, k_z, beta",
        [(1000, 16, 1e-3, 0, 0.1), (50, 8, 1e-6, 3, 0.5), (20000, 256, 1e-6, 0, 0.05),
         (100, 64, 0.3, 7, 1.5), (10, 1, 0.9, 0, 2.5)],
    )
    def test_pick_matches_built_candidates(self, n, k_o, eps, k_z, beta):
        """The first cheapest of the 256 parameter sets, each built and
        validated; powers above 1 pay the surcharge."""
        F = flat_factor(2.0, beta=beta)
        want = min(
            (
                ProtocolParams(F=F, n=n, k_o=k_o, epsilon=eps, epsilon_x=float(e), k_z=k_z)
                for e in np.geomspace(eps * 1e-9, eps * (1.0 - 1e-6), 256)
            ),
            key=lambda cand: cand.log2_f_min,
        )
        got = design_params(F, n, k_o, eps, k_z=k_z)
        assert got.epsilon_x == want.epsilon_x
        assert got.log2_f_min == want.log2_f_min
        assert (got.n, got.k_o, got.epsilon, got.k_z) == (n, k_o, eps, k_z)

    def test_domain(self):
        with pytest.raises(ValueError):
            design_params(flat_factor(2.0), 100, 8, 1.5)

    def test_invalid_arguments_raise(self):
        """Every split is valid on valid input, so bad arguments raise."""
        for n, k_o, k_z in ((0, 8, 0), (100, 0, 0), (100, 8, -1)):
            with pytest.raises(ValueError):
                design_params(flat_factor(2.0), n, k_o, 1e-3, k_z=k_z)


class TestProtocol1:
    def test_unit_factor_always_fails(self):
        params = make_params(poison=None)
        unit = dataclasses.replace(params, F=flat_factor(1.0))
        rng = np.random.default_rng(3)
        seed = rng.integers(0, 2, size=unit.seed_length())
        res = run_protocol1(unit, [(0, 0)] * unit.n, seed)
        assert not res.success
        assert res.bits is None
        assert res.log2_f == 0.0
        assert res.trials_used == unit.n

    def test_success_and_early_stop(self):
        """Post-crossing records are collected but no longer scored."""
        params = make_params(poison=(3, 3))
        thr = params.log2_f_min
        cross = math.ceil(thr)
        assert cross < params.n
        records = [(0, 0)] * cross + [(3, 3)] * (params.n - cross)
        rng = np.random.default_rng(4)
        seed = rng.integers(0, 2, size=params.seed_length())
        with pytest.warns(RuntimeWarning, match="zero trial-function value"):
            res = run_protocol1(params, records, seed)
        assert res.success
        assert res.trials_used == cross
        assert res.log2_f == float(cross)
        cbits = np.concatenate([bits_of(c, 2) for c, _ in records])
        want = toeplitz_extract(seed, cbits, params.k_o)
        assert np.array_equal(res.bits, want)

    def test_zero_value_before_crossing_kills_the_run(self):
        params = make_params(poison=(3, 3))
        records = [(3, 3)] + [(0, 0)] * (params.n - 1)
        seed = np.zeros(params.seed_length(), dtype=np.int64)
        with pytest.warns(RuntimeWarning, match="zero trial-function value"):
            res = run_protocol1(params, records, seed)
        assert not res.success
        assert res.log2_f == -math.inf

    def test_deterministic(self):
        params = make_params(poison=(3, 3))
        records = [(0, 0)] * params.n
        rng = np.random.default_rng(5)
        seed = rng.integers(0, 2, size=params.seed_length())
        a = run_protocol1(params, records, seed)
        b = run_protocol1(params, records, seed)
        assert np.array_equal(a.bits, b.bits)

    def test_short_stream_rejected(self):
        params = make_params()
        seed = np.zeros(params.seed_length(), dtype=np.int64)
        with pytest.raises(ValueError, match="records"):
            run_protocol1(params, [(0, 0)] * (params.n - 1), seed)

    def test_unknown_record_rejected(self):
        params = make_params()
        seed = np.zeros(params.seed_length(), dtype=np.int64)
        with pytest.raises(ValueError, match="domain"):
            run_protocol1(params, [(0, 7)] * params.n, seed)
        with pytest.raises(ValueError, match="bits"):
            run_protocol1(params, [(5, 0)] * params.n, seed)

    def test_input_credit_rejected(self):
        params = make_params(k_z=3)
        seed = np.zeros(params.seed_length(), dtype=np.int64)
        with pytest.raises(ValueError):
            run_protocol1(params, [(0, 0)] * params.n, seed)

    def test_long_accumulation_stays_finite(self):
        """Log-domain sums survive large counts at kilobit per-trial factors."""
        params = dataclasses.replace(
            make_params(n=10**5, k_o=8), F=flat_factor(2.0**1000.0)
        )
        seed = np.zeros(params.seed_length(), dtype=np.int64)
        res = run_protocol1(params, [(0, 0)] * params.n, seed)
        assert res.success
        assert math.isfinite(params.log2_f_min)
        crossing = math.ceil(params.log2_f_min / 1000.0)
        assert res.trials_used == crossing
        assert res.log2_f == 1000.0 * crossing


def sequential_accumulate(params, records):
    """The record-by-record threshold loop: the reference for ``_accumulate``."""
    log2_f, crossed, used = 0.0, False, params.n
    for i, (c, z) in enumerate(records[: params.n]):
        val = params.F.value(int(c), int(z))
        log2_f = -math.inf if val == 0.0 else log2_f + math.log2(val)
        if log2_f >= params.log2_f_min:
            crossed, used = True, i + 1
            break
    cbits = np.concatenate([bits_of(int(c), params.F.stations) for c, _ in records[: params.n]])
    return crossed, log2_f, used, cbits


class TestAccumulate:
    def random_params(self, rng, n, k_o, poison=None):
        values = {(c, z): float(rng.uniform(0.6, 1.5)) for c in range(4) for z in range(4)}
        if poison is not None:
            values[poison] = 0.0
        F = TrialFunction(values, 0.2, role="qef")
        return design_params(F, n, k_o, 1e-3)

    @pytest.mark.parametrize(
        "k_o, poison_at, crosses",
        [(8, None, True), (4000, None, False), (8, 3, False), (8, 4500, True)],
    )
    def test_matches_sequential_loop(self, k_o, poison_at, crosses):
        """Crossing, ``log2_f`` and ``trials_used`` bit for bit; -inf and no crossing."""
        rng = np.random.default_rng(18)
        n = 5000
        params = self.random_params(rng, n, k_o, poison=(3, 3))
        records = np.stack([rng.integers(0, 3, n), rng.integers(0, 4, n)], axis=1)
        if poison_at is None:
            got = _accumulate(params, records)
        else:
            records[poison_at] = (3, 3)
            with pytest.warns(RuntimeWarning, match="zero trial-function value"):
                got = _accumulate(params, records)
        want = sequential_accumulate(params, records)
        assert got[0] is want[0] is crosses
        assert got[1] == want[1]
        assert got[2] == want[2]
        assert np.array_equal(got[3], want[3])
        if poison_at == 3:
            assert got[1] == -math.inf

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_outcome_bits_match_the_broadcast_shift(self, k):
        """Each record's ``k`` outcome bits, low bit first, in the smallest
        unsigned type that holds ``c``."""
        rng = np.random.default_rng(k)
        n = 1000
        F = TrialFunction({(c, z): 1.5 for c in range(2**k) for z in range(2**k)}, 0.2,
                          role="qef")
        records = np.stack([rng.integers(0, 2**k, n), rng.integers(0, 2**k, n)], axis=1)
        got = _accumulate(design_params(F, n, 8, 1e-3), records)[3]
        small = records[:, 0].astype(np.min_scalar_type((1 << k) - 1))
        want = ((small[:, None] >> np.arange(k, dtype=small.dtype)) & 1).ravel()
        assert got.dtype == want.dtype == np.uint8
        assert np.array_equal(got, want)

    def test_domain_checked_after_the_crossing(self):
        params = make_params(poison=(3, 3))
        seed = np.zeros(params.seed_length(), dtype=np.int64)
        records = [(0, 0)] * (params.n - 1) + [(0, 9)]
        assert run_protocol1(params, records[:-1] + [(0, 0)], seed).trials_used < params.n
        with pytest.raises(ValueError, match="domain"):
            run_protocol1(params, records, seed)
        with pytest.raises(ValueError, match="does not fit in 2 bits"):
            run_protocol1(params, records[:-1] + [(-1, 0)], seed)


class TestProtocol2:
    def test_no_shortfall_leaves_bank_untouched(self):
        params = make_params(poison=(3, 3))
        cross = math.ceil(params.log2_f_min)
        records = [(0, 0)] * params.n
        rng = np.random.default_rng(6)
        seed = rng.integers(0, 2, size=params.seed_length(banked=True))
        bank = rng.integers(0, 2, size=params.k_o)
        res = run_protocol2(params, records, seed, bank)
        assert res.success
        assert res.bank_used == 0
        assert res.trials_used == cross
        cbits = np.concatenate([bits_of(c, 2) for c, _ in records])
        data = np.concatenate([cbits, np.zeros(params.k_o, dtype=np.int64)])
        assert np.array_equal(res.bits, toeplitz_extract(seed, data, params.k_o))

    def test_single_bit_shortfall(self):
        """A sub-power gap in the threshold costs exactly one banked bit."""
        base = make_params()
        thr = base.log2_f_min
        n = math.ceil(thr - 0.5)
        assert 0.0 < thr - n <= 0.5
        params = dataclasses.replace(base, n=n)
        records = [(0, 0)] * n
        rng = np.random.default_rng(7)
        seed = rng.integers(0, 2, size=params.seed_length(banked=True))
        bank = rng.integers(0, 2, size=params.k_o)
        res = run_protocol2(params, records, seed, bank)
        assert res.success
        assert res.bank_used == 1
        assert res.log2_f == float(n)
        cbits = np.concatenate([bits_of(c, 2) for c, _ in records])
        slots = np.zeros(params.k_o, dtype=np.int64)
        slots[0] = bank[0]
        data = np.concatenate([cbits, slots])
        assert np.array_equal(res.bits, toeplitz_extract(seed, data, params.k_o))

    def test_extreme_shortfall_returns_the_bank(self):
        params = dataclasses.replace(make_params(), F=flat_factor(1.0))
        records = [(0, 0)] * params.n
        rng = np.random.default_rng(8)
        seed = rng.integers(0, 2, size=params.seed_length(banked=True))
        bank = rng.integers(0, 2, size=params.k_o)
        res = run_protocol2(params, records, seed, bank)
        assert res.success
        assert res.bank_used == params.k_o
        assert np.array_equal(res.bits, bank)

    def test_never_fails_on_poisoned_stream(self):
        params = make_params(poison=(3, 3))
        records = [(3, 3)] * params.n
        seed = np.zeros(params.seed_length(banked=True), dtype=np.int64)
        bank = np.ones(params.k_o, dtype=np.int64)
        with pytest.warns(RuntimeWarning, match="zero trial-function value"):
            res = run_protocol2(params, records, seed, bank)
        assert res.success
        assert res.log2_f == -math.inf
        assert np.array_equal(res.bits, bank)

    def test_bank_size_checked(self):
        params = make_params()
        seed = np.zeros(params.seed_length(banked=True), dtype=np.int64)
        with pytest.raises(ValueError, match="bank"):
            run_protocol2(params, [(0, 0)] * params.n, seed, np.zeros(3, dtype=np.int64))


class TestProtocol3:
    def test_zero_credit_reproduces_plain_run(self):
        params = make_params(poison=(3, 3), k_z=0)
        cross = math.ceil(params.log2_f_min)
        records = [(0, 0)] * cross + [(3, 3)] * (params.n - cross)
        rng = np.random.default_rng(9)
        seed = rng.integers(0, 2, size=params.seed_length())
        with pytest.warns(RuntimeWarning, match="zero trial-function value"):
            a = run_protocol1(params, records, seed)
        with pytest.warns(RuntimeWarning, match="zero trial-function value"):
            b = run_protocol3(params, records, seed)
        assert a.success and b.success
        assert a.log2_f == b.log2_f
        assert a.trials_used == b.trials_used
        assert np.array_equal(a.bits, b.bits)

    def test_input_credit_shifts_threshold(self):
        """Crediting k_z input bits raises the threshold by beta * k_z."""
        plain = make_params(k_z=0, beta=0.5)
        credited = make_params(k_z=plain.n, beta=0.5)
        shift = credited.log2_f_min - plain.log2_f_min
        assert abs(shift - 0.5 * plain.n) <= 1e-9


class TestRecords:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [(0, 0), (3, 2), (1, 1), (2, 3)]
        write_records(str(path), records)
        got = read_records(str(path))
        assert got.dtype == np.int64
        assert np.array_equal(got, records)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"c": 1, "z": 2}\n\n{"c": 0, "z": 0}\n')
        assert np.array_equal(read_records(str(path)), [(1, 2), (0, 0)])

    def test_sampler_matches_table(self, nu_e):
        rng = np.random.default_rng(10)
        n = 20000
        records = sample_records(nu_e, n, rng)
        assert len(records) == n
        for key in ((0, 0), (3, 3)):
            freq = np.all(records == key, axis=1).sum() / n
            p = nu_e.probs[key]
            assert abs(freq - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n) + 1e-12

    def test_sampler_deterministic(self, nu_e):
        a = sample_records(nu_e, 100, np.random.default_rng(11))
        b = sample_records(nu_e, 100, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_sampler_draws_unchanged(self, nu_e):
        """One fancy index over the sorted keys: the rng's draws pick the rows."""
        keys = sorted(nu_e.probs)
        probs = np.array([nu_e.probs[k] for k in keys])
        idx = np.random.default_rng(11).choice(
            len(keys), size=500, p=probs / probs.sum()
        )
        got = sample_records(nu_e, 500, np.random.default_rng(11))
        assert got.shape == (500, 2) and got.dtype == np.int64
        assert got.tolist() == [list(keys[i]) for i in idx]

    def test_jsonl_bytes_match_json_dumps(self, tmp_path, nu_e):
        records = sample_records(nu_e, 3000, np.random.default_rng(13))
        path = tmp_path / "records.jsonl"
        write_records(str(path), records)
        want = "".join(
            json.dumps({"c": int(c), "z": int(z)}) + "\n" for c, z in records
        )
        assert path.read_bytes() == want.encode()

    def test_accepted_inputs(self, tmp_path):
        """Any key order, blank lines, extra keys, and values through int()."""
        path = tmp_path / "records.jsonl"
        lines = ['{"z": 2, "c": 1}', "   ", '{"c": 3.7, "z": "0", "t": 9}', ""]
        path.write_text("\n".join(lines * 3000))
        assert np.array_equal(read_records(str(path)), [(1, 2), (3, 0)] * 3000)

    @pytest.mark.parametrize(
        "bad, message",
        [("7", "subscriptable"), ('{"c": 1}', "'z'"), ('{"c": 1, "z": 2}, 1', "more than one"),
         ("{bad", "JSON"), ('{"c": null, "z": 0}', "NoneType"), ("[", "JSON")],
    )
    def test_malformed_line_named(self, tmp_path, bad, message):
        """The error names the 1-based line, also past the first parse chunk."""
        path = tmp_path / "records.jsonl"
        good = '{"c": 1, "z": 2}\n'
        path.write_text(good * 5000 + "\n" + bad + "\n" + good)
        with pytest.raises(ValueError, match="line 5002: ") as info:
            read_records(str(path))
        assert message in str(info.value)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(
        n=st.sampled_from([0, 1, 17, _CHUNK_LINES - 1, _CHUNK_LINES, _CHUNK_LINES + 1,
                           2 * _CHUNK_LINES, 2 * _CHUNK_LINES + 1]),
        wide=st.sampled_from([0, 17, 34]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_written_files_read_as_parsed(self, tmp_path_factory, n, wide, seed):
        """``write_records`` files read back the same through the byte path
        as through ``json.loads``.

        ``wide`` values of two digits lengthen as many lines by one byte: a
        multiple of 17 of them leaves a whole number of 17-byte lines, which
        the byte checks must refuse.  With single digits only, the byte path
        reads the file.
        """
        assume(wide <= 2 * n)
        rng = np.random.default_rng(seed)
        records = rng.integers(0, 10, size=(n, 2))
        cells = rng.choice(2 * n, size=wide, replace=False)
        records.ravel()[cells] = rng.integers(10, 100, size=wide)
        path = str(tmp_path_factory.mktemp("records") / "records.jsonl")
        write_records(path, records)
        got = read_records(path)
        assert got.dtype == np.int64
        assert np.array_equal(got, records)
        assert np.array_equal(got, _read_jsonl(path))
        assert (_read_canonical(path) is None) == (wide > 0)

    @pytest.mark.parametrize(
        "near, crlf",
        [('{"c": 1, "z": 2}', False), ('{"c": 10, "z": 0}\n', False),
         ('{"z": 2, "c": 1}\n', False), ('{"c":  1, "z": 2 }\n', False),
         ('{ "c":1, "z": 2}\n', False), ('{"c": 1, "z": 2, "t": 0}\n', False),
         ('{"c": 1, "z": 2}\n', True), ("\n", False)],
        ids=["no-final-newline", "two-digit", "swapped-keys", "extra-spaces",
             "respaced-17-bytes", "extra-key", "crlf", "blank-line"],
    )
    def test_near_canonical_files_read_as_parsed(self, tmp_path, near, crlf):
        """One line past the first chunk that the byte path must not read.

        Blank lines after it make the file a whole number of 17-byte lines,
        so the byte checks, not the size, must refuse it; a final line
        without its newline is the one case the size alone refuses.
        """
        good = '{"c": 3, "z": 1}\n'
        text = good * (_CHUNK_LINES + 900) + near
        if near.endswith("\n"):
            text += good * 40
        if crlf:
            text = text.replace("\n", "\r\n")
        if near.endswith("\n"):
            text += "\n" * (-len(text) % len(good))
        path = tmp_path / "records.jsonl"
        path.write_bytes(text.encode())
        assert _read_canonical(str(path)) is None
        got = read_records(str(path))
        assert np.array_equal(got, _read_jsonl(str(path)))

    def test_every_byte_in_every_column_checked(self, tmp_path):
        """Each of the 256 byte values in each column of one line gives
        the records, or None, exactly as the byte rule does: every byte as
        in the template, but for a digit from ``0`` to ``9`` in the digit
        columns.

        The file is 11 lines, 23 words and a 3-byte tail, and the line
        edited is the last: it spans two words and the tail.
        """
        template = np.frombuffer(b'{"c": 0, "z": 0}\n', np.uint8)
        limit = np.where(template == ord("0"), 9, 0)
        rng = np.random.default_rng(20)
        base = (np.tile(template, (11, 1))
                + (limit > 0) * rng.integers(0, 10, size=(11, 17))).astype(np.uint8)
        path = tmp_path / "records.jsonl"
        accepted = 0
        for column in range(17):
            for value in range(256):
                rows = base.copy()
                rows[-1, column] = value
                path.write_bytes(rows.tobytes())
                got = _read_canonical(str(path))
                if ((rows - template).astype(np.uint8) > limit).any():
                    assert got is None, (column, value)
                else:
                    accepted += 1
                    assert got.dtype == np.int64
                    assert np.array_equal(got, rows[:, limit > 0] - ord("0"))
        assert accepted == 15 + 2 * 10

    def test_malformed_canonical_width_line_named(self, tmp_path):
        """A 17-byte line with a letter for a digit gets the parse's error."""
        path = tmp_path / "records.jsonl"
        good = '{"c": 1, "z": 2}\n'
        path.write_text(good * 5001 + '{"c": x, "z": 0}\n' + good * 30)
        with pytest.raises(ValueError) as want:
            _read_jsonl(str(path))
        with pytest.raises(ValueError, match="line 5002: ") as info:
            read_records(str(path))
        assert str(info.value) == str(want.value)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_parsed(self, tmp_path):
        """A pipe reports no size, so the byte path leaves it unopened."""
        fifo = tmp_path / "records.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(
            target=fifo.write_text, args=('{"c": 1, "z": 2}\n' * 3,), daemon=True
        )
        writer.start()
        got = read_records(str(fifo))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(got, [(1, 2)] * 3)

    def test_npy_round_trip(self, tmp_path, nu_e):
        records = sample_records(nu_e, 1000, np.random.default_rng(14))
        path = tmp_path / "records.npy"
        write_records(str(path), records)
        got = read_records(str(path))
        assert got.dtype == np.int64
        assert np.array_equal(got, records)
        np.save(path, records.astype(np.uint8))
        assert np.array_equal(read_records(str(path)), records)

    @pytest.mark.parametrize(
        "arr",
        [np.zeros((4, 3), dtype=np.int64), np.zeros(8, dtype=np.int64),
         np.zeros((4, 2)), np.array([[0, 0]], dtype=object)],
    )
    def test_npy_shape_and_dtype_checked(self, tmp_path, arr):
        path = tmp_path / "records.npy"
        np.save(path, arr, allow_pickle=True)
        with pytest.raises(ValueError):
            read_records(str(path))
