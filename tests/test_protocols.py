"""Protocol runs: extractor arithmetic, thresholds, banking, input credit."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from qpe.models import bits_of
from qpe.protocols import (
    ProtocolParams,
    design_params,
    read_records,
    run_protocol1,
    run_protocol2,
    run_protocol3,
    sample_records,
    tmps_feasible,
    toeplitz_extract,
    toeplitz_min_ki,
    write_records,
)
from qpe.qef_engine import TrialFunction


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
        k_i=toeplitz_min_ki(k_o, eps_x),
        k_z=k_z,
    )


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
        for _ in range(25):
            a = rng.integers(0, 2, size=32)
            b = rng.integers(0, 2, size=32)
            seed = rng.integers(0, 2, size=32 + 16 - 1)
            lhs = toeplitz_extract(seed, a ^ b, 16)
            rhs = toeplitz_extract(seed, a, 16) ^ toeplitz_extract(seed, b, 16)
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


class TestTmpsFeasible:
    def test_entropy_boundary(self):
        """k_o = 512 at delta_x = 2**-128 needs k_i = 1066; one less flips."""
        delta = 2.0**-128
        need = 36.0 * math.log2(512) * math.log2(4 * 1067 * 512**2 / delta**2) ** 2
        k_s = int(need) + 1
        assert tmps_feasible(512, 1067, k_s, 1067, delta)
        assert tmps_feasible(512, 1066, k_s, 1067, delta)
        assert not tmps_feasible(512, 1065, k_s, 1067, delta)

    def test_seed_constraint_dominates_for_short_outputs(self):
        """At k_o = 2 the seed demand, not the entropy demand, binds."""
        delta = 0.1
        need = 36.0 * math.log2(2) * math.log2(4 * 1 * 4 / delta**2) ** 2
        assert not tmps_feasible(2, 10**9, int(need) - 1, 1, delta)
        assert tmps_feasible(2, 10**9, int(need) + 1, 1, delta)

    def test_degenerate_inputs(self):
        assert not tmps_feasible(1, 100, 10**9, 100, 0.1)
        with pytest.raises(ValueError):
            tmps_feasible(4, 100, 10**9, 100, 0.0)


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
        with pytest.raises(ValueError):
            dataclasses.replace(good, extractor="trevisan")
        with pytest.raises(ValueError):
            dataclasses.replace(good, k_i=toeplitz_min_ki(good.k_o, good.epsilon_x) - 1)

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

    def test_domain(self):
        with pytest.raises(ValueError):
            design_params(flat_factor(2.0), 100, 8, 1.5)


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
        a = run_protocol1(params, records, seed)
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
        assert read_records(str(path)) == records

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"c": 1, "z": 2}\n\n{"c": 0, "z": 0}\n')
        assert read_records(str(path)) == [(1, 2), (0, 0)]

    def test_sampler_matches_table(self, nu_e):
        rng = np.random.default_rng(10)
        n = 20000
        records = sample_records(nu_e, n, rng)
        assert len(records) == n
        for key in ((0, 0), (3, 3)):
            freq = sum(1 for r in records if r == key) / n
            p = nu_e.probs[key]
            assert abs(freq - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n) + 1e-12

    def test_sampler_deterministic(self, nu_e):
        a = sample_records(nu_e, 100, np.random.default_rng(11))
        b = sample_records(nu_e, 100, np.random.default_rng(11))
        assert a == b
