"""Command-line interface, every subcommand exercised end to end."""

from __future__ import annotations

import argparse
import ast
import csv
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qpe import cli, qef_engine
from qpe.cli import main
from qpe.models import TrialDistribution, chsh_value
from qpe.pef_opt import LOCAL_TABLES, optimize_pef_polytope
from qpe.protocols import (
    ProtocolResult,
    design_params,
    read_records,
    run_protocol1,
    run_protocol2,
    sample_records,
    write_records,
)
from qpe.qef_engine import CertificationResult, TrialFunction, certify_fmax

ROOT2 = math.sqrt(2.0)


@pytest.fixture()
def dist_file(tmp_path, nu_e):
    path = tmp_path / "dist.json"
    path.write_text(nu_e.to_json())
    return str(path)


@pytest.fixture()
def qef_file(tmp_path, qef02):
    path = tmp_path / "qef.json"
    path.write_text(qef02.to_json())
    return str(path)


@pytest.fixture(scope="module")
def ci_pipeline(tmp_path_factory):
    """The CI pipeline's table and factor: E pi/4, certified at power 0.05 to gap 1e-3."""
    tmp = tmp_path_factory.mktemp("ci")
    dist, qef = str(tmp / "nu.json"), str(tmp / "qef.json")
    assert main(["family", "--family", "E", "--param", repr(math.pi / 4.0), "-o", dist]) == 0
    argv = ["optimize", "--dist", dist, "--beta", "0.05", "--certify", "1e-3", "-o", qef]
    assert main(argv) == 0
    return dist, qef


@pytest.fixture()
def records_file(tmp_path, nu_e):
    path = tmp_path / "records.jsonl"
    records = sample_records(nu_e, 4000, np.random.default_rng(12))
    write_records(str(path), records)
    return str(path)


class TestParser:
    """One parser serves every ``main`` call in a process, and no call leaves
    state in it."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli.build_parser.cache_clear()
        yield
        cli.build_parser.cache_clear()

    def test_calls_share_one_parser(self, monkeypatch, capsys):
        built, init = [], argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        argv = ["family", "--family", "W", "--param", "0.9"]
        assert main(argv) == 0
        first = list(built)
        assert first[0] == "qpe" and len(first) == 7  # the parser and its six subcommands
        for _ in range(3):
            assert main(argv) == 0
        assert built == first
        assert cli.build_parser() is cli.build_parser()

    def test_no_state_crosses_calls(self, tmp_path, capsys):
        """Each command gives the same exit status and output on a fresh
        parser and on the shared one, after a seeded command, a usage error
        and a refused command; the seed is back at its default."""
        family = ["family", "--family", "W", "--param", "0.9"]
        steps = [
            ["--seed", "7", *family],
            ["family", "--family", "X", "--param", "0.9"],
            ["mintrials", "--family", "W", "--params", "0.72:1.0:2",
             "--beta-grid", "0.05,-0.2", "-o", str(tmp_path / "bad.csv")],
            family,
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            return code, out.out, out.err

        first = [run(argv) for argv in steps]
        assert [code for code, _, _ in first] == [0, 2, 1, 0]
        assert first[0][1] == first[3][1] and "usage:" in first[1][2]
        assert [run(argv) for argv in steps] == first
        parser = cli.build_parser()
        seeded, plain = parser.parse_args(steps[0]), parser.parse_args(family)
        assert (seeded.seed, plain.seed) == (7, 0) and seeded is not plain

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        for name in ("family", "optimize", "certify", "mintrials", "run", "expand"):
            assert name in out


def ref_result_json(result) -> str:
    """``_result_json`` as it wrote the bits one ``str(int(b))`` at a time."""
    return json.dumps(
        {
            "success": bool(result.success),
            "bits": None if result.bits is None else "".join(str(int(b)) for b in result.bits),
            "log2_f": result.log2_f if math.isfinite(result.log2_f) else None,
            "log2_f_min": result.params.log2_f_min,
            "trials_used": result.trials_used,
            "bank_used": result.bank_used,
        }
    )


def test_result_json_writes_the_bits_of_each_outcome(qef02, nu_e):
    """Toeplitz bits, the banked fallback's reserve (protocol 2 on local
    records, and on a short stream) and a failure give the bytes of the
    per-bit join."""
    rng = np.random.default_rng(5)
    params = design_params(qef02, 4000, 1024, 1e-3)
    records = sample_records(nu_e, 4000, rng)
    low = np.unravel_index(np.nanargmin(qef02.table), qef02.table.shape)
    local = np.tile(np.array(low, dtype=np.int64), (4000, 1))  # the factor's least cell each trial
    seed = rng.integers(0, 2, size=params.seed_length(banked=True))
    bank = rng.integers(0, 2, size=params.k_o)
    extracted = run_protocol1(params, records, seed[: params.seed_length()])
    fallback = run_protocol2(params, local, seed, bank)
    assert extracted.success and extracted.bits.size == 1024
    assert fallback.bank_used == params.k_o and np.array_equal(fallback.bits, bank)
    results = [
        extracted,
        fallback,
        ProtocolResult(True, bank.astype(np.uint8), 0.0, 0, params, params.k_o),
        ProtocolResult(False, None, -math.inf, 0, params),
    ]
    for result in results:
        assert cli._result_json(result) == ref_result_json(result)


class TestFamily:
    def test_werner_point_reaches_tsirelson(self, tmp_path):
        out = tmp_path / "w.json"
        assert main(["family", "--family", "W", "--param", "1.0", "-o", str(out)]) == 0
        nu = TrialDistribution.from_json(out.read_text())
        assert abs(chsh_value(nu) - 2.0 * ROOT2) <= 1e-6

    def test_nonviolating_point_to_stdout(self, capsys):
        assert main(["family", "--family", "E", "--param", "0.0"]) == 0
        nu = TrialDistribution.from_json(capsys.readouterr().out)
        assert abs(chsh_value(nu) - 2.0) <= 1e-6

    def test_malformed_param_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["family", "--family", "E", "--param", "abc"])
        assert err.value.code == 2

    def test_unknown_family_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["family", "--family", "Q", "--param", "0.5"])
        assert err.value.code == 2


class TestOptimizeCertify:
    def test_optimize_emits_factor_and_rate(self, tmp_path, dist_file, capsys):
        out = tmp_path / "pef.json"
        code = main(
            ["optimize", "--dist", dist_file, "--beta", "0.45", "-o", str(out)]
        )
        assert code == 0
        line = capsys.readouterr().err.strip()
        assert line.startswith("rate_nats_per_trial")
        assert abs(float(line.split()[1]) - 0.07127685884467068) <= 1e-9
        F = TrialFunction.from_json(out.read_text())
        assert F.beta == 0.45
        assert F.role == "pef"

    def test_family_optimize_certify_run(self, tmp_path, capsys):
        """``optimize --certify`` writes a qef that ``run`` accepts, with no
        hand-written factor in between."""
        dist, qef, out = (tmp_path / n for n in ("e.json", "qef.json", "out.json"))
        theta = repr(math.pi / 4.0)
        assert main(["family", "--family", "E", "--param", theta, "-o", str(dist)]) == 0
        assert main(["optimize", "--dist", str(dist), "--beta", "0.2"]) == 0
        pef_rate = float(capsys.readouterr().err.split()[-1])
        argv = ["optimize", "--dist", str(dist), "--beta", "0.2",
                "--certify", "1e-3", "-o", str(qef)]
        assert main(argv) == 0
        err = dict(line.split() for line in capsys.readouterr().err.splitlines())
        f_upper = float(err["f_upper"])
        assert 1.0 <= f_upper <= 1.0 + 1e-2
        rate = float(err["rate_nats_per_trial"])
        assert abs(rate - (pef_rate - math.log(f_upper) / 0.2)) <= 1e-9
        F = TrialFunction.from_json(qef.read_text())
        assert F.role == "qef" and F.beta == 0.2
        argv = [
            "run", "--function", str(qef), "--dist", str(dist),
            "--n", "20000", "--k-o", "64", "--epsilon", "1e-6", "-o", str(out),
        ]
        assert main(argv) == 0
        got = json.loads(out.read_text())
        assert got["success"] is True
        assert len(got["bits"]) == 64

    def test_optimize_certify_unmet_gap_fails(
        self, tmp_path, dist_file, monkeypatch, capsys
    ):
        """A bracket that misses its gap target writes no factor."""
        monkeypatch.setattr(
            cli, "certify_fmax", functools.partial(certify_fmax, budget=4)
        )
        out = tmp_path / "qef.json"
        argv = ["optimize", "--dist", dist_file, "--beta", "0.2",
                "--certify", "1e-3", "-o", str(out)]
        assert main(argv) == 1
        assert "misses the target" in capsys.readouterr().err
        assert not out.exists()

    def test_local_only_optimizes_over_the_local_tables(self, tmp_path, ci_pipeline, capsys):
        """Without the Tsirelson cuts the E pi/4 factor's uncertified rate is higher."""
        dist, _ = ci_pipeline
        capsys.readouterr()
        out = tmp_path / "pef.json"
        rates = {}
        for flags in ((), ("--local-only",)):
            assert main(["optimize", "--dist", dist, "--beta", "0.05", *flags, "-o", str(out)]) == 0
            rates[flags] = float(capsys.readouterr().err.split()[-1])
        nu = TrialDistribution.from_json(Path(dist).read_text())
        F, _ = optimize_pef_polytope(nu, 0.05, tables=LOCAL_TABLES)
        assert out.read_text() == F.to_json() + "\n"
        assert rates[("--local-only",)] >= rates[()] + 0.1

    def test_certify_names_a_missing_cell(self, tmp_path, capsys):
        values = {(c, z): 1.0 for c in range(4) for z in range(4) if (c, z) != (3, 3)}
        path = tmp_path / "f.json"
        path.write_text(TrialFunction(values, 0.05, role="qef").to_json())
        assert main(["certify", "--function", str(path), "--gap", "1e-3"]) == 1
        assert "error: trial function has no value at cell (3, 3)" in capsys.readouterr().err

    def test_certify_refuses_a_factor_with_no_power(self, tmp_path, capsys):
        values = {(c, z): 1.0 for c in range(4) for z in range(4)}
        path = tmp_path / "f.json"
        path.write_text(TrialFunction(values, None).to_json())
        assert json.loads(path.read_text())["beta"] is None
        assert main(["certify", "--function", str(path), "--gap", "1e-3"]) == 1
        assert "error: this trial function carries no power" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda data: data.pop("values"), "factor JSON lacks values"),
            (lambda data: data.pop("beta"), "factor JSON lacks beta"),
            (lambda data: data["values"].append([0, 0, 5.0]), "factor JSON lists cell (0, 0) twice"),
            (lambda data: data["values"][1].__setitem__(0, 1.5),
             "factor JSON cell [1.5, 1] has an index that is not an integer"),
            (lambda data: data["values"][1].__setitem__(1, None),
             "factor JSON row [0, None, 1.0] is not a list of numbers"),
            (lambda data: data.__setitem__("values", 5), "factor JSON cells must be a list of rows"),
        ],
        ids=["no-values", "no-beta", "cell-twice", "fractional-index", "null-index", "no-rows"],
    )
    def test_certify_names_a_malformed_factor(self, tmp_path, capsys, edit, message):
        data = json.loads(
            TrialFunction({(c, z): 1.0 for c in range(4) for z in range(4)}, 0.05).to_json()
        )
        edit(data)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        assert main(["certify", "--function", str(path), "--gap", "1e-3"]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_optimize_names_a_missing_distribution_field(self, tmp_path, nu_e, capsys):
        data = json.loads(nu_e.to_json())
        del data["z_bits"]
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(data))
        assert main(["optimize", "--dist", str(path), "--beta", "0.05"]) == 1
        assert "error: distribution JSON lacks z_bits" in capsys.readouterr().err

    def test_certify_qef_bracket(self, tmp_path, dist_file):
        pef = tmp_path / "pef.json"
        main(["optimize", "--dist", dist_file, "--beta", "0.45", "-o", str(pef)])
        cert = tmp_path / "cert.json"
        code = main(
            ["certify", "--function", str(pef), "--gap", "1e-3", "-o", str(cert)]
        )
        assert code == 0
        res = CertificationResult.from_json(cert.read_text())
        assert res.f_upper - res.f_lower <= 1e-3 + 1e-8
        assert abs(res.f_upper - 1.000723447) <= 1e-6
        # The output names the 8 angle maps: an eighth of the cube was searched.
        assert len(res.symmetries) == 8

    @pytest.mark.parametrize(
        "name, value, is_global",
        [("threads", "2", True), ("kind", "pef", False)],
        ids=["threads", "kind"],
    )
    def test_removed_options_are_usage_errors(
        self, qef_file, capsys, name, value, is_global
    ):
        """The global thread count and the certifier choice no longer exist."""
        certify = ["certify", "--function", qef_file, "--gap", "1.0", "--budget", "40"]
        option = [f"--{name}", value]
        with pytest.raises(SystemExit) as err:
            main(option + certify if is_global else certify + option)
        assert err.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_certify_reports_unmet_gap_target(self, tmp_path, qef_file):
        cert = tmp_path / "cert.json"
        code = main(
            [
                "certify", "--function", qef_file, "--gap", "1e-5",
                "--budget", "40", "-o", str(cert),
            ]
        )
        assert code == 0
        out = json.loads(cert.read_text())
        assert out["gap_flag"] is True
        assert out["gap_target"] == 1e-5
        assert out["f_upper"] - out["f_lower"] > 1e-5
        assert CertificationResult.from_json(cert.read_text()).gap_flag

    @pytest.mark.parametrize("gap", ["nan", "inf", "-1e-3", "0"])
    @pytest.mark.parametrize("command", ["optimize", "certify"])
    def test_gap_outside_its_domain_is_refused_before_any_solve(
        self, tmp_path, dist_file, qef_file, monkeypatch, capsys, command, gap
    ):
        """A gap target that is not finite and positive is refused by value:
        both commands exit 1 before the polytope program or any vertex
        solve, and write no file."""

        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran")

        monkeypatch.setattr(cli, "optimize_pef_polytope", no_solve)
        monkeypatch.setattr(qef_engine, "_solve_vertices", no_solve)
        out = tmp_path / "out.json"
        if command == "optimize":
            argv = ["optimize", "--dist", dist_file, "--beta", "0.05", f"--certify={gap}"]
        else:
            argv = ["certify", "--function", qef_file, f"--gap={gap}"]
        assert main([*argv, "-o", str(out)]) == 1
        value = repr(float(gap))
        assert capsys.readouterr().err == f"error: gap target must be finite and positive, got {value}\n"
        assert not out.exists()

    def test_missing_input_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["certify", "--function", str(tmp_path / "nope.json"), "--gap", "0.1"])
        assert err.value.code == 2

    def test_invalid_power_is_internal_error(self, dist_file, capsys):
        assert main(["optimize", "--dist", dist_file, "--beta", "0.0"]) == 1
        assert "error" in capsys.readouterr().err


class TestMintrials:
    def test_single_point_table(self, tmp_path):
        out = tmp_path / "table.csv"
        theta = repr(math.pi / 4.0)
        code = main(
            [
                "mintrials", "--family", "E",
                "--params", f"{theta}:{theta}:1",
                "--beta-grid", "0.2", "--epsilon", "1e-6", "-o", str(out),
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["family_param", "I_hat", "n_qef", "n_eat_F", "ratio"]
        assert len(rows) == 2
        assert abs(float(rows[1][1]) - 2.0 * ROOT2) <= 1e-5
        assert abs(float(rows[1][2]) - 883.072) <= 1e-2
        assert float(rows[1][4]) > 100.0

    def test_rate_curves(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = main(
            ["mintrials", "--curves", "--n-outcomes", "2", "--k-inf", "1.0",
             "-o", str(out)]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["h_nats", "r_eat", "r_qef"]
        assert len(rows) > 10
        for row in rows[1:]:
            assert float(row[2]) > float(row[1])

    @pytest.mark.parametrize("grid", ["0.05,-0.2", "nan", "0.05,inf"])
    def test_bad_power_is_internal_error(self, tmp_path, capsys, grid):
        """A bad power exits 1 naming it, and writes no table."""
        out = tmp_path / "table.csv"
        argv = ["mintrials", "--family", "W", "--params", "0.75:1.0:2",
                "--beta-grid", grid, "-o", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the power must be finite and positive")
        assert repr(float(grid.split(",")[-1])) in err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "2.7", "-1", "two"])
    def test_point_count_must_be_a_positive_integer(self, tmp_path, capsys, count):
        with pytest.raises(SystemExit) as err:
            main(["mintrials", "--family", "W", "--params", f"0.75:1.0:{count}",
                  "-o", str(tmp_path / "x.csv")])
        assert err.value.code == 2
        assert "count a positive integer" in capsys.readouterr().err

    def test_table_needs_family_and_params(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["mintrials", "-o", str(tmp_path / "x.csv")])
        assert err.value.code == 2


class TestRun:
    def run_argv(self, qef_file, records_file, out, protocol=1, extra=()):
        return [
            "run", "--function", qef_file, "--records", records_file,
            "--n", "4000", "--k-o", "8", "--epsilon", "1e-3",
            "--protocol", str(protocol), "-o", out, *extra,
        ]

    def test_protocol1_success(self, tmp_path, qef_file, records_file):
        out = tmp_path / "out.json"
        assert main(self.run_argv(qef_file, records_file, str(out))) == 0
        got = json.loads(out.read_text())
        assert got["success"] is True
        assert len(got["bits"]) == 8
        assert set(got["bits"]) <= {"0", "1"}
        assert got["log2_f"] >= got["log2_f_min"]
        assert got["trials_used"] <= 4000

    def test_zero_trials_name_the_trial_count(self, tmp_path, qef_file, records_file, capsys):
        argv = self.run_argv(qef_file, records_file, str(tmp_path / "out.json"))
        argv[argv.index("--n") + 1] = "0"
        assert main(argv) == 1
        assert "trial count" in capsys.readouterr().err

    def test_seed_bits_are_one_int64_draw_in_uint8(self):
        """Chunked draws give one draw's values and leave later draws as they were."""
        chunk = cli._BITS_CHUNK
        for seed in (0, 1, 2):
            for n in (1, chunk - 1, chunk, 2 * chunk + 4095):
                one = np.random.default_rng(seed)
                want, after = one.integers(0, 2, size=n), one.integers(0, 2, size=64)
                rng = np.random.default_rng(seed)
                got = cli._random_bits(rng, n)
                assert got.dtype == np.uint8
                assert np.array_equal(got, want)
                assert np.array_equal(rng.integers(0, 2, size=64), after)

    def test_sampled_banked_run_matches_int64_draws(
        self, tmp_path, qef02, qef_file, dist_file, nu_e
    ):
        """Records, seed bits (more than one chunk) and bank from one generator."""
        n, k_o = 40000, 64
        out = tmp_path / "out.json"
        argv = [
            "--seed", "3", "run", "--function", qef_file, "--dist", dist_file,
            "--n", str(n), "--k-o", str(k_o), "--epsilon", "1e-3",
            "--protocol", "2", "-o", str(out),
        ]
        assert main(argv) == 0
        params = design_params(qef02, n, k_o, 1e-3)
        assert params.seed_length(banked=True) > cli._BITS_CHUNK
        rng = np.random.default_rng(3)
        records = sample_records(nu_e, n, rng)
        seed = rng.integers(0, 2, size=params.seed_length(banked=True))
        bank = rng.integers(0, 2, size=k_o)
        want = run_protocol2(params, records, seed, bank)
        got = json.loads(out.read_text())
        assert got["bits"] == "".join(str(int(b)) for b in want.bits)
        assert got["trials_used"] == want.trials_used

    def test_protocol1_short_stream_reports_failure(
        self, tmp_path, qef_file, nu_e, capsys
    ):
        short = tmp_path / "short.jsonl"
        write_records(str(short), sample_records(nu_e, 5, np.random.default_rng(0)))
        out = tmp_path / "out.json"
        assert main(self.run_argv(qef_file, str(short), str(out))) == 0
        got = json.loads(out.read_text())
        assert got["success"] is False
        assert got["bits"] is None
        assert got["trials_used"] == 0
        assert "need" in capsys.readouterr().err

    def test_protocol2_short_stream_returns_bank(self, tmp_path, qef_file, nu_e):
        short = tmp_path / "short.jsonl"
        write_records(str(short), sample_records(nu_e, 5, np.random.default_rng(0)))
        bank = tmp_path / "bank.txt"
        bank.write_text("10110010\n")
        out = tmp_path / "out.json"
        argv = self.run_argv(
            qef_file, str(short), str(out), protocol=2,
            extra=("--bank", str(bank)),
        )
        assert main(argv) == 0
        got = json.loads(out.read_text())
        assert got["success"] is True
        assert got["bits"] == "10110010"
        assert got["bank_used"] == 8

    def test_protocol2_full_stream_succeeds_unbanked(
        self, tmp_path, qef_file, records_file
    ):
        out = tmp_path / "out.json"
        assert main(self.run_argv(qef_file, records_file, str(out), protocol=2)) == 0
        got = json.loads(out.read_text())
        assert got["success"] is True
        assert got["bank_used"] == 0

    def test_protocol3_zero_credit_matches_plain(
        self, tmp_path, qef_file, records_file
    ):
        out1 = tmp_path / "p1.json"
        out3 = tmp_path / "p3.json"
        assert main(self.run_argv(qef_file, records_file, str(out1))) == 0
        assert main(self.run_argv(qef_file, records_file, str(out3), protocol=3)) == 0
        assert out1.read_text() == out3.read_text()

    def test_input_credit_raises_the_threshold(self, tmp_path, ci_pipeline, capsys):
        """``--k-z 5`` demands 5 more bits, so the threshold rises by exactly beta 5."""
        dist, qef = ci_pipeline

        def run(protocol, k_z):
            out = tmp_path / f"p{protocol}-{k_z}.json"
            argv = [
                "--seed", "1", "run", "--function", qef, "--dist", dist,
                "--n", "20000", "--k-o", "256", "--epsilon", "1e-6",
                "--protocol", str(protocol), "--k-z", str(k_z), "-o", str(out),
            ]
            return main(argv), out

        (code0, out0), (code5, out5) = run(3, 0), run(3, 5)
        assert code0 == code5 == 0
        base, credited = (json.loads(out.read_text())["log2_f_min"] for out in (out0, out5))
        assert abs(credited - base - 0.05 * 5) <= 1e-9
        capsys.readouterr()
        code, out = run(1, 5)
        assert code == 1
        assert not out.exists()
        assert "takes no input credit" in capsys.readouterr().err

    def test_sampled_runs_are_deterministic(self, tmp_path, qef_file, dist_file):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            argv = [
                "--seed", "7",
                "run", "--function", qef_file, "--dist", dist_file,
                "--n", "4000", "--k-o", "8", "--epsilon", "1e-3",
                "-o", str(out),
            ]
            assert main(argv) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_refuses_uncertified_factor(self, tmp_path, capsys):
        """family -> optimize -> run with the optimizer's own (pef) output."""
        dist = tmp_path / "e.json"
        pef = tmp_path / "pef.json"
        out = tmp_path / "out.json"
        theta = repr(math.pi / 4.0)
        assert main(["family", "--family", "E", "--param", theta, "-o", str(dist)]) == 0
        assert main(
            ["optimize", "--dist", str(dist), "--beta", "0.2", "-o", str(pef)]
        ) == 0
        capsys.readouterr()
        argv = [
            "run", "--function", str(pef), "--dist", str(dist),
            "--n", "20000", "--k-o", "64", "--epsilon", "1e-6", "-o", str(out),
        ]
        assert main(argv) != 0
        assert "'pef'" in capsys.readouterr().err
        assert not out.exists()

    def test_refuses_a_factor_with_a_far_index(self, tmp_path, capsys):
        """A cell index past the key count is named before any table is built."""
        path = tmp_path / "far.json"
        rows = [[0, 0, 1.0], [1, 0, 1.0], [0, 10**12, 1.0], [1, 10**12, 1.0]]
        path.write_text(json.dumps({"beta": 0.05, "role": "qef", "values": rows}))
        records = tmp_path / "records.jsonl"
        records.write_text('{"c": 0, "z": 0}\n' * 4000)
        out = tmp_path / "out.json"
        assert main(self.run_argv(str(path), str(records), str(out))) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: key (0, 1000000000000) is not")
        assert not out.exists()

    def test_refuses_a_factor_whose_keys_span_a_far_larger_table(self, tmp_path, capsys):
        """Every index is below the key count, yet the (i, i, i) keys would
        span a table of 8e12 cells; it is refused before one is built."""
        path = tmp_path / "cube.json"
        rows = [[i, i, i, 1.0] for i in range(20000)]
        path.write_text(json.dumps({"beta": 0.05, "role": "qef", "values": rows}))
        records = tmp_path / "records.jsonl"
        records.write_text('{"c": 0, "z": 0}\n' * 4000)
        out = tmp_path / "out.json"
        assert main(self.run_argv(str(path), str(records), str(out))) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the 20000 keys span a table of 8000000000000 cells")
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["7", '{"c": 1}'])
    def test_malformed_record_is_internal_error(
        self, tmp_path, qef_file, records_file, capsys, bad
    ):
        path = tmp_path / "bad.jsonl"
        lines = Path(records_file).read_text().splitlines()
        lines[2500] = bad
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.json"
        assert main(self.run_argv(qef_file, str(path), str(out))) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 2501" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_npy_records_give_identical_output(self, tmp_path, qef_file, records_file):
        npy = tmp_path / "records.npy"
        write_records(str(npy), read_records(records_file))
        for protocol in (1, 2, 3):
            outs = []
            for records in (records_file, str(npy)):
                out = tmp_path / f"out{protocol}{len(outs)}.json"
                argv = self.run_argv(qef_file, records, str(out), protocol=protocol)
                assert main(argv) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]

    def test_saves_sampled_records_as_npy(self, tmp_path, qef_file, dist_file, nu_e):
        saved = tmp_path / "saved.npy"
        argv = [
            "--seed", "7", "run", "--function", qef_file, "--dist", dist_file,
            "--save-records", str(saved), "--n", "4000", "--k-o", "8",
            "--epsilon", "1e-3", "-o", str(tmp_path / "out.json"),
        ]
        assert main(argv) == 0
        want = sample_records(nu_e, 4000, np.random.default_rng(7))
        assert np.array_equal(np.load(saved), want)

    def test_needs_a_record_source(self, qef_file, capsys):
        argv = [
            "run", "--function", qef_file,
            "--n", "100", "--k-o", "8", "--epsilon", "1e-3",
        ]
        assert main(argv) == 1
        assert "records" in capsys.readouterr().err


class TestExpand:
    def write_table(self, tmp_path):
        values = {
            (c, z): v
            for z, row in enumerate([(0.9, 0.3), (0.7, 0.5), (0.8, 0.4), (0.6, 0.2)])
            for c, v in enumerate(row)
        }
        B = TrialFunction(values, None, role="maxprob")
        path = tmp_path / "guess.json"
        path.write_text(B.to_json())
        return str(path)

    def test_rate_table(self, tmp_path):
        table = self.write_table(tmp_path)
        out = tmp_path / "rates.csv"
        code = main(
            [
                "expand", "--function", table, "--b-bar", "0.57", "--z0", "2",
                "--r-grid", "0.01:0.1:3", "-o", str(out),
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "r", "beta", "d", "d_prime", "g_lower_nats",
            "input_entropy_nats", "rate_ratio",
        ]
        assert len(rows) == 4
        rs = [float(row[0]) for row in rows[1:]]
        assert rs == sorted(rs)
        for row in rows[1:]:
            assert math.isfinite(float(row[4]))
            ratio = float(row[4]) / float(row[5])
            assert abs(ratio - float(row[6])) <= 1e-4 * abs(ratio)

    def test_zero_rate_is_internal_error(self, tmp_path, capsys):
        table = self.write_table(tmp_path)
        argv = [
            "expand", "--function", table, "--b-bar", "0.57",
            "--r-grid", "0:0.1:3", "-o", str(tmp_path / "x.csv"),
        ]
        assert main(argv) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "2.5"])
    def test_rate_count_must_be_a_positive_integer(self, tmp_path, capsys, count):
        table = self.write_table(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["expand", "--function", table, "--b-bar", "0.57",
                  "--r-grid", f"0.01:0.1:{count}", "-o", str(tmp_path / "x.csv")])
        assert err.value.code == 2
        assert "count a positive integer" in capsys.readouterr().err

    def test_malformed_grid_is_usage_error(self, tmp_path):
        table = self.write_table(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(
                ["expand", "--function", table, "--b-bar", "0.57",
                 "--r-grid", "0.1:3", "-o", str(tmp_path / "x.csv")]
            )
        assert err.value.code == 2


def test_import_leaves_scipy_out(tmp_path):
    """Importing the CLI, and so every module it reaches, loads no SciPy; no
    module of ``qpe`` imports it; and the P-family trial counts run in an
    interpreter where any SciPy import raises."""
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, qpe.cli; sys.exit(int('scipy' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    argv = ["mintrials", "--family", "P", "--params", "0.68:0.98:3",
            "--beta-grid", "0.05,0.2", "-o", str(tmp_path / "p.csv")]
    code = ("import sys; sys.modules['scipy'] = None; import qpe.cli; "
            f"sys.exit(qpe.cli.main({argv!r}))")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    for path in sorted((src / "qpe").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert all(m.split(".")[0] != "scipy" for m in modules), path.name
