"""The four workloads: their inputs, one round of timed operations, and checks.

A round is the same list of operations every time.  Each operation's
program calls are timed; its checks run after the clock stops.  Every
input is drawn from the run's seed or fixed here; the program receives
only the generated inputs, through its public functions and its CLI.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
from qpe import cli, estimators, models, pef_opt, qef_engine, quantum_core
from qpe.models import BellConfig, CanonicalState, TrialDistribution
from qpe.qef_engine import TrialFunction
from qpe.quantum_core import HermitianOperator, RenyiOrder

UNIFORM_Z = {z: 0.25 for z in range(4)}
CONFIG = BellConfig.uniform((0.0, 0.0))
QEFP_POWERS = (0.05, 0.2, 0.45)
# An optimized factor's certified supremum is within this of 1.
OPTIMIZED_GAP = 1e-4


class OperationFailed(Exception):
    """The program gave no usable output for an operation."""


class Tally:
    """Operations attempted and failed, and whether the others were correct."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: dict[str, int] = defaultdict(int)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            if self.correct:
                print(f"check failed: {what}", file=sys.stderr)
            self.correct = False

    @contextlib.contextmanager
    def operation(self, name: str):
        self.attempted += 1
        try:
            yield
        except OperationFailed as exc:
            self._fail(name, str(exc))
        except Exception:
            self._fail(name, traceback.format_exc())

    def _fail(self, name: str, why: str) -> None:
        self.failed += 1
        if self.failures[name] == 0:
            print(f"operation failed: {name}: {why}", file=sys.stderr)
        self.failures[name] += 1


def tsirelson_table() -> TrialDistribution:
    """The E pi/4 table: a maximally entangled pair at CHSH-optimal angles."""
    phi = np.zeros(4)
    phi[0] = phi[3] = 1.0 / math.sqrt(2.0)
    probs = checks.born_table(
        np.outer(phi, phi), (0.0, math.pi / 2.0), (math.pi / 4.0, -math.pi / 4.0)
    )
    return TrialDistribution(2, 2, probs)


def local_table() -> TrialDistribution:
    """An E 0 table: the product state |00>, CHSH value 2."""
    rho = np.zeros((4, 4))
    rho[0, 0] = 1.0
    return TrialDistribution(2, 2, checks.born_table(rho, (0.0, 0.0), (0.0, math.pi / 2.0)))


def cert_dict(cert) -> dict:
    return {
        "f_lower": cert.f_lower,
        "f_upper": cert.f_upper,
        "witness_theta": cert.witness_theta,
        "witness_tau": cert.witness_tau.matrix,
    }


class Workload:
    """Shared plumbing: the clock, the CLI entry and the tally."""

    name = ""

    def __init__(self, seed: int, workdir: Path, probe, recorder=None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.probe = probe
        self.rec = recorder
        self.tally = Tally()
        self.units = 0
        self.round_index = 0
        self.ops: list[tuple[int, str | None, float, float, float]] = []

    def timed(self, key: str | None, fn, *args, **kwargs):
        """Call ``fn``; its time is kept under ``key`` (None: round time only)."""
        start, t0 = time.perf_counter(), self.probe.clock()
        out = fn(*args, **kwargs)
        self.ops.append(
            (self.round_index, key, start, time.perf_counter(), self.probe.clock() - t0)
        )
        return out

    def times(self, rounds: int):
        """Per-round totals and per-key lists of the timed calls, each call
        scaled by the machine speed measured while it ran."""
        walls = [0.0] * rounds
        samples: dict[str, list[float]] = defaultdict(list)
        for r, key, start, end, dt in self.ops:
            dt *= self.probe.factor(start, end)
            walls[r] += dt
            if key is not None:
                samples[key].append(dt)
        return walls, samples

    def cli(self, command: str, argv: list[str]) -> int:
        if self.rec is None:
            return cli.main(argv)
        return self.rec.call(f"cli.{command}", cli.main, argv)

    def certified_qef(self, nu: TrialDistribution, beta: float, gap: float):
        """Polytope factor -> certified supremum -> factor scaled into the model."""
        F, _ = pef_opt.optimize_pef_polytope(nu, beta)
        cert = qef_engine.certify_fmax(F, CONFIG, gap, seed=0)
        return F, cert, F.scaled(1.0 / cert.f_upper, role="qef")

    def expect_certificate(self, F, cert, gap: float, rng, optimized: bool) -> None:
        t = self.tally
        t.expect(not cert.gap_flag, f"{self.name}: gap_flag set at gap {gap}")
        for p in checks.certificate_problems(F.values, F.beta, cert_dict(cert), gap, rng):
            t.expect(False, f"{self.name} beta={F.beta:.4g}: {p}")
        if optimized:
            t.expect(cert.f_upper - 1.0 <= OPTIMIZED_GAP,
                     f"f_upper {cert.f_upper!r} above 1 + {OPTIMIZED_GAP}")
            t.expect(cert.f_lower >= 1.0 - 1e-6, f"f_lower {cert.f_lower!r} below 1 - 1e-6")

    def expect_set_up_qef(self, F, cert, gap: float, rng) -> None:
        """The set-up QEF's certificate at ``gap``, and its factor certified
        once more at ``OPTIMIZED_GAP`` (untimed) for the optimized-factor gate."""
        self.expect_certificate(F, cert, gap, rng, optimized=False)
        strict = qef_engine.certify_fmax(F, CONFIG, OPTIMIZED_GAP, seed=0)
        self.expect_certificate(F, strict, OPTIMIZED_GAP, rng, optimized=True)

    def setup(self) -> None:
        raise NotImplementedError

    def check_setup(self) -> None:
        """Checks on the inputs, run once after the timed set-ups."""

    def round(self) -> None:
        raise NotImplementedError

    def unit_s(self, samples) -> float:
        raise NotImplementedError

    def report(self, samples) -> dict[str, tuple[float, str]]:
        """The workload's own headline numbers, for the printed summary."""
        return {}


class Certify(Workload):
    """Optimized E pi/4 factors certified at the acceptance gates' powers and gaps,
    plus one ``qpe certify`` whose region budget cannot meet its gap target."""

    name = "certify"
    GATES = ((0.05, 1e-4), (0.2, 1e-4))
    UNMET = ("0.05", "1e-5", "40")  # power, gap target, region budget

    def setup(self) -> None:
        self.nu = tsirelson_table()
        self.cli_factor, _ = pef_opt.optimize_pef_polytope(self.nu, float(self.UNMET[0]))
        self.factor_path = self.workdir / "factor.json"
        self.factor_path.write_text(self.cli_factor.to_json())

    def check_setup(self) -> None:
        chsh = checks.chsh_of_table(self.nu.probs)
        self.tally.expect(abs(chsh - 2.0 * math.sqrt(2.0)) < 1e-12, f"E pi/4 CHSH {chsh}")

    def round(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        for beta, gap in self.GATES:
            with self.tally.operation(f"certify beta={beta} gap={gap}"):
                F, rate = self.timed(None, pef_opt.optimize_pef_polytope, self.nu, beta)
                cert = self.timed(
                    "certify_fmax", qef_engine.certify_fmax,
                    F, CONFIG, gap, budget=200000, workers=1, seed=self.seed,
                )
                self.tally.expect(rate > 0.0, f"rate {rate} at beta {beta}")
                self.expect_certificate(F, cert, gap, rng, optimized=True)
        power, target, budget = self.UNMET
        out_path = self.workdir / "cert.json"
        with self.tally.operation("qpe certify with an unmet gap target"):
            code = self.timed("cli_certify", self.cli, "certify", [
                "--seed", "0", "certify", "--function", str(self.factor_path),
                "--gap", target, "--budget", budget, "-o", str(out_path),
            ])
            if code != 0:
                raise OperationFailed(f"exit status {code}")
            out = json.loads(out_path.read_text())
            flat = np.array([complex(re, im) for re, im in out["witness_tau"]])
            dim = math.isqrt(flat.size)
            out["witness_tau"] = flat.reshape(dim, dim)
            for p in checks.certificate_problems(
                self.cli_factor.values, float(power), out, None, rng
            ):
                self.tally.expect(False, f"qpe certify: {p}")
            gap = out["f_upper"] - out["f_lower"]
            if "gap_flag" not in out:
                raise OperationFailed(
                    f"certificate JSON has no gap_flag; its gap {gap:.3g} misses "
                    f"the target {target} and nothing in the output says so"
                )
            self.tally.expect(
                out["gap_flag"] is (gap > float(target)),
                f"gap_flag {out['gap_flag']} for gap {gap:.3g} at target {target}",
            )

    def unit_s(self, samples) -> float:
        return float(np.median(samples["certify_fmax"]))

    def report(self, samples):
        return {"certify_s": (self.unit_s(samples), "s")}


class Soundness(Workload):
    """Seeded random-weight candidates certified; a certified QEF converted to
    Petz-type factors; seeded canonical states checked against every factor."""

    name = "soundness"
    CANDIDATES = 4
    STATES = 150
    GAP = 1e-2
    RENYI_EVERY = 25

    def setup(self) -> None:
        self.qef_F, self.qef_cert, self.qef = self.certified_qef(
            tsirelson_table(), 0.2, self.GAP
        )
        rng = np.random.default_rng([self.seed, 2])
        self.candidates = [
            (
                {(c, z): float(rng.uniform(0.1, 2.0)) for c in range(4) for z in range(4)},
                float(rng.uniform(0.05, 0.9)),
            )
            for _ in range(self.CANDIDATES)
        ]
        self.states = [
            (tuple(rng.uniform(0.0, math.pi, size=2)), checks.random_density(rng, 4))
            for _ in range(self.STATES)
        ]

    def check_setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.expect_set_up_qef(self.qef_F, self.qef_cert, self.GAP, rng)

    def round(self) -> None:
        t = self.tally
        rng = np.random.default_rng([self.seed, 4])
        for i, (values, beta) in enumerate(self.candidates):
            with t.operation(f"certify candidate {i}"):
                F = TrialFunction(values, beta)
                cert = self.timed(
                    "certify_fmax", qef_engine.certify_fmax, F, CONFIG, self.GAP, seed=0
                )
                self.expect_certificate(F, cert, self.GAP, rng, optimized=False)

        qefps = []
        with t.operation("estimator to Petz-type factors"):
            K = self.timed("qefp", estimators.ee_from_qef, self.qef)
            for b in QEFP_POWERS:
                const = self.timed("qefp", estimators.qefp_constant, K, UNIFORM_Z, b)
                qefps.append(self.timed("qefp", estimators.qefp_from_constant, K, const))
            for key, v in self.qef.values.items():
                ref = math.log(v) / self.qef.beta
                t.expect(abs(K.value(*key) - ref) <= 1e-12 * max(1.0, abs(ref)),
                         f"estimator at {key}")

        for i, (angles, tau) in enumerate(self.states):
            with t.operation("canonical state"):
                slack, petz, rho = self.timed("state", self._build_and_check, angles, tau, qefps)
                t.expect(slack >= -1e-9, f"QEF slack {slack!r} on state {i}")
                for b, s in zip(QEFP_POWERS, petz):
                    t.expect(s >= -1e-9, f"QEFP beta={b} slack {s!r} on state {i}")
                ref = checks.canonical_blocks(angles, tau)
                for key, block in ref.items():
                    t.expect(np.abs(rho.block(*key).matrix - block).max() <= 1e-12,
                             f"canonical block {key} of state {i}")
                if i % self.RENYI_EVERY == 0:
                    self._check_renyi(rho, rng)
                self.units += 1

    def _build_and_check(self, angles, tau, qefps):
        state = CanonicalState(BellConfig.uniform(angles), HermitianOperator(tau))
        rho = models.canonical_cq_state(state)
        slack = qef_engine.qef_inequality_check(self.qef, rho)
        petz = [qef_engine.qef_inequality_check(q, rho, kind="petz") for q in qefps]
        return slack, petz, rho

    def _check_renyi(self, rho, rng) -> None:
        c, z = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        block, marg = rho.block(c, z).matrix, rho.marginal(z).matrix
        for kind in ("sandwiched", "petz"):
            beta = float(rng.uniform(0.05, 0.95))
            got = self.timed(
                "renyi", quantum_core.renyi_power, block, marg, RenyiOrder.from_beta(beta),
                kind=kind,
            )
            ref = checks.renyi_reference(block, marg, beta, kind)
            self.tally.expect(abs(got - ref) <= 1e-9 * max(1.0, abs(ref)),
                              f"renyi_power {kind} {got!r} != {ref!r}")

    def unit_s(self, samples) -> float:
        return sum(samples["state"]) / max(1, self.units)

    def report(self, samples):
        return {
            "certify_s": (float(np.median(samples["certify_fmax"])), "s"),
            "states_per_s": (1.0 / self.unit_s(samples), "1/s"),
        }


class Stream(Workload):
    """``qpe run`` over a violating and a local record file; protocols 1, 2, 3."""

    name = "stream"
    N = 100_000
    K_O = 1024
    EPSILON = "1e-6"
    BETA = 0.2
    GAP = 1e-2
    # (stream, protocol, must succeed)
    RUNS = (("violating", 1, True), ("violating", 3, True), ("local", 1, False), ("local", 2, True))

    def setup(self) -> None:
        self.F, self.cert, self.qef = self.certified_qef(tsirelson_table(), self.BETA, self.GAP)
        self.qef_path = self.workdir / "qef.json"
        self.qef_path.write_text(self.qef.to_json())
        rng = np.random.default_rng([self.seed, 5])
        self.streams = {}
        for name, nu in (("violating", tsirelson_table()), ("local", local_table())):
            keys = sorted(nu.probs)
            p = np.array([nu.probs[k] for k in keys])
            idx = rng.choice(len(keys), size=self.N, p=p / p.sum())
            cells = np.array(keys)[idx]
            lines = [json.dumps({"c": c, "z": z}) + "\n" for c, z in keys]
            path = self.workdir / f"{name}.jsonl"
            path.write_text("".join(lines[i] for i in idx))
            self.streams[name] = (path, cells[:, 0], cells[:, 1])

    def check_setup(self) -> None:
        rng = np.random.default_rng([self.seed, 6])
        self.expect_set_up_qef(self.F, self.cert, self.GAP, rng)
        chsh = checks.chsh_of_table(local_table().probs)
        self.tally.expect(chsh <= 2.0 + 1e-12, f"local table CHSH {chsh}")
        self.log2_table = np.array(
            [[math.log2(self.qef.value(c, z)) for z in range(4)] for c in range(4)]
        )

    def round(self) -> None:
        outputs = {}
        for stream, protocol, must_succeed in self.RUNS:
            path, c, z = self.streams[stream]
            out_path = self.workdir / f"run-{stream}-{protocol}.json"
            with self.tally.operation(f"qpe run protocol {protocol} on the {stream} stream"):
                code = self.timed("run", self.cli, "run", [
                    "--seed", str(self.seed), "run", "--function", str(self.qef_path),
                    "--records", str(path), "--n", str(self.N), "--k-o", str(self.K_O),
                    "--epsilon", self.EPSILON, "--protocol", str(protocol),
                    "-o", str(out_path),
                ])
                if code != 0:
                    raise OperationFailed(f"exit status {code}")
                out = json.loads(out_path.read_text())
                self.units += self.N
                self._check_run(out, protocol, must_succeed, c, z)
                outputs[(stream, protocol)] = out
        if ("violating", 1) in outputs and ("violating", 3) in outputs:
            self.tally.expect(outputs[("violating", 1)] == outputs[("violating", 3)],
                              "protocol 3 at zero credit differs from protocol 1")

    def _check_run(self, out, protocol, must_succeed, c, z) -> None:
        t = self.tally
        t.expect(out["success"] is must_succeed,
                 f"protocol {protocol} success {out['success']}, expected {must_succeed}")
        crossed, log2_f, used, tol = checks.threshold_run(
            self.log2_table, c, z, out["log2_f_min"]
        )
        t.expect(out["log2_f"] is not None and abs(out["log2_f"] - log2_f) <= tol,
                 f"log2_f {out['log2_f']!r}, recomputed {log2_f!r}")
        t.expect(out["trials_used"] == used, f"trials_used {out['trials_used']}, recomputed {used}")
        banked = protocol == 2
        n_in = 2 * self.N + (self.K_O if banked else 0)
        rng = np.random.default_rng(self.seed)
        seed_bits = rng.integers(0, 2, size=n_in + self.K_O - 1)
        bits = None if out["bits"] is None else np.array([int(b) for b in out["bits"]])
        if crossed:
            data = checks.record_bits(c)
            if banked:
                data = np.concatenate([data, np.zeros(self.K_O, dtype=np.int64)])
            ref = checks.toeplitz_parities(seed_bits, data, self.K_O)
            t.expect(bits is not None and np.array_equal(bits, ref),
                     f"protocol {protocol} extracted bits differ from the GF(2) product")
        elif banked:
            bank = rng.integers(0, 2, size=self.K_O)
            t.expect(out["bank_used"] == self.K_O and bits is not None
                     and np.array_equal(bits, bank), "banked fallback is not the bank")
        else:
            t.expect(bits is None, "a rejected run returned bits")

    def unit_s(self, samples) -> float:
        return sum(samples["run"]) / max(1, self.units)

    def report(self, samples):
        return {"records_per_s": (1.0 / self.unit_s(samples), "1/s")}


class Mintrials(Workload):
    """``qpe mintrials`` over two-point grids of the W, E and P families."""

    name = "mintrials"
    GRIDS = (("W", (0.75, 1.0)), ("E", (0.4, math.pi / 4.0)), ("P", (0.9, 0.98)))
    CLOSED_FORMS = {"E": checks.chsh_e_family, "W": checks.chsh_w_family}
    # The table prints I_hat with six decimals.
    PRINTED = 5e-7 + 1e-9

    def setup(self) -> None:
        self.jobs = [
            (fam, f"{lo!r}:{hi!r}:2", self.workdir / f"mintrials-{fam}.csv")
            for fam, (lo, hi) in self.GRIDS
        ]

    def round(self) -> None:
        for (fam, (lo, hi)), (_, span, path) in zip(self.GRIDS, self.jobs):
            with self.tally.operation(f"qpe mintrials family {fam}"):
                code = self.timed("mintrials", self.cli, "mintrials", [
                    "--seed", str(self.seed), "mintrials", "--family", fam,
                    "--params", span, "--beta-grid", "0.05,0.2", "--epsilon", "1e-6",
                    "-o", str(path),
                ])
                if code != 0:
                    raise OperationFailed(f"exit status {code}")
                with open(path) as fh:
                    rows = list(csv.DictReader(fh))
                self.units += len(rows)
                self._check_rows(fam, (lo, hi), rows)

    def _check_rows(self, fam, params, rows) -> None:
        t = self.tally
        t.expect(len(rows) == len(params), f"{fam}: {len(rows)} rows for {len(params)} points")
        i_hats = [float(r["I_hat"]) for r in rows]
        counts = [float(r["n_qef"]) for r in rows]
        t.expect(all(b > a for a, b in zip(i_hats, i_hats[1:])), f"{fam}: I_hat not rising")
        t.expect(all(b < a for a, b in zip(counts, counts[1:])), f"{fam}: n_qef not falling")
        closed = self.CLOSED_FORMS.get(fam)
        for row, p in zip(rows, params):
            t.expect(abs(float(row["family_param"]) - p) <= 5e-7, f"{fam}: param {row}")
            if closed is not None:
                t.expect(abs(float(row["I_hat"]) - closed(p)) <= self.PRINTED,
                         f"{fam} {p}: I_hat {row['I_hat']} vs closed form {closed(p)!r}")
            if fam == "W":
                t.expect(float(row["ratio"]) >= 30.0, f"W {p}: ratio {row['ratio']}")

    def unit_s(self, samples) -> float:
        return sum(samples["mintrials"]) / max(1, self.units)

    def report(self, samples):
        return {"table_row_s": (self.unit_s(samples), "s")}


WORKLOADS = {w.name: w for w in (Certify, Soundness, Stream, Mintrials)}
