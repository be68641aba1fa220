"""Tests of the benchmark's own checks.

    python3 perfbench/selftest.py

Each check must agree with `qpe` on small cases and must reject a mutated
output.  The file is not named ``test_*.py`` so that the repository's test
suite does not collect it.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from qpe import models, protocols, qef_engine, quantum_core  # noqa: E402
from qpe.models import BellConfig, CanonicalState  # noqa: E402
from qpe.qef_engine import TrialFunction  # noqa: E402
from qpe.quantum_core import HermitianOperator, RenyiOrder  # noqa: E402


def random_candidate(rng):
    values = {(c, z): float(rng.uniform(0.1, 2.0)) for c in range(4) for z in range(4)}
    return TrialFunction(values, float(rng.uniform(0.05, 0.9)))


class CertificateChecks(unittest.TestCase):
    def test_functional_matches_q_alpha(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            F = random_candidate(rng)
            theta = tuple(rng.uniform(-math.pi, math.pi, size=2))
            tau = checks.random_density(rng, 4)
            ours = checks.canonical_functional(F.values, F.beta, theta, tau)
            self.assertAlmostEqual(ours, qef_engine.q_alpha(F, theta, tau), delta=1e-10)

    def test_certificate_passes_and_lowered_upper_bound_fails(self):
        rng = np.random.default_rng(12)
        F = random_candidate(rng)
        cert = qef_engine.certify_fmax(F, workloads.CONFIG, 1e-2, seed=0)
        good = workloads.cert_dict(cert)
        self.assertEqual(checks.certificate_problems(F.values, F.beta, good, 1e-2, rng), [])
        low = dict(good, f_upper=good["f_lower"] - 1e-6)
        self.assertTrue(checks.certificate_problems(F.values, F.beta, low, None, rng))

    def test_upper_bound_below_a_sampled_value_fails(self):
        # A bracket claiming the supremum sits at the maximally mixed state
        # at angles (0, 0): its witness checks out, only sampling refutes it.
        rng = np.random.default_rng(14)
        F = random_candidate(rng)
        value = checks.canonical_functional(F.values, F.beta, (0.0, 0.0), np.eye(4) / 4)
        claim = {"f_lower": value, "f_upper": value, "witness_theta": (0.0, 0.0),
                 "witness_tau": np.eye(4) / 4}
        problems = checks.certificate_problems(F.values, F.beta, claim, None, rng)
        self.assertEqual(len(problems), 1)
        self.assertIn("exceeds f_upper", problems[0])

    def test_wrong_witness_value_fails(self):
        rng = np.random.default_rng(13)
        F = random_candidate(rng)
        cert = workloads.cert_dict(qef_engine.certify_fmax(F, workloads.CONFIG, 1e-2, seed=0))
        cert["f_lower"] -= 1e-7
        problems = checks.certificate_problems(F.values, F.beta, cert, None, rng)
        self.assertTrue(any("witness" in p for p in problems))


class ToeplitzChecks(unittest.TestCase):
    def test_matches_program_and_catches_a_flipped_bit(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n, k_o = int(rng.integers(1, 300)), int(rng.integers(1, 40))
            seed = rng.integers(0, 2, size=n + k_o - 1)
            data = rng.integers(0, 2, size=n)
            got = protocols.toeplitz_extract(seed, data, k_o)
            ref = checks.toeplitz_parities(seed, data, k_o)
            self.assertTrue(np.array_equal(got, ref))
            flipped = got.copy()
            flipped[int(rng.integers(0, k_o))] ^= 1
            self.assertFalse(np.array_equal(flipped, ref))

    def test_record_bits_match_program(self):
        c = np.array([0, 1, 2, 3, 1])
        ref = np.concatenate([models.bits_of(int(v), 2) for v in c])
        self.assertTrue(np.array_equal(checks.record_bits(c), ref))


class ThresholdChecks(unittest.TestCase):
    def setUp(self):
        rng = np.random.default_rng(31)
        values = {(c, z): float(rng.uniform(0.5, 1.6)) for c in range(4) for z in range(4)}
        self.F = TrialFunction(values, 0.2, role="qef")
        self.table = np.array([[math.log2(values[(c, z)]) for z in range(4)] for c in range(4)])
        self.c = rng.integers(0, 4, size=3000)
        self.z = rng.integers(0, 4, size=3000)

    def _program(self, threshold_params):
        records = list(zip(self.c.tolist(), self.z.tolist()))
        seed = np.zeros(threshold_params.seed_length(), dtype=np.int64)
        return protocols.run_protocol1(threshold_params, records, seed)

    def test_log2_f_and_crossing_match_program(self):
        for k_o in (8, 4000):  # crosses, never crosses
            params = protocols.design_params(self.F, 3000, k_o, 1e-3)
            res = self._program(params)
            crossed, log2_f, used, tol = checks.threshold_run(
                self.table, self.c, self.z, params.log2_f_min
            )
            self.assertEqual(crossed, res.success)
            self.assertEqual(used, res.trials_used)
            self.assertLessEqual(abs(log2_f - res.log2_f), tol)
            self.assertGreater(abs(log2_f + 1e-3 - res.log2_f), tol)


class PhysicsChecks(unittest.TestCase):
    def test_closed_form_chsh_matches_families(self):
        for fam, p, closed in (("E", 0.4, checks.chsh_e_family), ("W", 0.9, checks.chsh_w_family)):
            nu = models.family_distribution(fam, p, seed=0)
            self.assertAlmostEqual(models.chsh_value(nu), closed(p), delta=1e-9)
            self.assertAlmostEqual(checks.chsh_of_table(nu.probs), closed(p), delta=1e-9)

    def test_tsirelson_table_matches_family(self):
        nu = models.family_distribution("E", math.pi / 4.0, seed=0)
        ours = workloads.tsirelson_table()
        self.assertLess(max(abs(ours.probs[k] - nu.probs[k]) for k in nu.probs), 1e-8)

    def test_renyi_reference_matches_program_and_catches_a_scale(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            rho = checks.random_density(rng, 4) * rng.uniform(0.1, 1.0)
            sigma = rho + checks.random_density(rng, 4)
            beta = float(rng.uniform(0.05, 0.95))
            for kind in ("sandwiched", "petz"):
                got = quantum_core.renyi_power(rho, sigma, RenyiOrder.from_beta(beta), kind=kind)
                ref = checks.renyi_reference(rho, sigma, beta, kind)
                self.assertLessEqual(abs(got - ref), 1e-9 * max(1.0, abs(ref)))
                self.assertGreater(abs(got * (1 + 1e-7) - ref), 1e-9 * max(1.0, abs(ref)))

    def test_canonical_blocks_match_program(self):
        rng = np.random.default_rng(42)
        angles = tuple(rng.uniform(0.0, math.pi, size=2))
        tau = checks.random_density(rng, 4)
        rho = models.canonical_cq_state(CanonicalState(BellConfig.uniform(angles), HermitianOperator(tau)))
        for key, block in checks.canonical_blocks(angles, tau).items():
            self.assertLess(np.abs(rho.block(*key).matrix - block).max(), 1e-12)


class WorkloadChecks(unittest.TestCase):
    """The workloads' own output checks, on small instances."""

    def test_stream_round_passes_and_a_flipped_bit_is_caught(self):
        class Small(workloads.Stream):
            N, K_O = 4000, 64

        (HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            wl = Small(3, Path(tmp), SpeedProbe())
            wl.setup()
            wl.check_setup()
            wl.round()
            self.assertEqual((wl.tally.attempted, wl.tally.failed), (4, 0))
            self.assertTrue(wl.tally.correct)
            out = json.loads((Path(tmp) / "run-violating-1.json").read_text())
            bits = list(out["bits"])
            bits[5] = "1" if bits[5] == "0" else "0"
            _, c, z = wl.streams["violating"]
            wl._check_run(dict(out, bits="".join(bits)), 1, True, c, z)
            self.assertFalse(wl.tally.correct)

    def test_mintrials_rows_reject_a_table_that_does_not_fall(self):
        wl = workloads.Mintrials(0, Path("."), SpeedProbe())
        rows = [
            {"family_param": "0.750000", "I_hat": f"{checks.chsh_w_family(0.75):.6f}",
             "n_qef": "5000", "ratio": "40"},
            {"family_param": "1.000000", "I_hat": f"{checks.chsh_w_family(1.0):.6f}",
             "n_qef": "1000", "ratio": "45"},
        ]
        wl._check_rows("W", (0.75, 1.0), rows)
        self.assertTrue(wl.tally.correct)
        rows[1]["n_qef"] = "6000"
        wl._check_rows("W", (0.75, 1.0), rows)
        self.assertFalse(wl.tally.correct)

    def test_closed_form_catches_a_wrong_chsh(self):
        wl = workloads.Mintrials(0, Path("."), SpeedProbe())
        rows = [
            {"family_param": "0.400000", "I_hat": f"{checks.chsh_e_family(0.4) + 2e-6:.6f}",
             "n_qef": "5000", "ratio": "4"},
        ]
        wl._check_rows("E", (0.4,), rows)
        self.assertFalse(wl.tally.correct)


if __name__ == "__main__":
    unittest.main()
