"""Benchmark for `qpe`: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 8 --trace 0

Run from the root of a checkout; the program is imported from its ``src``
directory and nowhere else.  The workload is set up several times (the
median is ``setup_s``), then whole rounds of its operations run until
``--seconds`` have passed.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
wrappers record spans around each layer's public calls and the JSON holds
the per-layer metrics instead.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3

# One BLAS thread: the operators are 4x4, and idle BLAS threads only add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def import_program():
    """Import ``qpe`` from this checkout's ``src``; exit with status 1 if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import qpe
    except ImportError as exc:
        sys.exit(f"cannot import qpe from {SRC}: {exc}")
    if Path(qpe.__file__).resolve().parent.parent != SRC:
        sys.exit(f"qpe imported from {qpe.__file__}, not from {SRC}")


def startup() -> float:
    """Start the CLI's module in a fresh interpreter, as every ``qpe`` command
    does, and return the CPU seconds that took."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import qpe.cli, sys; sys.exit(0 if qpe.cli.__file__.startswith(sys.argv[1]) else 3)"
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", code, str(SRC)], env=env, cwd=ROOT,
                   check=True, timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def install_spans(rec) -> None:
    """Wrap each layer's public calls where its callers look them up."""
    from qpe import cli, estimators, models, pef_opt, protocols, qef_engine, quantum_core

    cert = lambda a, k, r: {"regions": r.regions_explored}  # noqa: E731
    rec.wrap(qef_engine, "certify_fmax", "qef_engine.certify_fmax", cert)
    rec.wrap(cli, "certify_fmax", "qef_engine.certify_fmax", cert)
    rec.wrap(qef_engine, "inner_max_tau", "qef_engine.inner_max_tau",
             lambda a, k, r: {"iterations": r.iterations, "converged": int(r.converged)})
    rec.wrap(qef_engine, "interval_bound", "qef_engine.interval_bound")
    rec.wrap(qef_engine, "qef_inequality_check", "qef_engine.qef_inequality_check")
    rec.wrap(qef_engine, "renyi_power", "quantum_core.renyi_power")
    rec.wrap(quantum_core, "renyi_power", "quantum_core.renyi_power")
    rec.wrap(models, "canonical_cq_state", "models.canonical_cq_state")
    rec.wrap(models, "family_distribution", "models.family_distribution",
             lambda a, k, r: {"family": a[0]})
    rec.wrap(pef_opt, "optimize_pef_polytope", "pef_opt.optimize_pef_polytope")
    for fn in ("ee_from_qef", "qefp_constant", "qefp_from_constant"):
        rec.wrap(estimators, fn, "estimators.qefp")
    rec.wrap(cli, "min_trials_table", "accounting.min_trials_table")
    rec.wrap(cli, "read_records", "protocols.read_records")
    rec.wrap(cli, "design_params", "protocols.design_params")
    for fn in ("run_protocol1", "run_protocol2", "run_protocol3"):
        rec.wrap(cli, fn, "protocols.run_protocol",
                 lambda a, k, r: {"trials_used": r.trials_used})
    rec.wrap(protocols, "toeplitz_extract", "protocols.toeplitz_extract",
             lambda a, k, r: {"bit_ops": int(a[2]) * len(a[1])})


def per_layer(rec, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per round (ratios and per-call times excepted)."""
    tot = rec.totals()

    def get(name, key="s"):
        return tot[name][key] / rounds if name in tot else 0.0

    def attr(name, key):
        return rec.attr_sum(name, key) / rounds

    imt_calls = get("qef_engine.inner_max_tau", "calls")
    fam = {}
    for f in ("E", "W", "P"):
        secs = [s["end"] - s["start"] for s in rec.spans
                if s["name"] == "models.family_distribution" and s["family"] == f]
        fam[f] = sum(secs) / len(secs) if secs else 0.0
    return {
        "qef_engine.certify_fmax.s": (get("qef_engine.certify_fmax"), "s"),
        "qef_engine.certify_fmax.self_s": (get("qef_engine.certify_fmax", "self_s"), "s"),
        "qef_engine.certify_fmax.regions": (attr("qef_engine.certify_fmax", "regions"), "count"),
        "qef_engine.inner_max_tau.calls": (imt_calls, "count"),
        "qef_engine.inner_max_tau.iterations": (attr("qef_engine.inner_max_tau", "iterations"), "count"),
        "qef_engine.inner_max_tau.s": (get("qef_engine.inner_max_tau"), "s"),
        "qef_engine.inner_max_tau.converged_ratio": (
            attr("qef_engine.inner_max_tau", "converged") / imt_calls if imt_calls else 0.0,
            "ratio"),
        "qef_engine.interval_bound.calls": (get("qef_engine.interval_bound", "calls"), "count"),
        "qef_engine.interval_bound.s": (get("qef_engine.interval_bound"), "s"),
        "cli.certify.s": (get("cli.certify"), "s"),
        "estimators.qefp.s": (get("estimators.qefp"), "s"),
        "models.canonical_cq_state.calls": (get("models.canonical_cq_state", "calls"), "count"),
        "models.canonical_cq_state.s": (get("models.canonical_cq_state"), "s"),
        "quantum_core.renyi_power.calls": (get("quantum_core.renyi_power", "calls"), "count"),
        "quantum_core.renyi_power.s": (get("quantum_core.renyi_power"), "s"),
        "qef_engine.qef_inequality_check.self_s": (
            get("qef_engine.qef_inequality_check", "self_s"), "s"),
        "protocols.read_records.s": (get("protocols.read_records"), "s"),
        "protocols.design_params.s": (get("protocols.design_params"), "s"),
        "protocols.run_protocol.self_s": (get("protocols.run_protocol", "self_s"), "s"),
        "protocols.toeplitz_extract.calls": (get("protocols.toeplitz_extract", "calls"), "count"),
        "protocols.toeplitz_extract.s": (get("protocols.toeplitz_extract"), "s"),
        "protocols.toeplitz_extract.bit_ops": (attr("protocols.toeplitz_extract", "bit_ops"), "count"),
        "protocols.trials_used": (attr("protocols.run_protocol", "trials_used"), "count"),
        "cli.run.self_s": (get("cli.run", "self_s"), "s"),
        "models.family_distribution.calls": (get("models.family_distribution", "calls"), "count"),
        "models.family_distribution.E.s": (fam["E"], "s"),
        "models.family_distribution.W.s": (fam["W"], "s"),
        "models.family_distribution.P.s": (fam["P"], "s"),
        "pef_opt.optimize_pef_polytope.calls": (get("pef_opt.optimize_pef_polytope", "calls"), "count"),
        "pef_opt.optimize_pef_polytope.s": (get("pef_opt.optimize_pef_polytope"), "s"),
        "accounting.min_trials_table.self_s": (get("accounting.min_trials_table", "self_s"), "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "soundness", "stream", "mintrials"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import SpanRecorder
    from speed import SpeedProbe
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        with SpeedProbe() as probe:
            rec = SpanRecorder(probe.clock) if args.trace else None
            wl = WORKLOADS[args.workload](args.seed, workdir, probe, rec)
            setups = []  # (start-up CPU seconds, input-building start, end, seconds)
            for _ in range(SETUP_REPEATS):
                up = startup()
                start, t0 = time.perf_counter(), probe.clock()
                wl.setup()
                setups.append((up, start, time.perf_counter(), probe.clock() - t0))
            wl.check_setup()

            if rec is not None:
                install_spans(rec)
            rounds_start = time.perf_counter()
            try:
                while wl.round_index == 0 or time.perf_counter() - rounds_start < args.seconds:
                    wl.round()
                    wl.round_index += 1
            finally:
                if rec is not None:
                    rec.restore()
            rounds_end = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = wl.round_index
    factor = probe.factor(rounds_start, rounds_end)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls, samples = wl.times(rounds)
    # Start-up is timed as the fresh interpreter's CPU time: on an idle
    # machine it equals its wall time, and it does not follow the kernel.
    setup_s = [up + dt * probe.factor(a, b) for up, a, b, dt in setups]
    lines = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "unit_s": (wl.unit_s(samples), "s"),
        **wl.report(samples),
    }
    if rec is not None:
        rec.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = {k: (v * factor if u == "s" else v, u)
                   for k, (v, u) in per_layer(rec, rounds).items()}
        metrics["trace.wall_s"] = lines["wall_s"]
    else:
        metrics = {m: lines[m] for m in ("setup_s", "wall_s", "peak_rss_mb", "unit_s")}

    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{wl.tally.attempted} operations, {wl.tally.failed} failed, "
          f"correct {wl.tally.correct}; machine speed factor {factor:.4f} over the rounds "
          f"from {len(probe.slices)} kernel slices")
    print("  scaled by the machine speed; a raw time is about a scaled one over the factor:")
    for name, (value, unit) in lines.items():
        print(f"  {name} {value:.6g} {unit}")
    if rec is not None:
        print("  per layer, scaled by the rounds' factor:")
        for name, (value, unit) in metrics.items():
            print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": wl.tally.correct,
        "attempted": wl.tally.attempted,
        "failed": wl.tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
