"""Two sets of benchmark runs, and whether they agree within the bounds.

    python3 perfbench/sets.py --runs 10

Each of the two sets runs every workload ``--runs`` times untraced, one seed
per run (set ``k`` uses seeds ``1000 k + 1 ...``), workloads interleaved,
then once traced with seed 1.  Per workload and metric it prints the median,
the quartiles and the spread (interquartile distance over median).  The sets
agree when every spread is within its metric's bound, the second set's
median differs from the first's, either way, by no more than the bound,
every run fails the same share of its operations, and the traced counts
that must repeat exactly do.  The tracing overhead is the traced round
time over the untraced median, minus one.  The summary is also written to
``perfbench/out/sets-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
EXACT = (
    "qef_engine.inner_max_tau.calls",
    "qef_engine.inner_max_tau.iterations",
    "qef_engine.certify_fmax.regions",
    "protocols.trials_used",
)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    for k in range(1, SETS + 1):
        runs = {w: [] for w in names}
        for j in range(1, args.runs + 1):
            for w in names:
                runs[w].append(run_once(w, 1000 * k + j, seconds, 0))
        traced = {w: run_once(w, 1, seconds, 1) for w in names}
        sets.append({"runs": runs, "traced": traced})
        print(f"set {k} done at {time.strftime('%H:%M:%S')}", flush=True)

    summary, agree = {}, True
    for w in names:
        summary[w] = {}
        for k, s in enumerate(sets, 1):
            runs = s["runs"][w]
            shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
            entry = {
                "correct": all(r["correct"] for r in runs),
                "failed_share": sorted(str(x) for x in shares),
                "metrics": {m: stats([r["metrics"][m]["value"] for r in runs]) for m in bounds},
                "traced": {m: v["value"] for m, v in s["traced"][w]["metrics"].items()},
            }
            wall = entry["metrics"]["wall_s"]["median"]
            entry["trace_overhead"] = entry["traced"]["trace.wall_s"] / wall - 1.0
            summary[w][f"set{k}"] = entry

        print(f"\n{w}")
        first = summary[w]["set1"]
        for k in range(1, len(sets) + 1):
            e = summary[w][f"set{k}"]
            ok = e["correct"] and len(e["failed_share"]) == 1
            ok = ok and e["failed_share"] == first["failed_share"]
            for m in EXACT:
                ok = ok and e["traced"][m] == first["traced"][m]
            print(f"  set{k}: correct {e['correct']}, failed share {e['failed_share']}, "
                  f"trace overhead {e['trace_overhead']:+.1%}")
            for m, spec in bounds.items():
                st, base = e["metrics"][m], first["metrics"][m]["median"]
                worse = (st["median"] - base) / base
                if spec["better"] == "higher":
                    worse = -worse
                fine = abs(worse) <= spec["bound"] and st["spread"] <= spec["bound"]
                ok = ok and fine
                print(f"    {m:12s} median {st['median']:.6g} q1 {st['q1']:.6g} "
                      f"q3 {st['q3']:.6g} spread {st['spread']:.3f} "
                      f"vs set1 {worse:+.3f} bound {spec['bound']}{'' if fine else '  <-- OUT'}")
            agree = agree and ok
    print(f"\nsets agree: {agree}")
    (HERE / "out").mkdir(exist_ok=True)
    path = HERE / "out" / f"sets-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"agree": agree, "summary": summary}, indent=1))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
