"""Command-line front end.

Subcommands: ``family`` (model distributions), ``optimize`` (polytope
factors, optionally certified into QEFs), ``certify`` (branch-and-bound
supremum brackets), ``mintrials`` (trial-count comparison tables and rate
curves), ``run`` (threshold and banked protocols), ``expand`` (spot-check
rate tables).  Exit status 0 covers protocol failures (they are a reported
outcome, not an error); 1 marks internal errors, 2 usage errors.

The argument parser is built on the first :func:`main` call in a process
and shared by every later call; each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from .accounting import (
    ErrorBudget,
    min_trials_table,
    write_mintrials_csv,
    write_rmax_csv,
)
from .estimators import expansion_rate, spot_check_scheme
from .models import BellConfig, TrialDistribution, family_distribution
from .pef_opt import LOCAL_TABLES, optimize_pef_polytope
from .protocols import (
    ProtocolResult,
    design_params,
    read_records,
    run_protocol1,
    run_protocol2,
    run_protocol3,
    sample_records,
    write_records,
)
from .qef_engine import TrialFunction, certify_fmax


# Seed bits drawn per ``rng.integers`` call (see ``_random_bits``).
_BITS_CHUNK = 1 << 16


def _emit(text: str, path: str | None) -> None:
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _load_function(path: str) -> TrialFunction:
    with open(path) as fh:
        return TrialFunction.from_json(fh.read())


def _load_distribution(path: str) -> TrialDistribution:
    with open(path) as fh:
        return TrialDistribution.from_json(fh.read())


def _cmd_family(args: argparse.Namespace) -> int:
    nu = family_distribution(args.family, args.param)
    _emit(nu.to_json(), args.output)
    return 0


def _station_config(F: TrialFunction) -> BellConfig:
    """Uniform-input stations, one per input bit of ``F``."""
    return BellConfig.uniform((0.0,) * F.stations)


def _cmd_optimize(args: argparse.Namespace) -> int:
    nu = _load_distribution(args.dist)
    tables = LOCAL_TABLES if args.local_only else None
    F, rate = optimize_pef_polytope(nu, args.beta, tables=tables)
    if args.certify is not None:
        cert = certify_fmax(F, _station_config(F), args.certify, seed=args.seed)
        if cert.gap_flag:
            raise ValueError(
                f"certified gap {cert.f_upper - cert.f_lower:.3g} misses the "
                f"target {args.certify:g}; no factor written"
            )
        # Dividing by the certified supremum makes the factor a QEF.
        F = F.scaled(1.0 / cert.f_upper, role="qef")
        rate -= math.log(cert.f_upper) / args.beta
        print(f"f_upper {cert.f_upper:.12g}", file=sys.stderr)
    _emit(F.to_json(), args.output)
    print(f"rate_nats_per_trial {rate:.12g}", file=sys.stderr)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    F = _load_function(args.function)
    result = certify_fmax(
        F, _station_config(F), args.gap, budget=args.budget, seed=args.seed
    )
    _emit(result.to_json(), args.output)
    return 0


def _cmd_mintrials(args: argparse.Namespace) -> int:
    if args.curves:
        count = write_rmax_csv(args.output, args.n_outcomes, args.k_inf)
        print(f"rows {count}", file=sys.stderr)
        return 0
    budget = ErrorBudget(epsilon=args.epsilon)
    lo, hi, num = args.params
    params = np.linspace(lo, hi, num)
    beta_grid = [float(b) for b in args.beta_grid.split(",")]
    rows = min_trials_table(args.family, params, beta_grid, budget)
    write_mintrials_csv(args.output, rows)
    return 0


def _result_json(result) -> str:
    return json.dumps(
        {
            "success": bool(result.success),
            "bits": None
            if result.bits is None
            else (np.asarray(result.bits, dtype=np.uint8) + ord("0")).tobytes().decode(),
            "log2_f": result.log2_f if math.isfinite(result.log2_f) else None,
            "log2_f_min": result.params.log2_f_min,
            "trials_used": result.trials_used,
            "bank_used": result.bank_used,
        }
    )


def _records_for(args: argparse.Namespace, rng: np.random.Generator):
    if args.records is not None:
        return read_records(args.records)
    if args.dist is None:
        raise ValueError("provide --records or --dist to sample from")
    nu = _load_distribution(args.dist)
    records = sample_records(nu, args.n, rng)
    if args.save_records:
        write_records(args.save_records, records)
    return records


def _read_bits(path: str) -> np.ndarray:
    with open(path) as fh:
        bits = [c for c in fh.read() if c in "01"]
    if not bits:
        raise ValueError(f"no bits found in {path}")
    return np.array([int(c) for c in bits], dtype=np.int64)


def _random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` fair bits as uint8, the values of ``rng.integers(0, 2, size=n)``.

    They are drawn ``_BITS_CHUNK`` at a time: the values, and the
    generator's state after them, are those of the one-shot draw, and only
    one chunk is ever held as int64.
    """
    bits = np.empty(n, dtype=np.uint8)
    for start in range(0, n, _BITS_CHUNK):
        stop = min(start + _BITS_CHUNK, n)
        bits[start:stop] = rng.integers(0, 2, size=stop - start)
    return bits


def _cmd_run(args: argparse.Namespace) -> int:
    F = _load_function(args.function)
    params = design_params(F, args.n, args.k_o, args.epsilon, k_z=args.k_z)
    rng = np.random.default_rng(args.seed)
    records = _records_for(args, rng)
    banked = args.protocol == 2
    seed_bits = _random_bits(rng, params.seed_length(banked=banked))
    bank = None
    if banked:
        if args.bank is not None:
            bank = _read_bits(args.bank)
            if bank.size < params.k_o:
                raise ValueError(
                    f"bank file holds {bank.size} bits, need {params.k_o}"
                )
            bank = bank[: params.k_o]
        else:
            bank = rng.integers(0, 2, size=params.k_o)
    if len(records) < params.n:
        # A truncated stream is a reported outcome, not a crash: the plain
        # protocols fail, the banked one falls back to its reserve.
        print(
            f"warning: {len(records)} records provided, protocol needs "
            f"{params.n}",
            file=sys.stderr,
        )
        if banked:
            result = ProtocolResult(
                success=True, bits=bank.copy(), log2_f=0.0,
                trials_used=0, params=params, bank_used=params.k_o,
            )
        else:
            result = ProtocolResult(
                success=False, bits=None, log2_f=0.0,
                trials_used=0, params=params,
            )
    elif args.protocol == 1:
        result = run_protocol1(params, records, seed_bits)
    elif args.protocol == 2:
        result = run_protocol2(params, records, seed_bits, bank)
    else:
        result = run_protocol3(params, records, seed_bits)
    _emit(_result_json(result), args.output)
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    B = _load_function(args.function)
    lo, hi, num = args.r_grid
    if not (0.0 < lo <= hi <= 1.0):
        raise ValueError("test rates must lie in (0, 1]")
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["r", "beta", "d", "d_prime", "g_lower_nats",
             "input_entropy_nats", "rate_ratio"]
        )
        for r in np.geomspace(lo, hi, num):
            scheme = spot_check_scheme(B, float(r), args.z0, args.b_bar)
            # The power cap d depends on the scheme, so probe it first.
            d = expansion_rate(scheme, 1e-300).d
            er = expansion_rate(scheme, args.beta_frac * d * float(r))
            s_in = scheme.input_entropy()
            writer.writerow(
                [f"{r:.6g}", f"{er.beta:.6g}", f"{er.d:.6g}",
                 f"{er.d_prime:.6g}", f"{er.g_lower:.6g}", f"{s_in:.6g}",
                 f"{er.g_lower / s_in:.6g}"]
            )
    return 0


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3 or not (parts[2].isdigit() and int(parts[2]) > 0):
        raise argparse.ArgumentTypeError("expected lo:hi:count, count a positive integer")
    return float(parts[0]), float(parts[1]), int(parts[2])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qpe`` parser, built on the first call and shared after it.

    It holds no mutable default, and ``parse_args`` returns a fresh
    namespace each time, so calls share nothing.  The subcommands bind their
    ``_cmd_*`` functions here; those look up the rest of the module at call
    time.
    """
    parser = argparse.ArgumentParser(
        prog="qpe", description="Quantum probability estimation tools."
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="emit a model-family trial distribution")
    p.add_argument("--family", required=True, choices=("E", "W", "P"))
    p.add_argument("--param", type=float, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("optimize", help="optimize a factor over the polytope")
    p.add_argument("--dist", required=True, help="trial distribution JSON")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument(
        "--local-only",
        action="store_true",
        help="constrain to the 16 local deterministic tables only, "
        "without the Tsirelson cuts",
    )
    p.add_argument(
        "--certify",
        type=float,
        default=None,
        metavar="GAP",
        help="bracket the factor's quantum supremum to GAP and write it "
        "divided by the upper bound, as a qef",
    )
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("certify", help="bracket a factor's model supremum")
    p.add_argument("--function", required=True, help="trial function JSON")
    p.add_argument("--gap", type=float, required=True)
    p.add_argument("--budget", type=int, default=20000)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("mintrials", help="trial-count table or rate curves")
    p.add_argument("--family", choices=("E", "W", "P"))
    p.add_argument("--params", type=_parse_range, help="lo:hi:count")
    p.add_argument("--beta-grid", default="0.005,0.01,0.02,0.05,0.1,0.2")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--curves", action="store_true", help="emit rate curves")
    p.add_argument("--n-outcomes", type=int, default=2)
    p.add_argument("--k-inf", type=float, default=1.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_mintrials)

    p = sub.add_parser("run", help="run a generation protocol")
    p.add_argument("--function", required=True)
    p.add_argument(
        "--records", default=None,
        help="trial records: JSON lines of {\"c\": ..., \"z\": ...}, or an "
        "(n, 2) integer array if the name ends in .npy",
    )
    p.add_argument("--dist", default=None, help="distribution to sample")
    p.add_argument(
        "--save-records", default=None,
        help="write the sampled records here (.npy by suffix, else JSON lines)",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-o", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--k-z", type=int, default=0)
    p.add_argument("--protocol", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--bank", default=None, help="reserve bits file (protocol 2)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("expand", help="spot-check rate table")
    p.add_argument("--function", required=True, help="guessing table JSON")
    p.add_argument("--b-bar", type=float, required=True)
    p.add_argument("--z0", type=int, default=0)
    p.add_argument("--r-grid", type=_parse_range, required=True, help="lo:hi:count")
    p.add_argument("--beta-frac", type=float, default=0.5,
                   help="power as a fraction of the cap d*r")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_expand)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one ``qpe`` command; its exit status.

    Every call in a process parses with the one parser of
    :func:`build_parser`, built on the first call.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "mintrials" and not args.curves:
        if args.family is None or args.params is None:
            parser.error("mintrials needs --family and --params (or --curves)")
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        parser.exit(2, f"error: {exc}\n")
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
