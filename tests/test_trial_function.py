"""``TrialFunction.table`` against the dict formulas it replaced.

Each ``ref_*`` function below is the formula an engine path used when it
read a factor through its ``(c, z)`` dict: the log2 table of ``chain``, the
station count, ``max_abs_log``, ``scaled``, ``power_reduce``, the fold's
rebuild of ``F~`` and the zero and outcome scans of the trial-count rows.
The table paths must give the same bits, or raise the same exception type,
on seeded random factors: full 2x2, 4x4 and 4x2 grids, sparse domains,
``(c, z, t)`` spot-check factors, zero values and ``-inf``
entropy-estimator values.
The factors list their cells in ``table`` order, as every producer does,
and a sparse domain keeps at least one cell of each input, as a factor the
engine reads must.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from qpe import accounting, qef_engine
from qpe.accounting import ErrorBudget, n_min_eat_from_ee
from qpe.models import family_distribution
from qpe.qef_engine import NUMERIC_SLACK, TrialFunction, chain, power_reduce

# -- the dict formulas --------------------------------------------------------


def ref_stations(F):
    n_z = len({key[1] for key in F.values})
    k = max(1, (n_z - 1).bit_length())
    if 1 << k != n_z:
        raise ValueError("trial function inputs do not fill a power of two")
    return k


def ref_log2_table(F, k):
    cells = [key for key in F.keys() if len(key) == 2 and 0 <= key[0] < 1 << k and key[1] >= 0]
    n_z = 1 + max((z for _, z in cells), default=-1)
    table = np.full((1 << k, n_z + 1), np.nan)
    for c, z in cells:
        val = F.value(c, z)
        table[c, z] = -math.inf if val == 0.0 else math.log2(val)
    return table


def ref_chain(F, records):
    records = np.asarray(records, dtype=np.int64).reshape(-1, 2)
    k = ref_stations(F)
    c, z = records[:, 0], records[:, 1]
    if ((c < 0) | (c >= 1 << k)).any():
        raise ValueError("outcome does not fit")
    table = ref_log2_table(F, k)
    vals = table[c, np.clip(z, -1, table.shape[1] - 1)]
    if np.isnan(vals).any():
        raise ValueError("record outside the factor's domain")
    return np.cumsum(vals)


def ref_max_abs_log(F):
    out = 0.0
    for v in F.values.values():
        if v <= 0.0:
            return math.inf
        out = max(out, abs(math.log(v)))
    return out


def ref_scaled(F, factor):
    return TrialFunction({k: v * factor for k, v in F.values.items()}, F.beta, F.role)


def ref_power_reduce(F, gamma):
    return TrialFunction({k: v**gamma for k, v in F.values.items()}, F.beta * gamma, F.role)


def ref_fold(F, k):
    maps, table = qef_engine._angle_maps(k)
    d = 1 << k
    values = np.array([F.value(c, z) for z in range(d) for c in range(d)])
    moved = np.abs(values[table] - values).max(axis=-1)
    pick = moved.argmin(axis=1)
    found = np.flatnonzero(moved[np.arange(len(maps)), pick] <= NUMERIC_SLACK)
    folded, relabel = values, table[found, pick[found]]
    while True:
        grown = np.maximum(folded, folded[relabel].max(axis=0))
        if np.array_equal(grown, folded):
            break
        folded = grown
    if folded is not values:
        F = TrialFunction(
            {(c, z): float(folded[z * d + c]) for z in range(d) for c in range(d)},
            F.beta,
            F.role,
        )
    group = np.flatnonzero((folded[table] == folded).all(axis=-1).any(axis=1))
    return F, [maps[g] for g in group]


def ref_outcome_scan(F):
    zero = next((key for key, v in F.values.items() if v == 0.0), None)
    return zero, len({k[0] for k in F.keys()})


# -- comparison helpers ---------------------------------------------------------


def bits(x):
    """Bit patterns of a float, an array or a factor's values."""
    if isinstance(x, TrialFunction):
        return (x.role, x.beta, {k: np.float64(v).tobytes() for k, v in x.values.items()})
    return np.asarray(x, dtype=float).tobytes()


def outcome(fn, *args):
    """``("ok", bits of the result)`` or ``("raised", exception type)``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return "ok", bits(fn(*args))
        except (ValueError, TypeError) as exc:
            return "raised", type(exc)


SHAPES = [(2, 2), (4, 4), (4, 2), (2, 2, 2), (4, 4, 2)]
KINDS = ["plain", "zeros", "ee"]


def random_factor(rng, shape, sparse, kind):
    """A factor over ``shape`` with cells in ``table`` order; a sparse one
    keeps its cells ``(c, c mod n_z[, t])``, so every input and the largest
    index on each axis stay."""
    cells = [
        cell for cell in np.ndindex(*shape)
        if not sparse or cell[1] == cell[0] % shape[1] or rng.random() < 0.6
    ]
    vals = rng.uniform(0.2, 2.0, len(cells))
    if kind == "zeros":
        vals[rng.random(len(cells)) < 0.25] = 0.0
    if kind == "ee":
        vals = rng.uniform(-1.0, 1.5, len(cells))
        vals[rng.random(len(cells)) < 0.25] = -math.inf
    role = "ee" if kind == "ee" else "candidate"
    return TrialFunction(dict(zip(cells, vals.tolist())), 0.2, role)


CASES = [
    (shape, sparse, kind, seed)
    for shape in SHAPES for sparse in (False, True) for kind in KINDS for seed in range(4)
]


@pytest.mark.parametrize("shape, sparse, kind, seed", CASES)
def test_table_paths_match_the_dict_formulas(shape, sparse, kind, seed):
    rng = np.random.default_rng([len(shape), shape[0], sparse, KINDS.index(kind), seed])
    F = random_factor(rng, shape, sparse, kind)
    # The table holds every value at its key and NaN off the domain.
    assert F.table.shape == shape and not F.table.flags.writeable
    on = np.zeros(shape, dtype=bool)
    for key, v in F.values.items():
        on[key] = True
        assert bits(F.table[key]) == bits(v)
    assert np.isnan(F.table[~on]).all()

    assert outcome(lambda: F.stations) == outcome(ref_stations, F)
    assert outcome(F.max_abs_log) == outcome(ref_max_abs_log, F)
    for factor in (0.37, 2.5, -1.0, 0.0):
        assert outcome(F.scaled, factor) == outcome(ref_scaled, F, factor)
    for gamma in (0.3, 0.5, 1.0):
        got, want = outcome(power_reduce, F, gamma), outcome(ref_power_reduce, F, gamma)
        # An estimator's negative value has a complex power.  The dict path
        # raised TypeError at it, or ValueError at an infinite power met first
        # in key order; the table path holds every power in one complex array
        # then, and raises TypeError.
        assert got == want or (kind == "ee" and got[0] == want[0] == "raised")

    # Every cell of the domain, in a shuffled order, as (c, z) records.
    records = rng.permutation(np.array([key[:2] for key in F.values] * 3))
    assert outcome(chain, F, records) == outcome(ref_chain, F, records)

    if len(shape) == 2 and not sparse and kind != "ee":
        if shape[0] == shape[1]:
            k = shape[0].bit_length() - 1
            assert outcome_of_fold(F, k) == outcome_of_fold(F, k, ref=True)
        zero, n_outcomes = ref_outcome_scan(F)
        nu = family_distribution("E", math.pi / 4.0)
        budget = ErrorBudget(1e-6)
        if zero is not None:
            with pytest.raises(ValueError, match=rf"0 at cell \({zero[0]}, {zero[1]}\)"):
                accounting._best_row(nu, 0.5, [0.2], [(F, 0.1)], budget)
        else:
            row = accounting._best_row(nu, 0.5, [0.2], [(F, 0.1)], budget)
            k_inf_bits = ref_max_abs_log(F) * accounting._LOG2_E / 0.2
            n_eat = n_min_eat_from_ee(0.1 * accounting._LOG2_E, k_inf_bits, n_outcomes, budget)
            assert bits(row.n_eat) == bits(n_eat)


def outcome_of_fold(F, k, ref=False):
    folded, maps = (ref_fold if ref else qef_engine._fold)(F, k)
    return folded is F, bits(folded), maps


@pytest.mark.parametrize("k", [1, 2])
def test_fold_rebuild_matches_the_dict_formula(k):
    """Factors a relabeling nearly fixes, so that ``F~`` is rebuilt."""
    d = 1 << k
    maps, table = qef_engine._angle_maps(k)
    rng = np.random.default_rng(40 + k)
    rebuilt = 0
    for _ in range(20):
        # Invariant under two maps' relabelings, then one cell moved by less
        # than the fold's slack, so that the maps still count as symmetries.
        values = rng.uniform(0.2, 2.0, d * d)
        relabel = table[rng.choice(len(maps), size=2, replace=False), 0]
        while not np.array_equal(grown := np.maximum(values, values[relabel].max(axis=0)), values):
            values = grown
        values[rng.integers(d * d)] += 1e-11
        F = TrialFunction(
            {(c, z): float(values[z * d + c]) for c in range(d) for z in range(d)}, 0.1
        )
        got, want = outcome_of_fold(F, k), outcome_of_fold(F, k, ref=True)
        assert got == want
        rebuilt += not got[0]
    assert rebuilt >= 10


@pytest.mark.parametrize(
    "values, key",
    [
        ({(0, 0): 1.0, (1, 0, 0): 1.0}, r"\(1, 0, 0\)"),
        ({(0, 0): 1.0, (0, -1): 1.0}, r"\(0, -1\)"),
        ({(0, 0): 1.0, (1, 0): 1.0, (0, 10**12): 1.0}, r"\(0, 1000000000000\)"),
        ({(0, 0): 1.0, (1.0, 0): 1.0}, r"\(1\.0, 0\)"),
    ],
    ids=["mixed-widths", "negative-index", "far-index", "non-integer"],
)
def test_key_rule_names_the_key(values, key):
    with pytest.raises(ValueError, match=rf"key {key} is not"):
        TrialFunction(values, 0.1)


@pytest.mark.parametrize(
    "values",
    [
        {(i, i): 1.0 for i in range(8)},
        {(i, i, i): 1.0 for i in range(3)},
    ],
    ids=["diagonal-cz", "diagonal-czt"],
)
def test_keys_may_not_span_a_far_larger_table(values):
    """Each index is below the key count, but the table would hold the
    square (or cube) of the key count."""
    with pytest.raises(ValueError, match=r"keys span a table of \d+ cells, more than 4 a key"):
        TrialFunction(values, 0.1)


def test_key_types_the_array_checks_pass_over():
    """Tuple subclasses, NumPy integers and bools are keys too; they are
    stored as tuples of ``int``, as the plain keys are."""
    from collections import namedtuple

    Cell = namedtuple("Cell", "c z")
    plain = {(c, z): 1.0 + c + 2 * z for c in range(2) for z in range(2)}
    for keys in (
        [Cell(c, z) for c, z in plain],
        [(np.int64(c), np.uint8(z)) for c, z in plain],
        [(bool(c), z) for c, z in plain],
    ):
        F = TrialFunction(dict(zip(keys, plain.values())), 0.1)
        assert list(F.values) == list(plain)
        assert all(type(i) is int for key in F.values for i in key)
        assert F.values == plain
        assert np.array_equal(F.table, TrialFunction(plain, 0.1).table)
