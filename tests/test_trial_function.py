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

import json
import math
import warnings

import numpy as np
import pytest

from qpe import accounting, estimators, qef_engine
from qpe.accounting import ErrorBudget, n_min_eat_from_ee
from qpe.estimators import QefpConstant
from qpe.models import TrialDistribution, family_distribution
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
    return TrialFunction(*random_values(rng, shape, sparse, kind))


def random_values(rng, shape, sparse, kind):
    """``(values, beta, role)`` of :func:`random_factor`'s factor."""
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
    return dict(zip(cells, vals.tolist())), 0.2, role


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


# -- the array input and the read-only views ------------------------------------


def ref_to_json(values, beta, role):
    """``to_json`` as it was written from the stored dict."""
    domain = "cz" if len(next(iter(values))) == 2 else "czt"
    rows = [[*k, values[k]] for k in sorted(values)]
    return json.dumps({"beta": beta, "role": role, "domain": domain, "values": rows})


def ref_ee_from_qef(F):
    if F.beta is None:
        raise ValueError("an estimation factor with a power is required")
    values = {}
    for key, v in F.values.items():
        if v < 0.0:
            raise ValueError(f"negative value at {key}")
        if v == 0.0:
            warnings.warn(f"zero estimation-factor value at {key}", RuntimeWarning)
            values[key] = -math.inf
        else:
            values[key] = math.log(v) / F.beta
    return TrialFunction(values, None, role="ee")


def ref_qefp_from_constant(K, const):
    beta, c = const.beta, const.c_value
    denom = 1.0 + c * beta * beta / 2.0
    values = {
        key: math.exp(beta * k) / denom if math.isfinite(k) else 0.0
        for key, k in K.values.items()
    }
    return TrialFunction(values, beta, role="qefp")


def ref_ee_from_maxprob(B, b_bar, conditional=True):
    if not (0.0 < b_bar <= 1.0):
        raise ValueError("the expectation bound must lie in (0, 1]")
    log_b = math.log(b_bar)
    values = {}
    for key, b in B.values.items():
        if conditional and not (0.0 <= b <= 1.0 + 1e-12):
            raise ValueError(
                f"conditional guessing probability {b} outside [0, 1] at {key}"
            )
        values[key] = -log_b + 1.0 - b / b_bar
    return TrialFunction(values, None, role="ee")


def warned_outcome(fn, *args):
    """``(result bits or exception type and message, warning messages)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = "ok", bits(fn(*args))
        except (ValueError, TypeError) as exc:
            out = "raised", type(exc), str(exc)
    return out, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("shape, sparse, kind, seed", CASES)
def test_array_and_mapping_inputs_give_one_factor(shape, sparse, kind, seed):
    """The same factor from its ``{key: value}`` mapping and from its array:
    one table, one ``values`` view in C order, and the JSON the stored dict
    wrote; the estimators read it as their dict loops did."""
    rng = np.random.default_rng([len(shape), shape[0], sparse, KINDS.index(kind), seed])
    values, beta, role = random_values(rng, shape, sparse, kind)
    array = np.full(shape, np.nan)
    for key, v in values.items():
        array[key] = v
    F, G = TrialFunction(values, beta, role), TrialFunction(array, beta, role)
    assert bits(F.table) == bits(G.table) == bits(array)
    assert not G.table.flags.writeable and G.table.flags.c_contiguous
    assert list(F.values.items()) == list(G.values.items()) == sorted(values.items())
    assert F.to_json() == G.to_json() == ref_to_json(values, beta, role)
    for key in values:
        assert bits(F.value(*key)) == bits(values[key])

    const = QefpConstant(beta=0.1, c_value=3.0)
    for fn, ref, args in [
        (estimators.ee_from_qef, ref_ee_from_qef, ()),
        (estimators.qefp_from_constant, ref_qefp_from_constant, (const,)),
        (estimators.ee_from_maxprob, ref_ee_from_maxprob, (0.8,)),
        (estimators.ee_from_maxprob, ref_ee_from_maxprob, (0.8, False)),
    ]:
        for H in (F, G):
            assert warned_outcome(fn, H, *args) == warned_outcome(ref, H, *args)


def test_estimators_name_the_cell_they_refuse():
    """A zero warns and a negative value is refused, each by its cell, and a
    guessing table's entry outside [0, 1] is named with its value."""
    F = TrialFunction({(0, 0): 0.0, (1, 0): 2.0, (0, 1): 1.0, (1, 1): 0.0}, 0.2)
    with pytest.warns(RuntimeWarning) as caught:
        K = estimators.ee_from_qef(F)
    assert [str(w.message) for w in caught] == [
        "zero estimation-factor value at (0, 0)", "zero estimation-factor value at (1, 1)"
    ]
    assert K.value(0, 0) == K.value(1, 1) == -math.inf
    with pytest.raises(ValueError, match=r"negative value at \(1, 0\)"):
        estimators.ee_from_qef(TrialFunction({(0, 0): 1.0, (1, 0): -1.0}, 0.2, "ee"))
    with pytest.raises(ValueError, match=r"probability 2\.0 outside \[0, 1\] at \(1, 0\)"):
        estimators.ee_from_maxprob(F, 0.8)


def test_views_are_read_only_and_match_the_arrays():
    """Writing to ``values`` or ``probs`` raises TypeError, so the JSON and
    the engine read one function; both views read the array's cells."""
    values = {(c, z): 1.0 + c + 2 * z for c in range(2) for z in range(2)}
    probs = {(c, z): 0.25 for c in range(2) for z in range(2)}
    for F in (TrialFunction(values, 0.1), TrialFunction(np.array([[1.0, 3.0], [2.0, 4.0]]), 0.1)):
        with pytest.raises(TypeError):
            F.values[(0, 0)] = 7.0
        assert dict(F.values) == values and F.value(0, 0) == F.table[0, 0] == 1.0
    for nu in (TrialDistribution(1, 1, probs), TrialDistribution(1, 1, np.full((2, 2), 0.25))):
        with pytest.raises(TypeError):
            nu.probs[(0, 0)] = 0.9
        assert dict(nu.probs) == probs
        assert all(nu.joint[key] == p for key, p in nu.probs.items())


def test_value_raises_key_error_off_the_domain():
    F = TrialFunction({(0, 0): 1.0, (1, 0): 2.0, (1, 1): 3.0}, 0.1)
    assert F.table.shape == (2, 2) and np.isnan(F.table[0, 1])
    for key in [(0, 1), (2, 0), (0, 2), (-1, 0), (0,), (0, 0, 0)]:
        with pytest.raises(KeyError):
            F.value(*key)


@pytest.mark.parametrize(
    "full, cells, shape, stations",
    [
        ((2, 4), [(0, 0), (0, 1), (1, 0), (1, 1)], (2, 2), 1),
        ((3, 6), [(0, 0), (0, 2), (0, 3), (1, 0), (1, 1), (1, 3)], (2, 4), 2),
        ((4, 2), [(0, 0), (0, 1), (2, 0), (2, 1)], (3, 2), 1),
        ((2, 2, 2), [(0, 0, 0)], (1, 1, 1), None),
        ((2, 2, 3), [(c, z, t) for c in range(2) for z in range(2) for t in range(2)], (2, 2, 2), 1),
        ((4, 4, 2), [(0, 0, 0), (0, 0, 1), (0, 1, 0), (2, 0, 0), (2, 1, 0)], (3, 2, 2), 1),
    ],
    ids=["trailing-z", "interior-and-trailing-z", "interior-and-trailing-c", "one-cell",
         "trailing-t", "interior-and-trailing-czt"],
)
def test_array_ends_each_axis_at_its_last_value(full, cells, shape, stations):
    """An array factor keeps its interior NaN slices and drops its trailing
    ones, as its mapping form does, so it and its JSON round trip agree on
    the table, the view and the station count."""
    table = np.full(full, math.nan)
    for i, key in enumerate(cells):
        table[key] = 1.0 + i
    F = TrialFunction(table, 0.1)
    G = TrialFunction.from_json(F.to_json())
    assert F.table.shape == G.table.shape == shape
    assert F.table.flags.c_contiguous and not F.table.flags.writeable
    assert bits(F.table) == bits(G.table)
    assert list(F.values.items()) == list(G.values.items()) == [(k, 1.0 + i) for i, k in enumerate(cells)]
    if stations is None:  # one input is not a power of two
        for H in (F, G):
            with pytest.raises(ValueError, match="do not fill a power of two"):
                H.stations
    else:
        assert F.stations == G.stations == stations


def _sparse(shape, cells):
    table = np.full(shape, math.nan)
    for i, key in enumerate(cells):
        table[key] = 1.0 + i
    return table


@pytest.mark.parametrize(
    "table",
    [
        np.array([[1.0, math.nan, 2.0, 3.0]]),
        _sparse((1, 8), [(0, 0), (0, 7)]),
        _sparse((8, 1), [(0, 0), (7, 0)]),
        _sparse((4, 2), [(0, 0), (3, 1)]),
        _sparse((1, 2, 4), [(0, 0, 0), (0, 1, 3)]),
    ],
    ids=["three-cells-z3", "two-cells-z7", "two-cells-c7", "corners", "czt-corners"],
)
def test_array_factor_with_interior_nan_round_trips(table):
    """An array factor whose keys span at most 4 cells a key writes JSON
    that reads back to the same table, also when an index passes the key
    count; at the span rule's limit of 4 cells a key as well."""
    F = TrialFunction(table, 0.1)
    G = TrialFunction.from_json(F.to_json())
    assert bits(F.table) == bits(G.table)
    assert G.to_json() == F.to_json()


def test_index_at_four_times_the_key_count_is_named():
    """Two keys may span 8 cells: an index of 8 is refused by name, before
    any table is sized by it."""
    with pytest.raises(ValueError, match=r"key \(0, 8\) is not .* below 8, 4 times the key count"):
        TrialFunction({(0, 0): 1.0, (0, 8): 2.0}, 0.1)


@pytest.mark.parametrize(
    "table, message",
    [
        (np.array([[1.0, np.inf]]), r"non-finite value at \(0, 1\)"),
        (np.array([[1.0, -1.0]]), "requires nonnegative values"),
        (np.full((2, 2), np.nan), "not 2 or 3 axes with a value"),
        (np.ones(4), "not 2 or 3 axes with a value"),
    ],
    ids=["inf", "negative", "all-nan", "one-axis"],
)
def test_array_input_gets_the_value_checks(table, message):
    with pytest.raises(ValueError, match=message):
        TrialFunction(table, 0.1)


@pytest.mark.parametrize(
    "rows",
    [
        "[[0, 0, true], [1, 0, 1.0]]",
        "[[0, 0, 1.0], [true, 0, 1.0]]",
        "[[0, false, 1.0], [1, 0, 1.0]]",
    ],
    ids=["value", "outcome", "input"],
)
def test_factor_json_refuses_booleans(rows):
    text = '{"beta": 0.1, "role": "candidate", "values": ' + rows + "}"
    with pytest.raises(ValueError, match=r"factor JSON row \[.*(True|False).*\] is not a list"):
        TrialFunction.from_json(text)
