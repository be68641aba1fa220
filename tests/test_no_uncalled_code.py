"""Every public top-level function and class of ``qpe``, and every public
method and property of its classes, has a caller, and every optional
parameter of a ``qpe`` function is set by one.

A name counts as called when it is loaded (as a name or an attribute)
somewhere other than its own definition, and a parameter counts as set when
a call of its function passes it by keyword or by position: in
``src/qpe``, in ``perfbench/*.py`` or in ``tests/test_acceptance.py``.
Unit tests alone do not keep a name or a parameter alive.

Names are matched by spelling alone, not by the object they are loaded
from: a method or property survives when any attribute of the same name is
loaded anywhere.  A ``CertificationResult.gap`` property with no reader once
survived this way, on the loads of ``args.gap`` in the CLI.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "qpe").glob("*.py"))
CALLERS = [
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]

# Names kept without a caller, each for its reason.
ALLOWED = {
    "minentropy_bound": "paper fact: the min-entropy certificate of an accumulated factor",
    "power_reduce": "paper fact: F**gamma is a factor at power gamma*beta, gamma in (0, 1]",
    "constant_one": "paper fact: the all-ones function is a factor at every power",
    "conditional_entropy": "test reference: entropy estimates must lie below it",
    "pef_inequality_check": "test reference: polytope factors are checked against it",
}

# Methods and properties kept without a caller, each for its reason.
METHODS_ALLOWED: dict[str, str] = {}

# Optional parameters kept although no caller sets them, each for its reason.
UNSET_ALLOWED = {
    "qefp_constant(mode=)": "paper fact: the tight constant, against the headline one",
}


def _loads(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
    return out


def _definitions(tree: ast.Module) -> list[ast.AST]:
    return [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def test_every_public_name_is_loaded_outside_its_definition():
    trees = {path: ast.parse(path.read_text()) for path in SRC}
    outside = set().union(*(_loads(ast.parse(p.read_text())) for p in CALLERS))
    # The names each top-level statement of src loads.
    statements = [(node, _loads(node)) for tree in trees.values() for node in tree.body]
    uncalled = {}
    for path, tree in trees.items():
        for node in _definitions(tree):
            if node.name not in outside and not any(
                node.name in loads for other, loads in statements if other is not node
            ):
                uncalled[node.name] = path.name
    assert {name: f for name, f in uncalled.items() if name not in ALLOWED} == {}
    # An allowlisted name that gained a caller leaves the list.
    assert sorted(uncalled) == sorted(ALLOWED)


def test_every_public_method_is_loaded_outside_its_definition():
    trees = [ast.parse(path.read_text()) for path in SRC]
    outside = set().union(*(_loads(ast.parse(p.read_text())) for p in CALLERS))
    # The names each top-level statement of src loads, with each class split
    # into the statements of its body.
    statements = [
        (sub, _loads(sub))
        for tree in trees for node in tree.body
        for sub in (node.body if isinstance(node, ast.ClassDef) else [node])
    ]
    uncalled = sorted(
        f"{cls.name}.{fn.name}"
        for tree in trees for cls in _definitions(tree) if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and fn.name not in outside
        and not any(fn.name in loads for other, loads in statements if other is not fn)
    )
    assert sorted(set(uncalled) - set(METHODS_ALLOWED)) == []
    # An allowlisted method that gained a caller leaves the list.
    assert uncalled == sorted(METHODS_ALLOWED)


def _optional_parameters(tree: ast.Module):
    """``(function, parameter, position)`` of each optional parameter of the
    module's functions and methods.  The position counts the arguments a
    caller passes (``self`` and ``cls`` are bound); it is None for
    keyword-only parameters."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions = [(node, 0)]
        elif isinstance(node, ast.ClassDef):
            functions = [
                (sub, 0 if any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in sub.decorator_list
                ) else 1)
                for sub in node.body if isinstance(sub, ast.FunctionDef)
            ]
        else:
            continue
        for fn, bound in functions:
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                yield fn.name, arg.arg, i - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield fn.name, arg.arg, None


def _calls(tree: ast.Module):
    """``(called name, positional count, keyword names)`` of each call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            yield name, len(node.args), {kw.arg for kw in node.keywords}


def test_every_optional_parameter_is_set_by_a_caller():
    calls = [call for path in SRC + CALLERS for call in _calls(ast.parse(path.read_text()))]
    unset = [
        f"{fn}({param}=)"
        for path in SRC
        for fn, param, position in _optional_parameters(ast.parse(path.read_text()))
        if not any(
            name == fn and (param in keywords or (position is not None and n > position))
            for name, n, keywords in calls
        )
    ]
    assert sorted(set(unset) - set(UNSET_ALLOWED)) == []
    # An allowlisted parameter that gained a caller leaves the list.
    assert sorted(unset) == sorted(UNSET_ALLOWED)


def _wraps(node: ast.AST):
    """``(module, attribute argument)`` of each ``rec.wrap`` call under ``node``."""
    for call in ast.walk(node):
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "wrap"
        ):
            yield call.args[0].id, call.args[1]


def test_names_wrapped_by_the_benchmark_exist():
    """``perfbench/run.py`` wraps layers by module and attribute name."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    wrapped = [
        (mod, arg.value) for mod, arg in _wraps(tree) if isinstance(arg, ast.Constant)
    ]
    # A loop over string names passes its variable as the attribute.
    for loop in ast.walk(tree):
        if isinstance(loop, ast.For) and isinstance(loop.target, ast.Name):
            for mod, arg in _wraps(loop):
                if isinstance(arg, ast.Name) and arg.id == loop.target.id:
                    wrapped += [(mod, elt.value) for elt in loop.iter.elts]
    assert len(wrapped) > 15
    missing = [
        f"{mod}.{attr}" for mod, attr in wrapped
        if not hasattr(importlib.import_module(f"qpe.{mod}"), attr)
    ]
    assert missing == []
