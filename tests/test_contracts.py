"""Source-level contracts of the library: checks that survive `python -O`,
the one owner of the 3 | n parameter rule, the names the benchmark tracer
wraps, caches that never change a result, what CLI start-up imports, the
public names, and the semantics of the record types."""

import ast
import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import simplestfields
from simplestfields.cli import main
from simplestfields.family import CheckReport, specialize
from simplestfields.identities import IdentityResult
from simplestfields.numberfield import FieldElt, NumberField, field_elt, field_trace_powers, number_field
from simplestfields.orders import Order, power_order
from simplestfields.periodicity import check_dual_denominator_table, dual_basis, period_scan

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "simplestfields"
TRACER = ROOT / "perfbench" / "tracer.py"


def test_library_has_no_bare_assert():
    """Internal checks raise AssertionError explicitly, so `python -O` keeps them."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"bare assert statements: {found}"


def test_periodicity_reads_no_table_internals():
    """The multiplication table, its layout and its memo key belong to orders:
    periodicity imports no private name from it but _saturate."""
    path = SRC / "periodicity.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    private = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "orders"
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private <= {"_saturate"}, sorted(private)


def _is_degree(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "n") or (isinstance(node, ast.Attribute) and node.attr == "n")


def test_only_family_decides_the_parameter_scale():
    """The 3 | n rule m = t/s and the coefficients of Q(t) = t^2 + s*t + s^2
    are stated in family alone: numberfield, orders and periodicity take no
    degree mod 3 and write no coefficient list of Q."""
    found = []
    for name in ("numberfield", "orders", "periodicity"):
        path = SRC / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            degree_mod_3 = (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Mod)
                and _is_degree(node.left)
                and isinstance(node.right, ast.Constant)
                and node.right.value == 3
            )
            q_coeffs = isinstance(node, (ast.List, ast.Tuple)) and [
                getattr(e, "value", None) for e in node.elts
            ] in ([1, 1, 1], [9, 3, 1])
            if degree_mod_3 or q_coeffs:
                found.append(f"{name}.py:{node.lineno}")
    assert not found, found


def _tracer_layers() -> dict:
    """The tracer's LAYERS table, read from its source without importing it."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS table")


def test_every_traced_function_resolves():
    """The tracer looks each (layer, name) up with getattr and no default, so
    a renamed or deleted function breaks every traced benchmark run."""
    layers = _tracer_layers()
    assert layers
    missing = []
    for layer, names in layers.items():
        module = importlib.import_module(f"simplestfields.{layer}")
        missing += [f"{layer}.{name}" for name in names if not callable(getattr(module, name, None))]
    assert not missing, f"traced names that do not resolve: {missing}"


def _library_caches() -> dict:
    """Every functools cache defined in a library module, by qualified name."""
    caches = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"simplestfields.{path.stem}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                caches[f"{path.stem}.{name}"] = value
    return caches


def test_caches_leave_no_trace_in_a_result(capsys):
    """A period scan in a process whose caches are all empty and the same scan
    right after it, with every cache warm, print the same document apart from
    timing_ms: no memo may change a result."""
    caches = _library_caches()
    assert {
        "numberfield.number_field",
        "numberfield.quadratic_factorization",
        "orders._radical_kernel",
        "numutil._sieve",
    } <= set(caches)
    argv = ["period-scan", "--n", "6", "--modulus", "36", "--t-min", "-60", "--t-max", "60"]
    docs = []
    for clear in (True, False):
        if clear:
            for cache in caches.values():
                cache.cache_clear()
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        docs.append("\n".join(line for line in lines if not line.startswith('  "timing_ms":')))
    assert caches["orders._radical_kernel"].cache_info().hits > 0
    assert docs[0] == docs[1]


def _fresh_stdout(code: str) -> str:
    """The stripped stdout of code, run in a fresh interpreter that imports
    simplestfields from this checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout.strip()


def test_cli_import_loads_no_process_pool():
    """Importing the CLI and building its parser leaves the process-pool
    machinery unloaded: only a scan with workers > 1 imports it."""
    code = (
        "import sys, simplestfields.cli as cli; cli.build_parser(); "
        "print('concurrent.futures.process' in sys.modules)"
    )
    assert _fresh_stdout(code) == "False"


# Modules CLI start-up does without: dataclasses (with inspect, which it
# imports) and the identity suite with its cyclotomic arithmetic.
START_UP_UNLOADED = ("dataclasses", "inspect", "simplestfields.cyclo", "simplestfields.identities")


@pytest.mark.parametrize(
    "step, loaded",
    [
        ("pass", []),
        ("simplestfields.CycloRing", ["simplestfields.cyclo"]),
        ("cli.main(['identities', '--n-max', '3', '--seed', '1'])", ["simplestfields.cyclo", "simplestfields.identities"]),
    ],
)
def test_cli_start_up_loads_no_dataclasses_or_identity_suite(step, loaded):
    """Importing the CLI and building its parser loads none of
    START_UP_UNLOADED, though dir(simplestfields) lists the cyclotomic names;
    touching one of them loads cyclo, and the identities command loads
    identities (and cyclo with it)."""
    code = textwrap.dedent(
        f"""
        import contextlib, io, sys
        import simplestfields, simplestfields.cli as cli

        cli.build_parser()
        with contextlib.redirect_stdout(io.StringIO()):
            {step}
        print("CycloRing" in dir(simplestfields))
        print(sorted(m for m in {START_UP_UNLOADED!r} if m in sys.modules))
        """
    )
    assert _fresh_stdout(code).splitlines() == ["True", repr(loaded)]


def test_every_public_name_resolves():
    """Every name in __all__ resolves, the cyclotomic ones through the
    package's module __getattr__, and `from simplestfields import *` binds
    each of them; an unknown name raises AttributeError."""
    for name in simplestfields.__all__:
        assert getattr(simplestfields, name) is not None, name
    namespace = {}
    exec("from simplestfields import *", namespace)
    assert set(simplestfields.__all__) <= set(namespace)
    assert {"CycloRing", "sqrt_minus_three"} <= set(dir(simplestfields))
    with pytest.raises(AttributeError):
        simplestfields.no_such_name


def _records() -> list:
    """One instance of each record type of the library."""
    field = number_field(3, 1)
    return [
        specialize(3, 1),
        CheckReport(True, 0),
        IdentityResult("name", True),
        field,
        field_elt(field, [1, 2]),
        power_order(field),
        dual_basis(field),
        check_dual_denominator_table([2], 1),
        period_scan(2, 4, range(-8, 9)),
    ]


def test_record_fields_cannot_be_assigned():
    """Every field of every record type is read-only."""
    records = _records()
    assert len({type(r) for r in records}) == 9
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_order_equality_follows_field_den_basis():
    """Orders compare and hash on (field, den, basis); a cached table does
    not enter."""
    field = number_field(3, 1)
    a = power_order(field)
    b = Order(field, 1, a.basis)
    a.table
    assert a == b and hash(a) == hash(b)
    assert a in {b}
    assert a != Order(number_field(3, 2), 1, a.basis)
    assert a != Order(field, 3, a.basis)
    assert a != Order(field, 1, ((1, 0, 0), (0, 1, 0), (0, 1, 1)))


@pytest.mark.parametrize("den", [0, -1])
def test_field_element_rejects_a_nonpositive_denominator(den):
    with pytest.raises(ValueError):
        FieldElt(number_field(3, 1), (1, 0, 0), den)


def test_number_field_keys_the_trace_cache():
    """An equal NumberField built apart from number_field hits the
    field_trace_powers cache and gets the very tuple cached for the field."""
    field = number_field(5, 2)
    traces = field_trace_powers(field)
    hits = field_trace_powers.cache_info().hits
    twin = NumberField(*field)
    assert twin is not field and twin == field and hash(twin) == hash(field)
    assert field_trace_powers(twin) is traces
    assert field_trace_powers.cache_info().hits == hits + 1
