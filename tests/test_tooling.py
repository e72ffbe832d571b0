"""The benchmark tracer and input builder, the scripts and the package's public names.

``perfbench/tracing.py`` rebinds package functions by name,
``perfbench/workloads.py`` builds the benchmark's inputs through the
package API, and the scripts under ``scripts/`` import package names, so a
renamed or deleted function breaks a benchmark run or a script without
failing any other test.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import matgrowth
from tracing import Tracer

missing = [name for name in matgrowth.__all__ if not hasattr(matgrowth, name)]
assert not missing, f"matgrowth.__all__ names nothing for {missing}"
Tracer().install()
print("installed")
"""


def test_tracer_installs_and_every_export_resolves():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    run = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "installed"


@pytest.mark.parametrize("workload", ["corpus", "products", "wide_field", "incidence"])
def test_benchmark_inputs_build_in_a_fresh_interpreter(workload, tmp_path):
    out = tmp_path / workload
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "workloads.py"),
         "--workload", workload, "--seed", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    plan = json.loads((out / "plan.json").read_text())
    assert plan["workload"] == workload
    assert plan["ops"]
    assert all(op["input"] in plan["inputs"] for op in plan["ops"] if "input" in op)
    assert all(Path(path).is_file() for path in plan["inputs"].values())


SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_every_name_a_script_imports_from_the_package_resolves(script):
    imports = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(script.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "matgrowth"
        for alias in node.names
    ]
    assert imports
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing


def test_energy_sweep_help_runs_in_a_fresh_interpreter():
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "energy_sweep.py"), "--help"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "--sizes" in run.stdout


@pytest.mark.parametrize("group", ["T2", "H"])
def test_energy_sweep_runs_a_small_sweep(group, capsys):
    # the sweep calls the profiles and the flags, so a change to their
    # signatures breaks it where ``--help`` alone would still pass
    spec = importlib.util.spec_from_file_location("energy_sweep", ROOT / "scripts" / "energy_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.main(["--group", group, "--sizes", "6:6:1", "--trials", "2"]) == 0
    header, _, row = capsys.readouterr().out.splitlines()
    assert header.startswith(f"group={group} ")
    assert row.split()[:2] == ["6", "2"]


def test_an_incidence_pass_reproduces_the_pinned_digests(tmp_path):
    # A pass writes each bridge and probe result field by field from its
    # dataclasses, so a field added to one of them moves these digests
    # without moving any report's.
    inputs, outdir = tmp_path / "inputs", tmp_path / "pass0"
    for cmd in (
        [str(ROOT / "perfbench" / "workloads.py"), "--workload", "incidence", "--seed", "1",
         "--out", str(inputs)],
        [str(ROOT / "perfbench" / "worker.py"), str(inputs / "plan.json"), str(outdir)],
    ):
        run = subprocess.run([sys.executable, *cmd], capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())["incidence"]
    pins = {**pins["fixed"], **pins["seeds"]["1"]}
    ops = json.loads((outdir / "result.json").read_text())["ops"]
    assert {op["id"] for op in ops} == set(pins)
    for op in ops:
        assert (op["digest"], op["code"]) == (pins[op["id"]]["digest"], pins[op["id"]]["exit_code"]), op["id"]


def test_only_the_kernel_imports_numpy():
    # ``kernel`` loads numpy with one BLAS thread; a module importing it
    # directly could load it first, with the default thread pool.
    def imports_numpy(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
        return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"

    importers = sorted(
        path.name
        for path in (ROOT / "src" / "matgrowth").rglob("*.py")
        if any(map(imports_numpy, ast.walk(ast.parse(path.read_text()))))
    )
    assert importers == ["kernel.py"]


def test_one_predicate_asks_whether_numpy_is_loaded():
    # ``groups.numpy_loaded`` picks the array forms of the passes over a
    # set and, through ``growth._use_kernel``, the kernel for every pair
    # enumeration and the line profile; a second copy of the test could
    # pick differently
    def asks(node):
        return (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Constant)
            and node.left.value == "numpy"
            and isinstance(node.ops[0], ast.In)
            and ast.unparse(node.comparators[0]) == "sys.modules"
        )

    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "matgrowth").rglob("*.py"))
    }
    askers = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and any(map(asks, ast.walk(node)))
    ]
    assert askers == ["groups.py:numpy_loaded"]
    assert sum(asks(node) for tree in trees.values() for node in ast.walk(tree)) == 1
    growth = ast.parse((ROOT / "src" / "matgrowth" / "growth.py").read_text())
    use_kernel = next(
        node for node in growth.body if isinstance(node, ast.FunctionDef) and node.name == "_use_kernel"
    )
    assert "numpy_loaded()" in ast.unparse(use_kernel)


def test_every_cap_refusal_goes_through_the_two_checks():
    # ``config.check_pairs`` and ``config.check_set`` own the cap messages,
    # so a ``raise CapExceeded`` anywhere else would be a second form
    def cap_raises(tree):
        return sum(
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "CapExceeded"
            for node in ast.walk(tree)
        )

    outside = {}
    for path in sorted((ROOT / "src" / "matgrowth").rglob("*.py")):
        tree = ast.parse(path.read_text())
        owners = [
            node for node in ast.walk(tree)
            if path.name == "config.py"
            and isinstance(node, ast.FunctionDef)
            and node.name in ("check_pairs", "check_set")
        ]
        assert all(map(cap_raises, owners))
        outside[path.name] = cap_raises(tree) - sum(map(cap_raises, owners))
    assert outside == dict.fromkeys(outside, 0)


def test_the_report_runs_every_section_through_one_step_runner():
    # sections are module-level functions of their inputs; ``run_report``
    # nests one function, the step runner, and its handler is the one that
    # turns a refusal into a marker, so the marker rule lives in one place
    tree = ast.parse((ROOT / "src" / "matgrowth" / "reports.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Nonlocal, ast.Global))]
    run_report = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "run_report"
    )
    nested = [
        node for node in ast.walk(run_report)
        if node is not run_report and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    ]
    assert len(nested) <= 1
    cap_handlers = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and "CapExceeded" in ast.unparse(node.type)
    ]
    assert len(cap_handlers) == 1


def test_measurements_of_a_read_their_products():
    # a function of A takes a ``GroupSet`` or ``Products`` and reads A's
    # coset fibers and keys, its dyadic pieces and the caps from it, so no
    # caller hands them in beside A
    injected = {"fibers", "keys", "pieces", "caps"}
    taken = [
        f"{name}:{getattr(node, 'name', 'lambda')}({arg.arg})"
        for name in ("cosets.py", "structure.py")
        for node in ast.walk(ast.parse((ROOT / "src" / "matgrowth" / name).read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in ast.walk(node.args)
        if isinstance(arg, ast.arg) and arg.arg in injected
    ]
    assert taken == []


def test_growth_checks_the_pair_cap_only_where_it_enumerates():
    # ``growth._enumerate`` refuses every product set, counting pass and
    # representation count before it picks a path; ``Products._climb``'s
    # whole-group stop enumerates nothing, so it is the one other check
    tree = ast.parse((ROOT / "src" / "matgrowth" / "growth.py").read_text())

    def checks(node):
        return sum(
            isinstance(call, ast.Call) and getattr(call.func, "id", None) == "check_pairs"
            for call in ast.walk(node)
        )

    scopes = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    scopes.update(
        (f"{cls.name}.{node.name}", node)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef)
    )
    callers = {name: checks(node) for name, node in scopes.items() if checks(node)}
    assert callers == {"_enumerate": 1, "Products._climb": 1}
    assert checks(tree) == 2


# Read only from outside the package: ``perfbench/tracing.py`` rebinds the
# first two, and ``perfbench/workloads.py`` builds its subfield sets with
# the third.
READ_OUTSIDE = {"build_instance", "line_groups", "explicit_setfile"}


def test_every_package_definition_is_read():
    # a module-level function or class that nothing in the package reads,
    # that is not exported and that nothing outside reads is dead code, or
    # an oracle that belongs in ``tests/oracles.py``
    def names(node):
        return Counter(
            getattr(n, "id", None) or n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        )

    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "matgrowth").glob("*.py"))
    }
    used = {name: names(tree) for name, tree in trees.items()}
    exported = set(importlib.import_module("matgrowth").__all__) | READ_OUTSIDE
    unread = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in exported
        and used[module][node.name] == names(node)[node.name]
        and not any(used[other][node.name] for other in trees if other != module)
    ]
    assert unread == []


def test_the_kernel_reduces_only_through_its_helper():
    # ``%`` on an int64 array takes about twice as long as ``kernel._reduce``'s
    # floor division by a scalar, so the kernel has no ``%`` at all
    tree = ast.parse((ROOT / "src" / "matgrowth" / "kernel.py").read_text())
    mods = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod)
    ]
    assert mods == []


def test_the_bridge_makes_no_field_size_or_kind_choice():
    # every bridge loop reads the field's dense tables, tabulated or
    # computed on read, so ``incidence`` tests neither the field's size nor
    # its kind: no DENSE_FIELD, no comparison with q, no extension degree
    # and no arithmetic mod p.  The probes' two-sided count keeps its prime
    # loop, and the probe draw its % q
    def is_q(node):
        return (isinstance(node, ast.Name) and node.id == "q") or (
            isinstance(node, ast.Attribute) and node.attr == "q"
        )

    source = (ROOT / "src" / "matgrowth" / "incidence.py").read_text()
    assert "DENSE_FIELD" not in source
    tree = ast.parse(source)
    exempt = {"incidence_count", "random_instance"}
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name not in exempt:
            found[node.name] = [
                sub.lineno
                for sub in ast.walk(node)
                if (isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.Mod))
                or (isinstance(sub, ast.Attribute) and sub.attr == "r")
                or (isinstance(sub, ast.Compare) and any(map(is_q, [sub.left, *sub.comparators])))
            ]
    assert {"class_points", "_class_incidences", "_normalise", "_directions", "_least_line"} <= set(found)
    assert found == {name: [] for name in found}


def test_one_table_layout_serves_extension_field_arithmetic():
    # ``FieldSpec._log_tables`` is the one layout that extension-field
    # arithmetic reads, so its ``_tables`` view, if read at all, is read in
    # ``ffield``; the dense tables serve the bridge loops of ``incidence`` alone
    def named(node, names):
        return (
            (isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.alias) and node.name in names)
        )

    raw, dense = set(), set()
    for path in sorted((ROOT / "src" / "matgrowth").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "_tables":
                raw.add(path.name)
            if named(node, ("_dense_tables", "DENSE_FIELD")):
                dense.add(path.name)
    assert raw <= {"ffield.py"}
    assert dense == {"ffield.py", "incidence.py"}


# The records that stay dataclasses, each with what needs the dataclass.
# Every other record is a ``typing.NamedTuple``, whose class a process
# builds with one ``eval``: a frozen dataclass compiles about six generated
# methods with ``exec`` at import, in every fresh process.
KEPT_DATACLASSES = {
    "exact.py:BoundCheck": "perfbench/worker.py's plain() walks it with dataclasses.fields",
    "incidence.py:CollinearStats": "walked by plain(); the bridge copies it with replace",
    "incidence.py:ClassReport": "walked by plain()",
    "incidence.py:BridgeReport": "walked by plain()",
    "incidence.py:ProbeReport": "walked by plain(); reports.probe_json reads its fields",
    "config.py:RunOptions": "perfbench/worker.py and the tests copy it with replace",
    "config.py:StructureOptions": "validates in __post_init__; from_json reads its fields",
    "config.py:Caps": "read through its class-attribute defaults",
    "groups.py:SubgroupTag": "validates in __post_init__, has slots; the tracer patches elements",
}


def test_only_the_listed_records_are_dataclasses_and_every_record_has_a_docstring():
    # a dataclass without a docstring also costs an inspect.signature call
    # at import, to make one up
    def decorator_name(node):
        return ast.unparse(node.func if isinstance(node, ast.Call) else node)

    dataclasses, undocumented = set(), []
    for path in sorted((ROOT / "src" / "matgrowth").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            name = f"{path.name}:{node.name}"
            is_dataclass = any(decorator_name(d) == "dataclass" for d in node.decorator_list)
            is_namedtuple = any(ast.unparse(b) == "NamedTuple" for b in node.bases)
            if is_dataclass:
                dataclasses.add(name)
            if (is_dataclass or is_namedtuple) and ast.get_docstring(node) is None:
                undocumented.append(name)
    assert dataclasses == set(KEPT_DATACLASSES)
    assert undocumented == []
