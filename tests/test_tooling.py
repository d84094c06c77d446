"""Repository tooling: the benchmark's layer tracer must still find every
function it wraps and see every rule call, the package keeps no dead
helpers, no module imports a name it does not use, and no structure
constant has two rules."""
import ast
import inspect
import itertools
import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from hopfcomb import cli
from hopfcomb.axioms import hopf_check

ROOT = Path(__file__).resolve().parent.parent


def _traced(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with the layer tracer on its path."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        # -B: write no bytecode under perfbench/
        [sys.executable, "-B", "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )


def test_layer_tracer_installs_in_a_fresh_interpreter():
    proc = _traced("import layertrace; layertrace.install()")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("kind, layer", [
    ("phisym:phi", "phisym"), ("piqsym:upi", "sgqsym"), ("wsym:Mw", "sgqsym"),
    ("phisym:Y", "phisym"), ("ccqsym:Mpa", "parkfunc"),
], ids=["phisym:phi", "piqsym:upi", "wsym:Mw", "phisym:Y", "ccqsym:Mpa"])
def test_traced_rule_layers_see_every_rule_call_of_a_held_sweep(kind, layer):
    """The tracer patches the registry records' rule fields, so a sweep's
    tables must sit behind those fields for its rule layers to count every
    call: a cache in front of them would hide arguments from the layers."""
    proc = _traced(
        "import json, layertrace\n"
        "tracer = layertrace.install()\n"
        "from hopfcomb import cli\n"
        "from hopfcomb.axioms import hopf_check\n"
        f"hopf_check(cli._REGISTRY[{kind!r}], 5)\n"
        "print(json.dumps(tracer.metrics()))\n")
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout.splitlines()[-1])
    record = cli._REGISTRY[kind]
    calls = {"product": Counter(), "coproduct": Counter()}

    def counting(op):
        def rule(*args):
            calls[op][args] += 1
            return getattr(record, op)(*args)

        return rule

    hopf_check(replace(record, product=counting("product"), coproduct=counting("coproduct")), 5)
    for op, seen in calls.items():
        assert seen
        assert traced[f"{layer}.{op}.distinct"] == len(seen), op
        assert traced[f"{layer}.{op}.calls"] == sum(seen.values()), op


@pytest.mark.parametrize("family, layer", [
    ("sylvester-q-classes", "qdeform.census"), ("parking-stalactic", "stalactic"),
])
def test_traced_layers_see_the_counts_the_cli_calls(family, layer):
    """The count table calls its functions through their modules at call
    time, so the tracer's patched module globals reach them."""
    proc = _traced(
        "import contextlib, io, json, layertrace\n"
        "tracer = layertrace.install()\n"
        "from hopfcomb import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['count', '--family', {family!r}, '5']) == 0\n"
        "print(json.dumps(tracer.metrics()))\n")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])[f"{layer}.s"] > 0


def _public_definitions(path: Path):
    """(name, first line, last line) of each public top-level definition."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets
                     for n in (t.elts if isinstance(t, ast.Tuple) else [t])
                     if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        for name in names:
            if not name.startswith("_"):
                yield name, first, node.end_lineno


def test_no_dead_helpers():
    """Every public top-level name of the package is used outside its own
    definition somewhere in src/, tests/ or perfbench/."""
    sources = {path: path.read_text().splitlines()
               for folder in ("src", "tests", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))}
    dead = []
    for module in sorted((ROOT / "src" / "hopfcomb").glob("*.py")):
        for name, first, last in _public_definitions(module):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line)
                       for path, lines in sources.items()
                       for number, line in enumerate(lines, start=1)
                       if not (path == module and first <= number <= last)):
                dead.append(f"{module.name}:{name}")
    assert dead == []


def test_no_unused_imports():
    """Every name a module of the package or the tests imports at its top
    level is read in that module; ``__init__.py`` re-exports and ``from
    __future__`` are exempt."""
    unused = []
    for path in sorted([*(ROOT / "src" / "hopfcomb").glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in read]
    assert unused == []


def test_one_bounds_value():
    """Every guard reads ``limits.LIMITS``: no other module of the package
    builds a ``Limits``, and no function takes a ``limits`` argument."""
    found = []
    for module in sorted((ROOT / "src" / "hopfcomb").glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Call) and module.name != "limits.py":
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Limits":
                    found.append(f"{module.name}:{node.lineno} calls Limits(")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                          *filter(None, (args.vararg, args.kwarg))]
                if any(param.arg == "limits" for param in params):
                    found.append(f"{module.name}:{node.lineno} takes limits")
    assert found == []



# where the package builds a basis record: the registry, and the three
# module adapters the benchmark calls
RECORD_BUILDERS = {("cli.py", "_REGISTRY"), ("eqsym.py", "algebra"), ("sgqsym.py", "algebra"),
                   ("parkfunc.py", "cc_algebra")}


def _defined_name(node: ast.stmt) -> str | None:
    """The name a top-level statement defines or assigns, if any."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return next((t.id for t in targets if isinstance(t, ast.Name)), None)


def test_one_registry_of_basis_records():
    """No module of the package builds a ``GradedBasis`` outside the
    registry and the three adapters, so every record is one ``verify`` sees."""
    found = []
    for module in sorted((ROOT / "src" / "hopfcomb").glob("*.py")):
        for top in ast.parse(module.read_text()).body:
            if (module.name, _defined_name(top)) in RECORD_BUILDERS:
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name == "GradedBasis":
                        found.append(f"{module.name}:{node.lineno} calls GradedBasis(")
    assert found == []


AUDIT_DEGREE = 4


def test_one_rule_per_structure_constant():
    """Two registered records over one label family whose products agree on
    every pair, or whose coproducts agree on every label, of total degree at
    most ``AUDIT_DEGREE`` compute one structure constant, so they must share
    one rule: ``inspect.unwrap`` sees through ``lincomb.relabelled``."""
    by_family = {}
    for kind, record in cli._REGISTRY.items():
        if record.family.labels is not None:
            by_family.setdefault(record.family, []).append((kind, record))
    duplicates = []
    for family, records in by_family.items():
        labels = [x for n in range(AUDIT_DEGREE + 1) for x in family.labels(n)]
        cases = {"product": [(x, y) for x in labels for y in labels
                             if family.degree(x) + family.degree(y) <= AUDIT_DEGREE],
                 "coproduct": [(x,) for x in labels]}
        for op, op_cases in cases.items():
            rules = [(kind, getattr(record, op)) for kind, record in records
                     if getattr(record, op) is not None]
            values = {kind: [rule(*case).terms for case in op_cases] for kind, rule in rules}
            for (kind1, rule1), (kind2, rule2) in itertools.combinations(rules, 2):
                if (values[kind1] == values[kind2]
                        and inspect.unwrap(rule1) is not inspect.unwrap(rule2)):
                    duplicates.append(f"{op} of {kind1} and {kind2}")
    assert duplicates == []
