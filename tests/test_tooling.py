"""Repository tooling: the benchmark's layer tracer must still find every
function it wraps, and the package keeps no dead helpers."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layer_tracer_installs_in_a_fresh_interpreter():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        # -B: write no bytecode under perfbench/
        [sys.executable, "-B", "-c", "import layertrace; layertrace.install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def _public_definitions(path: Path):
    """(name, first line, last line) of each public top-level definition."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
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
