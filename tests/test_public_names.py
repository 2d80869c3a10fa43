"""The library's public names are the ones it uses itself.

A module-level function or class without a leading underscore must be
referenced somewhere in `src/chirpfed/` outside its own definition; an
import line does not count.  A reference counts only from code that is itself
kept, so two names that only refer to each other are both caught.  Code that
only tests call belongs in the tests (`tests/oracles.py`), not in the library.

The one exception is a function that a per-layer metric of `BENCHMARK.json`
names: the benchmark traces it by its module attribute, so it stays in the
library until the benchmark stops naming it.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "chirpfed"


def _references(file, tree):
    """Yield ((defining file, name), line) for each load in `file` of a
    package-level name: a bare name, resolved through the file's
    `from .module import name [as alias]` lines, or `module.name` for a
    module bound by `from . import module [as alias]`."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = f"{alias.name}.py"
                else:
                    names[local] = (f"{node.module}.py", alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield names.get(node.id, (file, node.id)), node.lineno
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            yield (modules[node.value.id], node.attr), node.lineno


def unused_public_names(src, keep=frozenset()):
    """`file:name` of every public definition nothing kept refers to.

    A definition in `keep` is never reported and its references count.  The
    check repeats, without the definitions already reported, until no more
    are found."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(src.glob("*.py"))}
    defined = {(file, node.name): (node.lineno, node.end_lineno)
               for file, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}

    def enclosing(file, line):
        return next((key for key, (first, last) in defined.items()
                     if key[0] == file and first <= line <= last), None)

    # (target, the public definition the reference sits in, or None)
    refs = [(target, enclosing(file, line))
            for file, tree in trees.items()
            for target, line in _references(file, tree)]
    unused = set()
    while True:
        used = {target for target, inside in refs
                if inside != target and inside not in unused}
        found = {key for key in defined
                 if f"{key[0]}:{key[1]}" not in keep and key not in used} - unused
        if not found:
            return sorted(f"{file}:{name}" for file, name in unused)
        unused |= found


def benchmark_traced_names():
    """`file:name` of each function a BENCHMARK.json per-layer metric names
    (`channel.apply_sto.calls` names `channel.py:apply_sto`)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {f"{parts[0]}.py:{parts[1]}" for parts in
            (m["name"].split(".") for m in bench["per_layer"]) if len(parts) == 3}


def test_every_public_library_name_is_used_by_the_library():
    assert unused_public_names(SRC, keep=benchmark_traced_names()) == []


def test_the_check_sees_names_only_tests_could_call(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def orphan(n):\n    return orphan(n - 1) if n else used()\n\n\n"
        "def reached():\n    return 2\n\n\n"
        "class Spec:\n    pass\n\n\n"
        "def harness(spec: Spec):\n    return spec\n")
    (tmp_path / "b.py").write_text(
        "from . import a\nfrom .a import orphan, used as first\n\n\n"
        "class Kept:\n    x = first()\n\n\n"
        "def touch(m):\n    return m.orphan\n\n\n"
        "VALUE = Kept.x + a.reached()\n")
    # a self-reference, an import line, an attribute of a non-module and a
    # reference from another unused name (`Spec` in `harness`) are no use
    assert unused_public_names(tmp_path) == [
        "a.py:Spec", "a.py:harness", "a.py:orphan", "b.py:touch"]
    assert unused_public_names(tmp_path, keep={"a.py:harness"}) == [
        "a.py:orphan", "b.py:touch"]


def test_benchmark_traced_names_come_from_its_per_layer_metrics():
    traced = benchmark_traced_names()
    assert {"channel.py:apply_sto", "receiver.py:grad"} <= traced
    assert not any(name.startswith(("trace.py:", "synth.py:")) for name in traced)
