"""Every module-level function and class of sldl has a caller.

A definition counts as called when a name or attribute elsewhere in
``src/sldl`` reads it (an import alone does not count, nor a reference
from inside the definition itself), when ``sldl/__init__`` exports it, or
when it is on OUTSIDE_CALLERS with the caller outside the package named.
"""

import ast
from pathlib import Path

import sldl

SRC = Path(sldl.__file__).resolve().parent

# module.name -> its caller outside src/sldl
OUTSIDE_CALLERS = {
    "cli.validate_report": "perfbench/workloads.py",
    "matcore.as_matrix": "perfbench/tracer.py",
    "quasidiff.wronskian_residual": "perfbench/workloads.py",
    "quasidiff.model_to_json": "scripts/cli_digest.py",
}


def _definitions_and_reads():
    """{module.name: definition node} and the (name, node) reads of every module."""
    defs, reads = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[f"{path.stem}.{node.name}"] = node
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                reads.append((node.attr, node))
    return defs, reads


def _exports():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_every_module_level_definition_has_a_caller():
    defs, reads = _definitions_and_reads()
    exported = _exports()
    uncalled = []
    for qualified, node in defs.items():
        name = qualified.split(".")[1]
        inside = {id(n) for n in ast.walk(node)}
        called = any(read == name and id(n) not in inside for read, n in reads)
        if not (called or name in exported or qualified in OUTSIDE_CALLERS):
            uncalled.append(qualified)
    assert uncalled == []


def test_the_outside_callers_exist_and_call():
    root = SRC.parents[1]
    for qualified, caller in OUTSIDE_CALLERS.items():
        assert qualified.split(".")[1] in (root / caller).read_text(encoding="utf-8"), qualified
