"""Every function, class and method in `src/perigid` has a caller there,
and every field of a dataclass there has a reader.

The library is the decision pipeline: a name that only the tests reach
belongs in the tests.  A definition counts as called when its name is read
somewhere in `src/perigid` outside its own body: a function or class as a
name or an attribute, a method as an attribute.  A field counts as read
when its name is read as an attribute outside its own declaration.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "perigid"

# Read only from outside src/: the benchmark reads these, and they move out
# with it when it is rebuilt (ROADMAP item 1).
ALLOWED = {
    "rigidity.generic_rigidity_rank",  # perfbench/workloads.py
    "sparsity.brute_force_sparsity",  # perfbench/tests, through `perigid`
    "sparsity.max_laman_sparse_subset",  # perfbench/tests, through `perigid.rigidity`
}
ALLOWED_FIELDS = {"sparsity.BruteForceReport.violation"}  # leaves with brute_force_sparsity


def _definitions(tree):
    """(qualified name, node, is a method) for each top-level def, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield f"{node.name}.{sub.name}", sub, True


def _fields(tree):
    """(qualified name, node) for each field of a top-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    yield f"{node.name}.{sub.target.id}", sub


def _trees_and_reads():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = []  # (module, line, name read, read as an attribute?)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((module, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute):
                reads.append((module, node.lineno, node.attr, True))
    return trees, reads


def uncalled() -> list[str]:
    trees, reads = _trees_and_reads()
    missing = []
    for module, tree in trees.items():
        for qualified, node, method in _definitions(tree):
            if node.name.startswith("__") and node.name.endswith("__"):  # dunder and dataclass hooks
                continue
            if not any(
                read == node.name and (attr or not method) and not (where == module and node.lineno <= line <= node.end_lineno)
                for where, line, read, attr in reads
            ):
                missing.append(f"{module}.{qualified}")
    return missing


def unread_fields() -> list[str]:
    trees, reads = _trees_and_reads()
    return [
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, node in _fields(tree)
        if not any(
            attr and read == node.target.id and not (where == module and node.lineno <= line <= node.end_lineno)
            for where, line, read, attr in reads
        )
    ]


def test_every_definition_has_a_caller_in_src():
    # an allowed name that gains a caller leaves the list too
    assert sorted(uncalled()) == sorted(ALLOWED)


def test_every_dataclass_field_is_read_in_src():
    assert sorted(unread_fields()) == sorted(ALLOWED_FIELDS)
