"""The package's surface holds nothing unused: every config field is read
by the program, and every public function and class has a user outside
its own definition, in ``src/rlrc`` or in perfbench's program files."""

import ast
import dataclasses
import pathlib
import re

import rlrc
from rlrc.config import PipelineConfig

SRC = pathlib.Path(rlrc.__file__).parent
PERFBENCH = SRC.parent.parent / "perfbench"

# public names no program file uses, each with the reason it stays
UNUSED_ALLOWED = {
    "kernels.set_alloc_hook": "test hook: tests count qmatmul's transient weight tiles with it",
}


def program_files():
    return sorted(SRC.glob("*.py")) + sorted(p for p in PERFBENCH.glob("*.py")
                                             if not p.name.startswith("test_"))


def test_every_config_field_is_read():
    text = "\n".join(p.read_text() for p in sorted(SRC.glob("*.py")))
    unread = [f"{cls.__name__}.{f.name}"
              for cls in (PipelineConfig, *PipelineConfig._SECTIONS.values())
              for f in dataclasses.fields(cls)
              if not re.search(rf"\.{f.name}\b", text)]
    assert unread == []


def used_names(tree, skip=()):
    """Names a module's code uses (loads, attributes, imports), outside
    the subtrees in ``skip``."""
    skipped = {id(n) for root in skip for n in ast.walk(root)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_definition_is_used():
    trees = {p: ast.parse(p.read_text()) for p in program_files()}
    used = {p: used_names(tree) for p, tree in trees.items()}
    unused = []
    for own in sorted(SRC.glob("*.py")):
        for node in trees[own].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if not any(node.name in names for p, names in used.items() if p != own) \
                    and node.name not in used_names(trees[own], [node]):
                unused.append(f"{own.stem}.{node.name}")
    assert sorted(set(unused) - set(UNUSED_ALLOWED)) == []
    assert sorted(set(UNUSED_ALLOWED) - set(unused)) == [], "stale exception"
