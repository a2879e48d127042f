"""The package's surface holds nothing unused: every config field is read
by the program, every public function and class has a user outside its
own definition, and every defaulted parameter of a public function is
passed by some call, in ``src/rlrc`` or in perfbench's program files;
a public class's ``__init__`` counts as a public function.
No command line flag is a setting: settings live in the config alone."""

import argparse
import ast
import dataclasses
import pathlib
import re

import rlrc
from rlrc import cli
from rlrc.config import PipelineConfig

SRC = pathlib.Path(rlrc.__file__).parent
PERFBENCH = SRC.parent.parent / "perfbench"

# public names no program file uses, each with the reason it stays
UNUSED_ALLOWED = {}
# defaulted parameters no program call passes, each with the reason it stays
UNPASSED_ALLOWED = {
    "cli.main(argv)": "test hook: tests drive the CLI in-process",
    "model.init_model(seed)": "test hook: tests seed the models they build",
}

_INPUT = "a path, recorded as the checkpoint meta's parent"
# every flag of `rlrc`, each with the reason it is not a config setting
FLAGS_ALLOWED = {
    "--config": "names the config itself",
    "--seed": "applied to the config before the echo, which records it",
    "--output-dir": "applied to the config before the echo, which records it",
    "prune --input": _INPUT,
    "sft --input": _INPUT,
    "rl --input": _INPUT,
    "quantize --input": _INPUT,
    "rl --cold-start": "a mode: recorded as meta cold_start and the _cold checkpoint stem",
    "eval --input": "a path, which names the output eval_<stem>.json",
    "eval --expert": "a mode, which names the output eval_expert.json",
    "bench --inputs": "paths, each of which names its report row",
    "sweep --ratios": "the sweep's own axis, recorded in its report's ratio column",
    "sweep --quant": "the sweep's own axis, recorded in its report's quant column",
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


def defaulted_params(fn):
    """(position or None, name) of each parameter of ``fn`` with a default."""
    args = fn.args
    positional = list(enumerate(args.posonlyargs + args.args))
    out = [(i, a.arg) for i, a in positional[len(positional) - len(args.defaults):]]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def passes(call, index, name):
    """Whether ``call`` passes the parameter at ``index`` named ``name``;
    ``*args`` and ``**kwargs`` count as passing every parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args) or \
            any(k.arg is None for k in call.keywords):
        return True
    return (index is not None and index < len(call.args)) or \
        any(k.arg == name for k in call.keywords)


def test_every_defaulted_parameter_is_passed():
    calls, values = {}, set()
    for path in program_files():
        tree = ast.parse(path.read_text())
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called.add(id(node.func))
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
        # a function passed as a value (a kernel given to ``fused``) is
        # called with arguments this scan cannot see
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load) and id(node) not in called:
                values.add(getattr(node, "id", getattr(node, "attr", None)))
    unpassed = []
    for own in sorted(SRC.glob("*.py")):
        for node in ast.parse(own.read_text()).body:
            # a class's calls pass its __init__ every argument but self
            fn, skip = node, 0
            if isinstance(node, ast.ClassDef):
                fn, skip = next((f for f in node.body if isinstance(f, ast.FunctionDef)
                                 and f.name == "__init__"), None), 1
            if not isinstance(fn, ast.FunctionDef) or node.name.startswith("_") \
                    or node.name in values:
                continue
            unpassed += [f"{own.stem}.{node.name}({name})"
                         for index, name in defaulted_params(fn)
                         if not any(passes(c, None if index is None else index - skip, name)
                                    for c in calls.get(node.name, ()))]
    assert sorted(set(unpassed) - set(UNPASSED_ALLOWED)) == []
    assert sorted(set(UNPASSED_ALLOWED) - set(unpassed)) == [], "stale exception"


def parser_flags(parser, command=""):
    """Every option of ``parser`` and of its subcommands, as "command --flag"."""
    flags = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                flags += parser_flags(sub, f"{name} ")
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            flags.append(command + max(action.option_strings, key=len))
    return flags


def test_every_flag_is_a_path_or_a_mode():
    flags = parser_flags(cli.build_parser())
    assert sorted(set(flags) - set(FLAGS_ALLOWED)) == []
    assert sorted(set(FLAGS_ALLOWED) - set(flags)) == [], "stale exception"
