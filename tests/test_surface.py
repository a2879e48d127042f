"""The package's surface holds nothing unused: every config field is read
by the program, and so is every field of a record (a dataclass or a
`NamedTuple`), every public function and class has a user outside its
own definition, and every defaulted parameter of a public function is
passed by some call, in ``src/rlrc`` or in perfbench's program files;
a public class's ``__init__`` counts as a public function.
No command line flag is a setting: settings live in the config alone.
Every subcommand states why it exists.
Episodes have one loop: among program files, `env.step` is called by
`env.run_episodes` and by `env.VecEnv`, PPO's stream of episodes, alone.
A grid's episode seeds have one source: among program files, only
`env.grid_seeds` multiplies a seed stride.
The prunable groups have one rule: among program files, only
`pruning.prunable_groups` calls `pruning.build_dependency_groups`."""

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
}

_INPUT = "a path, recorded as the meta's parent; its file stem names the output's stem"
# every flag of `rlrc`, each with the reason it is not a config setting
FLAGS_ALLOWED = {
    "--config": "names the config itself",
    "--seed": "applied to the config before the echo, which records it",
    "--output-dir": "applied to the config before the echo, which records it",
    "prune --input": _INPUT,
    "sft --input": _INPUT,
    "rl --input": _INPUT,
    "quantize --input": _INPUT,
    "bench --inputs": "paths, each of which names its report row",
}

_STAGE = "a stage of the recipe, in cli.STAGES"
# every subcommand of `rlrc`, each with the reason it exists
COMMANDS_ALLOWED = {
    "gen-demos": "writes the task split and the expert demos, the records every stage uses",
    "train-dense": _STAGE,
    "prune": _STAGE,
    "sft": _STAGE,
    "rl": _STAGE,
    "quantize": _STAGE,
    "bench": "the one command that scores checkpoints: success, bytes and decode speed",
    "pipeline": "runs gen-demos, every stage and bench in order, then writes the manifest",
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


def record_fields(source):
    """(class, field) of each annotated field of every dataclass and
    `NamedTuple` class a module defines."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and (
                any("dataclass" in ast.unparse(d) for d in node.decorator_list)
                or any(ast.unparse(b) == "NamedTuple" for b in node.bases)):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def test_every_record_field_is_read():
    sample = "@dataclass(frozen=True)\nclass A:\n    x: int\n    y = 1\n" \
             "class B(NamedTuple):\n    z: str\nclass C:\n    w: int\n"
    assert list(record_fields(sample)) == [("A", "x"), ("B", "z")]
    # by name: a field counts as read where any program file loads ``.<field>``
    reads = {node.attr for path in program_files()
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{own.stem}.{cls}.{name}" for own in sorted(SRC.glob("*.py"))
              for cls, name in record_fields(own.read_text()) if name not in reads]
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


def test_every_command_has_a_reason():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    commands = list(subparsers.choices)
    assert sorted(set(commands) - set(COMMANDS_ALLOWED)) == []
    assert sorted(set(COMMANDS_ALLOWED) - set(commands)) == [], "stale exception"


# the callers of env.step: the one loop over whole episodes, and PPO's stream
STEP_CALLERS = {"env.run_episodes", "env.VecEnv.vec_step"}


def step_callers(source, stem):
    """The functions of a module that call `env.step`, as "<stem>.<qualified
    name>": by the name a ``from ... import`` binds it or the env module to,
    or, in ``env`` itself, by its own name."""
    tree = ast.parse(source)
    steps = {"step"} if stem == "env" else set()
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for a in node.names:
                if a.name == "step" and (node.module or "").rsplit(".", 1)[-1] == "env":
                    steps.add(a.asname or a.name)
                elif a.name == "env":
                    modules.add(a.asname or a.name)
    return {".".join((stem, *scope)) for scope, node in walk_scoped(tree)
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id in steps or
                isinstance(node.func, ast.Attribute) and node.func.attr == "step" and
                isinstance(node.func.value, ast.Name) and node.func.value.id in modules)}


def walk_scoped(tree):
    """Each node under ``tree`` with the names of the functions and classes
    it is defined in, outermost first."""
    for child in ast.iter_child_nodes(tree):
        yield (), child
        inner = (child.name,) if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else ()
        for scope, node in walk_scoped(child):
            yield inner + scope, node


def test_episodes_step_through_one_loop():
    forked = "from . import env as e\nfrom .env import step as s\n" \
             "def loop(x):\n    s(x)\nclass C:\n    def f(self, x):\n        e.step(x)\n"
    assert step_callers(forked, "m") == {"m.loop", "m.C.f"}
    found = set()
    for path in program_files():
        found |= step_callers(path.read_text(), path.stem)
    assert found == STEP_CALLERS


# the one function that applies a seed stride, and the names a stride goes by:
# env's and training's constants and the grid function's parameter
STRIDE_USERS = {"env.grid_seeds"}
STRIDES = {"DEMO_SEED_STRIDE", "EVAL_SEED_STRIDE", "stride"}


def stride_products(source, stem):
    """The functions of a module that multiply a seed stride, as "<stem>.<qualified
    name>": a ``*`` or ``*=`` with an operand that is one of `STRIDES`, by
    name or as an attribute."""
    found = set()
    for scope, node in walk_scoped(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mult):
            operands = (node.left, node.right) if isinstance(node, ast.BinOp) \
                else (node.target, node.value)
            if any(getattr(o, "id", getattr(o, "attr", None)) in STRIDES for o in operands):
                found.add(".".join((stem, *scope)))
    return found


def test_grid_seeds_come_from_one_function():
    forked = "from . import training\nfrom .env import DEMO_SEED_STRIDE\n" \
             "def f(s):\n    return DEMO_SEED_STRIDE * s + 1\nclass C:\n" \
             "    def g(self, n):\n        n *= training.EVAL_SEED_STRIDE\n        return 2 * n\n"
    assert stride_products(forked, "m") == {"m.f", "m.C.g"}
    found = set()
    for path in program_files():
        found |= stride_products(path.read_text(), path.stem)
    assert found == STRIDE_USERS


# the one function that builds the dependency groups, and so the one statement
# of the exempt layers scoring, selection, counting and the config share
GROUP_BUILDERS = {"pruning.prunable_groups"}


def group_builders(source, stem):
    """The functions of a module that call `build_dependency_groups`, as
    "<stem>.<qualified name>": by that name, or as an attribute."""
    return {".".join((stem, *scope)) for scope, node in walk_scoped(ast.parse(source))
            if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "build_dependency_groups"}


def test_prunable_groups_come_from_one_function():
    forked = "from . import pruning\nfrom .pruning import build_dependency_groups\n" \
             "def f(m):\n    return build_dependency_groups(m)\nclass C:\n" \
             "    def g(self, m):\n        return pruning.build_dependency_groups(m)[1:]\n"
    assert group_builders(forked, "m") == {"m.f", "m.C.g"}
    found = set()
    for path in program_files():
        found |= group_builders(path.read_text(), path.stem)
    assert found == GROUP_BUILDERS
