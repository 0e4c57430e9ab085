"""The README's library quick tour runs as written, so a name retired or
renamed in the package cannot linger in it."""

import argparse
import ast
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs():
    section = README.read_text().split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md quick tour", "exec"), {})


MODULES = ("snwalk", "partitions", "characters", "rng", "series", "glirreps",
           "glasymptotics", "hsp", "intervals", "cli")


def test_backticked_module_names_resolve():
    # every backticked dotted name whose first part is a module, as in
    # `snwalk.MAX_WALK_STEPS`, or a module-level name of one, as in
    # `_ExactEngine.law` (with any call brackets after it), names something
    # that exists, so a renamed or deleted name such as a retired private
    # helper or engine method cannot stay in the prose
    modules = [importlib.import_module(f"repwalk.{m}") for m in MODULES]
    names = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", README.read_text())
    absent, resolved, missing = object(), [], []
    for name in names:
        head, *path = name.split(".")
        owners = [m for m in modules if m.__name__ == f"repwalk.{head}"]
        owners = owners or [getattr(m, head) for m in modules if hasattr(m, head)]
        if not owners:
            continue  # a name from outside the package, such as `functools.lru_cache`
        obj = owners[0]
        for attr in path:
            obj = getattr(obj, attr, absent)
        (missing if obj is absent else resolved).append(name)
    # the pattern still reads the prose, module heads and class heads alike
    assert {"snwalk.MAX_WALK_STEPS", "_ExactEngine.law"} <= set(resolved)
    assert missing == []


def _returned_codes(node):
    # the integer literals an expression can evaluate to, both arms of a
    # conditional expression included
    if isinstance(node, ast.IfExp):
        return _returned_codes(node.body) | _returned_codes(node.orelse)
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return {node.value}
    return set()


def _exit_code_sentence(text):
    sentence = re.search(r"Exit codes:(.*?)\.(?:\s|$)", " ".join(text.split())).group(1)
    return {int(code) for code in re.findall(r"(?:^ |, )(\d+) ", sentence)}


def test_exit_codes_are_documented():
    # every exit code cli.main or a command can return is listed in the
    # README's "Exit codes:" sentence and in the cli module docstring
    cli = importlib.import_module("repwalk.cli")
    tree = ast.parse(Path(cli.__file__).read_text())
    codes = set()
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and (fn.name == "main" or fn.name.startswith("_cmd_")):
            for node in ast.walk(fn):
                if isinstance(node, ast.Return) and node.value is not None:
                    codes |= _returned_codes(node.value)
    assert {0, 1, 2, 3, 4} <= codes  # the walk still reads every command
    assert codes <= _exit_code_sentence(README.read_text())
    assert codes <= _exit_code_sentence(cli.__doc__)


def test_cli_flags_match_the_cli_section():
    # every option of every subcommand is named in the README's CLI section,
    # and every flag written there is an option of some subcommand, so a
    # retired or a new flag cannot drift from the docs
    cli = importlib.import_module("repwalk.cli")
    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    options = {flag for parser in subcommands.choices.values() for action in parser._actions
               for flag in action.option_strings if flag.startswith("--")} - {"--help"}
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    written = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert {"--count", "--threads", "--gens"} <= options
    assert sorted(options - written) == []
    assert sorted(written - options) == []
