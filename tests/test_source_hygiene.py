"""Source hygiene, checked with the standard library's ast module.

No module of the package imports a name it never uses (the package's
__init__ re-exports, so it is exempt), and every private (_-prefixed)
function, class or module-level name and every public UPPER_CASE module
constant the package defines is read somewhere: in the package, the tests
or the benchmark harness.  Every public module-level function or class
is read by the package, exported by its __init__ or read by the benchmark
harness; one only the tests read is a test helper for tests/oracles.py.
A helper or a knob left behind by a refactor fails here; a function's
reads of its own name inside its own body (a recursive call) do not
count.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repwalk"


def _trees(*dirs: Path) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), str(path))
            for d in dirs for path in sorted(d.rglob("*.py"))}


def _names_read(tree: ast.AST) -> Counter:
    """How often a module reads each name: loaded names and attributes,
    names it imports from elsewhere, and the parts of each string constant
    that is one dotted word (a monkeypatch target, an attribute named for a
    tracer), so a docstring that names a helper does not count."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and not any(c.isspace() for c in node.value):
            out.update(node.value.split("."))
    return out


def test_no_unused_imports():
    unused = []
    for path, tree in _trees(PACKAGE).items():
        if path.name == "__init__.py":
            continue
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused


def _module_names(tree: ast.Module):
    """(name, line) of every module-level assignment."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node.lineno


def _definitions(tree: ast.Module):
    """(name, line) of every function or class at any depth and of every
    module-level assignment."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
    yield from _module_names(tree)


def _reads() -> Counter:
    reads = Counter()
    for tree in _trees(PACKAGE, ROOT / "tests", ROOT / "perfbench").values():
        reads += _names_read(tree)
    return reads


def _unread_private(trees: dict[Path, ast.Module], reads: Counter) -> list[str]:
    """The private names the trees define that nothing reads but their own
    bodies: the reads of a function's name inside any function of that
    name are taken off its count.  Dunder names are not private."""
    own = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own[node.name] += _names_read(node)[node.name]
    return [f"{path.name}:{line} {name}"
            for path, tree in trees.items()
            for name, line in _definitions(tree)
            if name.startswith("_") and not name.endswith("__") and reads[name] <= own[name]]


def test_every_private_name_is_read():
    assert not _unread_private(_trees(PACKAGE), _reads())


def test_a_recursive_helper_with_no_caller_is_unread():
    # _walk calls only itself; _count calls itself and has a caller, as
    # partitions._bounded_counts and characters._mn do
    tree = ast.parse(
        "def _walk(n):\n"
        "    return _walk(n - 1) if n else 0\n"
        "def _count(n):\n"
        "    return _count(n - 1) + 1 if n else 0\n"
        "def total(n):\n"
        "    return _count(n)\n")
    trees = {Path("m.py"): tree}
    assert _unread_private(trees, _names_read(tree)) == ["m.py:1 _walk"]


def _unread_public(trees: dict[Path, ast.Module], reads: Counter) -> list[str]:
    """The public module-level functions and classes the trees define that
    nothing in reads names outside their own bodies."""
    return [f"{path.name}:{node.lineno} {node.name}"
            for path, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and reads[node.name] <= _names_read(node)[node.name]]


def test_every_public_name_is_used():
    # read by the package, imported by its __init__ (an export) or read by
    # the benchmark harness: a public function or class only the tests read
    # is a test helper, and belongs in tests/oracles.py
    reads = sum(map(_names_read, _trees(PACKAGE, ROOT / "perfbench").values()), Counter())
    assert not _unread_public(_trees(PACKAGE), reads)


def test_a_public_name_read_only_by_itself_is_unread():
    # walk reads only itself; total is read by the module too
    tree = ast.parse(
        "def walk(n):\n"
        "    return walk(n - 1) if n else 0\n"
        "def total(n):\n"
        "    return total(n - 1) + 1 if n else 0\n"
        "class Box:\n"
        "    def grow(self):\n"
        "        return Box()\n"
        "BOXES = [Box(), total(2)]\n")
    trees = {Path("m.py"): tree}
    assert _unread_public(trees, _names_read(tree)) == ["m.py:1 walk"]


def test_every_public_constant_is_read():
    reads = _reads()
    constants = [(path.name, line, name)
                 for path, tree in _trees(PACKAGE).items()
                 for name, line in _module_names(tree)
                 if name.isupper() and not name.startswith("_")]
    assert constants
    unread = [f"{path}:{line} {name}" for path, line, name in constants if name not in reads]
    assert not unread
