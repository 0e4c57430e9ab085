"""The README's library quick tour runs as written, so a name retired or
renamed in the package cannot linger in it."""

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
    # every `module.name` (with any `.attr` after it, and any call brackets
    # after that) names something the module has, so a renamed or deleted
    # name such as a retired private helper cannot stay in the prose
    text = README.read_text()
    pattern = rf"`({'|'.join(MODULES)})\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)"
    names = re.findall(pattern, text)
    assert ("snwalk", "MAX_WALK_STEPS") in names  # the pattern still reads the prose
    absent, missing = object(), []
    for module, path in names:
        obj = importlib.import_module(f"repwalk.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr, absent)
        if obj is absent:
            missing.append(f"{module}.{path}")
    assert missing == []
