"""The package root is lazy, and each command imports only what it runs.

`import repwalk` loads no submodule: an export is read from its module,
imported on first use (PEP 562).  `repwalk.cli` holds at import only what
the parser and every command share, and a command imports its library
modules when it runs, so a GL command never compiles the S_n modules and
an S_n command never compiles the GL ones.  The boundary cases each run
in a fresh interpreter, since this process has imported everything.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repwalk

SRC = Path(__file__).resolve().parents[1] / "src"

# the public names of the package, by the module that defines each
EXPORTS = {
    "errors": ["CapacityError"],
    "partitions": ["Partition", "dimension_sn", "enumerate_partitions"],
    "characters": ["CharacterTable", "CycleType", "character_table", "enumerate_classes",
                   "fixed_point_profile", "mn_character"],
    "snwalk": ["SparseKernel", "WalkDistribution", "class_walk_probability", "kernel_downup",
               "moment_fc", "moment_fc_reduced", "plancherel_samples", "plancherel_sn",
               "rsk_samples", "sn_lower_bound_estimate", "sn_tv_curve", "sn_upper_bound",
               "sn_upper_bound_squared", "tv_to_plancherel", "walk_distribution",
               "walk_distribution_spectral", "walk_samples"],
    "glirreps": ["CuspidalLabel", "GLIrrep", "cuspidal_count", "dimension_gl",
                 "enumerate_gl_irreps", "fixed_space_counts", "gl_lower_bound", "gl_upper_bound",
                 "gl_upper_bound_squared", "order_gl", "plancherel_gl", "unipotent_marginal",
                 "unipotent_tail_bound"],
    "series": ["TruncSeries", "euler_lhs_rhs", "q_pochhammer"],
    "glasymptotics": ["GLPlancherelSampler", "acceptance_probability", "cycle_index_lhs",
                      "cycle_index_rhs", "gl_plancherel_samples", "limit_marginal",
                      "suq_normalizer", "suq_weight"],
    "hsp": ["SubgroupSpec", "hsp_bounds", "induced_character_check", "load_catalogue",
            "subgroup_closure", "weak_sampling_distribution"],
}
ALL = sorted(name for names in EXPORTS.values() for name in names)

SN_ONLY = {"snwalk", "characters", "hsp"}
GL_ONLY = {"glirreps", "glasymptotics"}


def _loaded_after(code: str) -> tuple[set[str], object]:
    """The repwalk submodules a fresh interpreter holds after running code,
    and the value code left in `result`."""
    script = "\n".join([
        "import contextlib, io, json, sys",
        f"sys.path.insert(0, {str(SRC)!r})",
        "result = None",
        code,
        "import repwalk",
        f"assert repwalk.__file__.startswith({str(SRC)!r}), repwalk.__file__",
        "mods = sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('repwalk.'))",
        "print(json.dumps([mods, result]))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    mods, result = json.loads(proc.stdout.splitlines()[-1])
    return set(mods), result


def _cli_run(argv: list[str]) -> str:
    return ("from repwalk.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    result = main({argv!r})")


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import repwalk") == (set(), None)


def test_importing_the_cli_loads_no_command_module():
    loaded, _ = _loaded_after("import repwalk.cli")
    assert "cli" in loaded
    assert not loaded & (SN_ONLY | GL_ONLY | {"intervals"}), loaded


def test_a_usage_error_loads_no_command_module():
    loaded, code = _loaded_after(_cli_run(["sn-walk"]))
    assert code == 2
    assert not loaded & (SN_ONLY | GL_ONLY | {"intervals"}), loaded


def test_gl_sample_loads_no_sn_module():
    loaded, code = _loaded_after(_cli_run(["gl-sample", "--n", "3", "--q", "2", "--count", "2"]))
    assert code == 0 and "glasymptotics" in loaded
    assert not loaded & SN_ONLY, loaded


def test_sn_sample_loads_no_gl_module():
    loaded, code = _loaded_after(_cli_run(["sn-sample", "--n", "5", "--r", "3"]))
    assert code == 0 and "snwalk" in loaded
    assert not loaded & (GL_ONLY | {"hsp"}), loaded


def test_the_root_exports_the_same_names():
    assert len(ALL) == 57
    assert sorted(repwalk.__all__) == ALL
    assert set(ALL) <= set(dir(repwalk))


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_export_is_its_modules_object(module):
    owner = importlib.import_module(f"repwalk.{module}")
    for name in EXPORTS[module]:
        assert getattr(repwalk, name) is getattr(owner, name), name


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from repwalk import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == ALL
    assert all(namespace[name] is getattr(repwalk, name) for name in ALL)


@pytest.mark.parametrize("name", ["no_such_name", "_walk_start", "DEFAULT_PREC", "numpy"])
def test_an_unknown_name_raises_attribute_error(name):
    # private and module-level names of the submodules are not exports
    with pytest.raises(AttributeError, match=name):
        getattr(repwalk, name)
    assert not hasattr(repwalk, name)
