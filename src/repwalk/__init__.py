"""repwalk: random walks on irreducible representations of S_n and GL(n,q).

Exact walk laws, on the Young lattice and through the character table,
total-variation cutoff bounds, Plancherel-measure samplers, GL(n,q)
Plancherel asymptotics, and hidden-subgroup distinguishability bounds,
with a reproducible CLI.

Importing the package loads no submodule: `from repwalk import X` (or
`repwalk.X`) imports the module that defines X on first use (PEP 562), so
a process compiles only the modules it reads.
"""

import importlib

__version__ = "0.1.0"

# every public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", ("CapacityError",)),
        ("partitions", ("Partition", "dimension_sn", "enumerate_partitions")),
        ("characters", (
            "CharacterTable",
            "CycleType",
            "character_table",
            "enumerate_classes",
            "fixed_point_profile",
            "mn_character",
        )),
        ("snwalk", (
            "SparseKernel",
            "WalkDistribution",
            "class_walk_probability",
            "kernel_downup",
            "moment_fc",
            "moment_fc_reduced",
            "plancherel_samples",
            "plancherel_sn",
            "rsk_samples",
            "sn_lower_bound_estimate",
            "sn_tv_curve",
            "sn_upper_bound",
            "sn_upper_bound_squared",
            "tv_to_plancherel",
            "walk_distribution",
            "walk_distribution_spectral",
            "walk_samples",
        )),
        ("glirreps", (
            "CuspidalLabel",
            "GLIrrep",
            "cuspidal_count",
            "dimension_gl",
            "enumerate_gl_irreps",
            "fixed_space_counts",
            "gl_lower_bound",
            "gl_upper_bound",
            "gl_upper_bound_squared",
            "order_gl",
            "plancherel_gl",
            "unipotent_marginal",
            "unipotent_tail_bound",
        )),
        ("series", ("TruncSeries", "euler_lhs_rhs", "q_pochhammer")),
        ("glasymptotics", (
            "GLPlancherelSampler",
            "acceptance_probability",
            "cycle_index_lhs",
            "cycle_index_rhs",
            "gl_plancherel_samples",
            "limit_marginal",
            "suq_normalizer",
            "suq_weight",
        )),
        ("hsp", (
            "SubgroupSpec",
            "hsp_bounds",
            "induced_character_check",
            "load_catalogue",
            "subgroup_closure",
            "weak_sampling_distribution",
        )),
    )
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """The export `name`, read from its module (imported if it is not yet)
    on every access, so it is always the object the module holds."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
