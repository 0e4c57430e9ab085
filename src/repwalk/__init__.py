"""repwalk: random walks on irreducible representations of S_n and GL(n,q).

Exact-arithmetic kernels, spectral diagonalization, total-variation cutoff
bounds, Plancherel-measure samplers, GL(n,q) Plancherel asymptotics, and
hidden-subgroup distinguishability bounds, with a reproducible CLI.
"""

__version__ = "0.1.0"

from .errors import CapacityError
from .partitions import (
    Partition,
    dimension_sn,
    enumerate_partitions,
)
from .characters import (
    CharacterTable,
    CycleType,
    character_table,
    enumerate_classes,
    fixed_point_profile,
    mn_character,
)
from .snwalk import (
    SparseKernel,
    SpectrumEntry,
    WalkDistribution,
    class_walk_probability,
    kernel_downup,
    kernel_from_tensor,
    moment_fc,
    moment_fc_reduced,
    plancherel_samples,
    plancherel_sn,
    rsk_samples,
    sn_lower_bound_estimate,
    sn_tv_curve,
    sn_upper_bound,
    sn_upper_bound_squared,
    spectrum_sn,
    tv_to_plancherel,
    walk_distribution,
    walk_distribution_spectral,
    walk_samples,
)
from .glirreps import (
    CuspidalLabel,
    GLIrrep,
    cuspidal_count,
    dimension_gl,
    enumerate_gl_irreps,
    fixed_space_counts,
    gl_lower_bound,
    gl_upper_bound,
    gl_upper_bound_squared,
    order_gl,
    plancherel_gl,
    unipotent_marginal,
    unipotent_mass_bound,
    unipotent_tail_bound,
)
from .series import TruncSeries, euler_lhs_rhs, q_pochhammer
from .glasymptotics import (
    GLPlancherelSampler,
    SUQMeasure,
    acceptance_probability,
    cycle_index_lhs,
    cycle_index_rhs,
    gl_plancherel_samples,
    limit_marginal,
    suq_mass,
    suq_measure,
    suq_normalizer,
    suq_weight,
)
from .hsp import (
    SubgroupSpec,
    hsp_bounds,
    induced_character_check,
    load_catalogue,
    subgroup_closure,
    weak_sampling_distribution,
)
