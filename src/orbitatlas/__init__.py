"""orbitatlas: exact cohomogeneity computations for adjoint orbits.

The package computes, with exact integers plus residues mod 2**31 - 1 (no
floating point anywhere), the cohomogeneity of adjoint orbits of complex
semi-simple Lie algebras under their compact real forms; catalogs nilpotent
orbits, their dimensions and closure order; decomposes algebras under
sl2-triples; and assembles the resulting classification tables.  The `atlas`
command line exposes the same drivers.
"""

from .branching import branch_adjoint, restriction_matrix, weight_multiplicities
from .chevalley import AlgebraElement, ChevalleyAlgebra, build_algebra
from .classify import (
    assemble_tables_2_3,
    mixed_orbit_cohom,
    product_orbit_cohom,
    reproduce_table1,
    reproduce_thm_ss_c2,
)
from .cohom import (
    CohomReport,
    SampleConfig,
    cohom_adjoint,
    real_orbit_dim,
    sample_orbit_point,
)
from .flags import (
    PaintedDiagram,
    classify_ss_low_cohom,
    flag_cohom,
    isotropy_roots,
    kostant_summands,
    painted,
    scan_ss_cohom,
)
from .linalg import kernel_basis_int, rank_int_rows, solve_linear
from .orbits import (
    OrbitLabel,
    Partition,
    WeightedDynkinDiagram,
    dominates,
    hasse_diagram,
    minimal_orbit,
    next_to_minimal,
    orbit_dimension,
    representative,
    valid_partitions,
    weighted_diagram,
)
from .roots import (
    CartanType,
    RootSystem,
    build_root_system,
    parse_cartan_type,
    root_centralizer_subsystem,
)
from .sl2 import (
    Sl2Triple,
    commutant_dim,
    complete_triple,
    isotypic_decomposition,
    triple_centralizer,
)

__version__ = "0.1.0"
