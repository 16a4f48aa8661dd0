"""Finite-dimensional matrix *-algebra toolkit.

Computes generated unital *-algebras and commutants, block-interaction
sparsity of generator tuples under equal-trace projection families,
compression of sparse tuples into a single projection, and synthesis of
two-self-adjoint (equivalently single) generators, with every generation
claim verified numerically.
"""

from .matrix_core import (
    DEFAULT_TOL,
    ToleranceConfig,
    dimension_cap,
    direct_sum,
    frobenius_norm,
    hermitian_function,
    identity,
    load_matrix,
    matrix_from_doc,
    matrix_to_doc,
    normalized_trace,
    operator_norm,
    save_matrix,
    unit_matrix,
)
from .star_algebra import AlgebraBasis, commutant, contains, equal, full_matrix_basis, generate
from .matrix_units import (
    MatrixUnitSystem,
    UnitSystemReport,
    amplified_units,
    corner_chain,
    nested_product,
    shift_pair,
    standard_units,
    system_from_units,
    tensor_units,
    verify,
)
from .sparsity import (
    BlockPattern,
    GeneratorTuple,
    ProjectionFamily,
    SparsityReport,
    align_families,
    block_pattern,
    conjugate_family,
    diagonal_family,
    direct_sum_family,
    family_from_grouping,
    family_from_units,
    hyperfinite_pair,
    interaction_index,
    minimize_index,
    refine,
    support,
    support_mask,
)
from .compression import (
    CutPasteResult,
    PipelineReport,
    StageReport,
    cut_and_paste,
    fuse,
    pipeline,
    recover_elements,
    single_generator_pair,
)
from . import errors

__version__ = "0.1.0"
