"""Exact construction and certification of finite matrix models for
quantum permutation and unitary algebras.

The library works over cyclotomic numbers by default, so every certificate
is an identity, not an approximation; float mode with explicit tolerances
is available for cross-checking.
"""
from .cyclotomic import Cyc, cyc, zeta
from .errors import (
    BadArgument, BadSetting, BudgetExceeded, CapExceeded, DegreeMismatch,
    DivisionByZero, FreePartPresent, Inconsistent, InvalidAutomorphism,
    InvalidFamily, MagicModelsError, ModeMismatch, ModelInputError,
    NotBijective, NotFiniteOrder, NotInGroup, NotNormal, NotQuasiTransitive,
    NotRepresentation, NotSubgroup, NotUnitary, NotWellDefined, ShapeMismatch,
)
from .groups import (
    AutoMap, CharacterOf, FinAbelian, Perm, PermGroup,
    abelian_dual, abelianization, extend_automorphism, orbit_blocks,
)
from .group_algebra import regular_rep
from .induced import (
    InducedModel, VirtuallyAbelianData,
    check_stationarity, evaluate_at_character, frobenius_trace, induce,
)
from .magic import (
    CheckReport, DualWordReference, FiberModel, OrbitStructure,
    StateOnWords, bichon_build, block_projection, convolution_idempotency,
    dual_group_stationarity, fixed_point_matrix, orbits_from_source,
    quasi_flat_check, shortest_difference, single_fiber, stationarity_check,
    verify_magic,
)
from .matrices import CMatrix, spectral_multiplicities, spectral_projection
from .cyclic import (
    CyclicModelData, abelian_rep, build_cyclic_model,
    cycle_fill, semidirect_stationarity, verify_half_liberation,
    verify_k_symmetry,
)
from .quasiflat import (
    LatinFamily, NoFamily, SparseLatinSquare, classical_model_from_family,
    derangement_scan, latin_family_search, quasiflat_dual_check,
    trace_vector_check, uniform_check,
)

__version__ = "0.1.0"
