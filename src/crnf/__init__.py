"""Symbolic-numeric toolkit for real hypersurfaces in complex space:
truncated power series, CR invariant tensors, and formal normal forms at
generic Levi degeneracies."""

from .series import DEFAULT_TOL, STORE_TOL, MixedSeries
from .linalg import takagi, TakagiResult, hermitian_eig, I_rs, is_OR, is_hatU
from .fischer import fischer_decompose, fischer_decompose2, mons, type_basis
from .hypersurfaces import (
    GenericSubmanifold,
    Hypersurface,
    flat,
    hermitian_quadric,
    model_D,
    model_hypersurface,
    model_phi,
    p_R_poly,
    sphere,
)
from .maps import FormalMap, apply_map, to_regular
from .tensors import (
    cr_frame,
    cubic_form,
    levi_form,
    levi_matrix,
    nondegeneracy,
    psi,
    tensors_report,
    third_tensor,
)
from .partial_nf import (
    PartialNFResult,
    aut_dim_bound,
    classify_H,
    detect_generic,
    generic_partial_nf,
    partial_nf,
)
from .normal_space import (
    S_R_apply,
    is_in_normal_space,
    normal_space_dim,
    normal_space_report,
    project_normal,
)
from .full_nf import (
    NormalFormError,
    NormalFormResult,
    NormalizationP,
    check_G0,
    detect_model,
    factor_map,
    normal_form,
    solve_L,
    validate_P,
)
from .equivalence import (
    EquivalenceReport,
    equivalent_to_degree,
    invariants_signature,
    matched_normalization,
    random_allowed_map,
)
from .parser import ParseError, parse_expression

__version__ = "0.1.0"
