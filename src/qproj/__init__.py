"""Quantum projective space at desk scale.

Exact q-arithmetic, Gelfand-Tsetlin representations of U_q(su(l+1)),
canonical line bundle sections and their holomorphic kernels, the
q-commuting coordinate ring, Riemann-Roch bookkeeping for the quantum
projective line, and the shuffle combinatorics behind the fundamental
twisted cocycle.  Every headline number has an independent oracle next to
it; the test suite is the contract.
"""

from .qarith import (
    DEFAULT_PRECISION,
    DEFAULT_Q,
    NegativeRadicandError,
    QLaurent,
    q_binomial,
    q_factorial,
    q_int,
    q_multinomial,
)
from .gtrep import (
    GTTableau,
    IrrepModule,
    build_irrep,
    enumerate_tableaux,
    export_matrix,
    raise_coeff,
    verify_relations,
    weyl_dim,
)
from .bundles import (
    block_weight,
    build_block,
    ker_el_combinatorial,
    ker_el_numeric,
    ln_conditions_filter,
)
from .coordring import (
    graded_dim,
    monomials,
    normal_order,
    tensor_factorize,
    TruncatedPolynomialAlgebra,
)
from .dolbeault import cp1_dolbeault_matrix, cp1_euler_characteristic, cp2_coefficient_identity
from .cocycle import (
    build_chains,
    enumerate_shuffles,
    solve_cocycle_system,
    twisted_coboundary_check,
    verify_membership,
)

__version__ = "0.1.0"
