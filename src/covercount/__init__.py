"""Exact computation in the tree-series algebra and around it: covering
counts, psi-class brackets, and 2D-gravity constants.

Everything is exact rational arithmetic; floating point appears only when a
caller evaluates an asymptotic prediction numerically.
"""

from .algebra import (
    AsymptoticTerm,
    Identification,
    LaurentPolyX,
    Radical,
    ScaledRational,
    ZPoly,
    a_closed,
    dkz_poly,
    identify_in_a,
    leading_asymptotic,
    seq_a,
    series_y,
    series_z,
    zpower_in_basis,
)
from .errors import BudgetExceeded, ConsistencyError, DomainError
from .exact import (
    LinearSolution,
    LinearSystem,
    TruncatedSeries,
    format_rational,
    series_exp,
    solve_exact,
)
from .gravity import (
    GravityConstant,
    PainleveSolution,
    TauSpec,
    b_constant,
    free_energy_coefficient,
    h_tau_series,
    hg_empty_leading,
    painleve_solve,
    string_dilaton_check,
    tau_bracket,
)
from .hurwitz_series import (
    HurwitzSeries,
    PhiFit,
    PhiPolynomial,
    fit_phi,
    h0_closed,
    h1_empty_series,
    h_series,
    oracle_data,
    phi_degree_bound,
)
from .monodromy import (
    CoveringSpec,
    hurwitz_connected,
    hurwitz_disconnected,
)
from .symmetric import (
    Partition,
    character,
    conjugacy_class_size,
)
from .trees import dendrology

__version__ = "0.1.0"
