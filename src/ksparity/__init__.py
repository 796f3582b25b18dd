"""Multiqubit Kochen-Specker and GHZ paradox toolkit.

Builds and verifies context systems of Pauli observables, checks GHZ-type
value-assignment infeasibility, constructs joint stabilizer eigenstates
with Bell-pair analysis, and enumerates critical parity proofs over
projector basis tables.
"""

from .pauli import (
    DenseCapError,
    DimensionMismatchError,
    PauliParseError,
    PauliWord,
    all_words,
    commutes,
    multiply,
    parse_word,
    product_of,
    to_dense,
)
from .systems import (
    Context,
    ContextSystem,
    InconsistentEigenvaluesError,
    ValidationReport,
    build_star_table,
    builtin_fixtures,
    count_ghz_assignments,
    find_proper_subproof,
    gf2_infeasible,
    ghz_infeasible,
    is_genuinely_multipartite,
    parity_witness,
    system_from_rows,
    verify_system,
)
from .states import (
    BellDecomposition,
    DenseState,
    UnderdeterminedEigenstateError,
    apply_pauli,
    bell_decompose,
    bell_product_vector,
    bell_support,
    classify_residual,
    joint_eigenstate,
    measure_computational,
)
from .projectors import (
    ProjectorPool,
    StabilizerProjector,
    orthogonal,
    projector_from_signed_words,
    projectors_of,
)
from .parity import (
    Basis,
    BasisTable,
    ParityProof,
    ProofCensus,
    compare_with_brute_force,
    enumerate_bases,
    enumerate_parity_proofs,
    is_critical,
    is_saturated,
    kernel_parity_sets,
    proof_symbol,
    render_symbol,
    two_power_h_report,
    verify_proof,
)
from .search import (
    SearchCapError,
    SearchResult,
    canonical_form,
    search_completions,
)
from .dot import export_dot

__version__ = "1.0.0"
