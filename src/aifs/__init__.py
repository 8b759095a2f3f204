"""Affine iterated function systems: invariant measures, their Fourier
transforms, and orthogonal families of exponentials.

The package certifies unitary symbol matrices for digit/frequency pairs,
locates the zero set of the symbol exactly, walks orbits and cycles of the
transposed action on the torus, builds candidate spectra from extreme
cycles, and checks orthogonality and completeness with explicit error
control. A small catalog of worked systems with frozen expected results
ships under ``aifs.data``.
"""

#: equal to ``[project] version`` in pyproject.toml (a test holds them
#: together); a literal keeps ``importlib.metadata`` out of every import
__version__ = "0.1.0"

from .errors import (
    AifsError,
    BudgetExceeded,
    ExactnessUnavailable,
    NotExpansive,
    RankDeficient,
)
from .fourier import (
    MuHatValue,
    TruncationPolicy,
    eval_mu_hat,
    eval_symbol,
    invariance_residual,
    mu_hat_grid,
    normalization_residual,
)
from .hadamard import (
    HadamardTriple,
    check_hadamard,
    conjecture_probe,
    conjugate_system,
    covariance_residual,
)
from .ifs_core import AffineSystem, attractor, bounding_box
from .linalg_exact import Matrix, check_expansive, contraction_data, frac, fvec
from .torus_dynamics import (
    ZeroSet,
    find_zeros,
    finite_bound,
    has_zero_weighted,
    min_sum_report,
    orbit,
    orbit_distance_bound,
)
from .verify import (
    Analysis,
    block_root_family,
    certify_all_pairs,
    completeness_q,
    max_orthogonal_family,
    orthogonal_pair,
)

__all__ = [
    "AffineSystem",
    "AifsError",
    "Analysis",
    "BudgetExceeded",
    "ExactnessUnavailable",
    "HadamardTriple",
    "Matrix",
    "MuHatValue",
    "NotExpansive",
    "RankDeficient",
    "TruncationPolicy",
    "ZeroSet",
    "__version__",
    "attractor",
    "block_root_family",
    "bounding_box",
    "certify_all_pairs",
    "check_expansive",
    "check_hadamard",
    "completeness_q",
    "conjecture_probe",
    "conjugate_system",
    "contraction_data",
    "covariance_residual",
    "eval_mu_hat",
    "eval_symbol",
    "find_zeros",
    "finite_bound",
    "frac",
    "fvec",
    "has_zero_weighted",
    "invariance_residual",
    "max_orthogonal_family",
    "min_sum_report",
    "mu_hat_grid",
    "normalization_residual",
    "orbit",
    "orbit_distance_bound",
    "orthogonal_pair",
]
