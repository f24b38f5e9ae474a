"""Black-box function minimization over the Boolean hypercube.

A degree-bounded multilinear surrogate is maintained by multiplicative
weight updates over monomial experts (`comex.surrogate`); new query points
come from simulated annealing on the surrogate (`comex.acquisition`). The
package also ships benchmark oracles, random-search and direct-annealing
baselines, an experiment harness with a CLI (see `comex --help`), and the
theory audits of the update and of the acquisition (`comex.audits`).
"""

from .acquisition import AnnealSchedule, propose_query, walk
from .audits import (
    BoltzmannPmf,
    TrueCoefficients,
    exponential_acquisition_audit,
    exponential_pmf,
    kl_divergence,
    kl_drop_audit,
    pmf_kl,
)
from .basis import MonomialBasis, basis_size, enumerate_basis, evaluate_monomial
from .domain import (
    SumConstrained,
    Unconstrained,
    apply_flips,
    contains,
    enumerate_points,
    from_bits,
    hamming_distance,
    neighbor_move,
    sample_uniform,
    to_bits,
)
from .harness import ExperimentConfig, build_problem, run_experiment, run_single
from .results import (
    RunTrace,
    Summary,
    export_json,
    export_summary_csv,
    simple_regret,
    summarize,
)
from .surrogate import (
    ADAPTIVE_C,
    LearningRateSchedule,
    MonomialSurrogate,
    UpdateDiagnostics,
)

__version__ = "0.1.0"
