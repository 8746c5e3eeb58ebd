"""Numerical toolkit for quantum dynamics of long-range lattice operators
with quasi-periodic potentials.

The pieces fit together like this: ``lattice`` supplies the geometry of
finite regions in Z^d, ``operators`` assembles covariant Hermitian volumes
H = S/coupling + v(f^n(x)), ``greens`` classifies finite-volume resolvents
into good and bad boxes and scans for sublinearly many bad ones, ``dynamics``
evolves states and measures position-operator moments along two routes (the
exact time average in the box eigenbasis and the energy-integral identity at
eps = 1/T), and
``arithmetic`` certifies frequencies (discrepancy, Diophantine condition,
continued fractions).  ``harness`` wraps all of it behind reproducible
config-driven experiments and a CLI.
"""

__version__ = "0.1.0"

from .arithmetic import (
    ContinuedFraction,
    DiophantineParams,
    DiophantineReport,
    DiscrepancyReport,
    continued_fraction,
    diophantine_check,
    discrepancy,
    orbit_points,
)
from .dynamics import (
    AmplitudeTable,
    EvolutionResult,
    LogFit,
    LyapunovEstimate,
    QuadratureError,
    amplitude_table_direct,
    amplitude_table_parseval,
    double_while_flagged,
    evolve,
    fit_log_exponent,
    lyapunov_estimate,
    moment_series,
)
from .greens import (
    BadSetReport,
    BoxVerdict,
    ClassificationParams,
    DecayWitness,
    GreensMatrix,
    MultiscaleReport,
    SublinearFit,
    bad_set,
    bad_sets,
    classify_box,
    fit_sublinear_exponent,
    greens,
    is_good,
    is_strongly_good,
    multiscale_decay_check,
    resolvent_norm,
    scan_boxes,
)
from .lattice import (
    ElementaryRegion,
    GeneralizedRegion,
    enumerate_shapes,
    sup_norm,
    tile_disjoint,
)
from .operators import (
    KernelSpec,
    OperatorSpec,
    PotentialSpec,
    ShiftDynamics,
    StateVector,
    almost_mathieu,
    assemble,
    diagonal_model,
    free_laplacian,
    site_list,
)

__all__ = [
    "__version__",
    # lattice
    "ElementaryRegion", "GeneralizedRegion", "enumerate_shapes", "sup_norm",
    "tile_disjoint",
    # operators
    "KernelSpec", "OperatorSpec", "PotentialSpec", "ShiftDynamics",
    "StateVector", "almost_mathieu", "assemble", "diagonal_model",
    "free_laplacian", "site_list",
    # greens
    "BadSetReport", "BoxVerdict", "ClassificationParams", "DecayWitness",
    "GreensMatrix", "MultiscaleReport", "SublinearFit", "bad_set", "bad_sets",
    "classify_box", "fit_sublinear_exponent", "greens", "is_good",
    "is_strongly_good", "multiscale_decay_check", "resolvent_norm",
    "scan_boxes",
    # dynamics
    "AmplitudeTable", "EvolutionResult", "LogFit", "LyapunovEstimate",
    "QuadratureError", "amplitude_table_direct", "amplitude_table_parseval",
    "double_while_flagged", "evolve", "fit_log_exponent", "lyapunov_estimate",
    "moment_series",
    # arithmetic
    "ContinuedFraction", "DiophantineParams", "DiophantineReport",
    "DiscrepancyReport", "continued_fraction", "diophantine_check",
    "discrepancy", "orbit_points",
]
