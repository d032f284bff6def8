"""Desk-scale toolkit for simultaneous Diophantine approximation records,
direction measures on spheres, and diagonal-flow lattice dynamics over
totally real fields."""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatch,
    DiophlatError,
    EpsilonBelowFloor,
    EpsilonTooLarge,
    InvalidInput,
    NotPrime,
    NotSquarefree,
    NotTotallyReal,
    PrecisionExhausted,
    Reducible,
    SingularEmbedding,
    StructureViolation,
    TooManyPoints,
    UnsupportedDimension,
    ZeroMass,
)
from .numberfield import (
    AlgebraicTuple,
    MinimalPolynomial,
    NumberField,
    frac_nearest,
    make_field,
    padic_norm,
    power_tuple,
)
from .latgeo import (
    ConePointSet,
    LatticeBasis,
    SquareMatrix,
    conjugation_residual,
    diag_flow,
    embedding_lattice,
    enumerate_cone,
    hecke_apply,
    hecke_neighbors,
    hecke_neighbors_typed,
    hecke_scaled_lattice,
    unipotent,
)
from .approx import (
    ApproxRecord,
    WeightedApproxList,
    direction_measure,
    record_minima,
    scaled_minima,
    scan_records,
    sweep_weights,
)
from .orbitmeasure import OrbitSampleSet, pushforward_minvec, sample_orbit, theta_eps
from .spheremeasure import DirectionMeasure, distance, min_arc_mass, normalize
