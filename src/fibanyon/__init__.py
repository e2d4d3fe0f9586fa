"""Fusion-tree simulator for Fibonacci (and other multiplicity-free) anyons."""

from .errors import (
    AnyonError,
    BasisMismatchError,
    FusionError,
    ModelFormatError,
    ShapeError,
    SuperselectionError,
)
from .model import AnyonModel, fibonacci_model, load_model_text, validate_model
from .recouple import BasisChange, braid_adjacent, change_shape, elementary_fmove, shape_change
from .states import (
    AnyonState,
    Bipartition,
    BlockOperator,
    bipartition,
    embed_local,
    fidelity,
    ket,
    mixture,
    partial_trace,
    pure_density,
    pure_marginal,
    purity,
    spectra,
    spectrum,
    superpose,
    trace,
    validate_cssr,
)
from .trees import (
    SectorBasis,
    TreeShape,
    all_shapes,
    enumerate_basis,
    grouped_shape,
    left_comb,
    right_comb,
)

__version__ = "0.1.0"
