"""Cubic ribbon graphs with a guaranteed floor on the systole of their
hyperbolic surfaces, plus the exact machinery to verify the guarantee."""

from .words import (
    UniMat,
    canonical,
    geodesic_length,
    matrix_of,
    star,
    trace_of,
    word_of_matrix,
)
from .census import CensusTable, DivisorSieve, N_of
from .ribbon import (
    CrgParseError,
    CubicRibbonGraph,
    beineke_harary_lower_bound,
    deserialize,
    faces,
    genus_closed,
    girth,
    serialize,
)
from .builder import (
    BuildReport,
    HypothesisError,
    Plant,
    SeedSpec,
    SeedSpecError,
    build,
    complete,
    forbidden_reach,
    make_seed,
    seed_size_bound,
    word_for_trace,
)
from .scanner import (
    CycleClass,
    SurfaceReport,
    bottom_spectrum,
    certify,
    low_trace_cycles,
    report,
    systole,
)

__version__ = "0.1.0"

__all__ = [
    "UniMat",
    "canonical",
    "geodesic_length",
    "matrix_of",
    "star",
    "trace_of",
    "word_of_matrix",
    "CensusTable",
    "DivisorSieve",
    "N_of",
    "CrgParseError",
    "CubicRibbonGraph",
    "beineke_harary_lower_bound",
    "deserialize",
    "faces",
    "genus_closed",
    "girth",
    "serialize",
    "BuildReport",
    "HypothesisError",
    "Plant",
    "SeedSpec",
    "SeedSpecError",
    "build",
    "complete",
    "forbidden_reach",
    "make_seed",
    "seed_size_bound",
    "word_for_trace",
    "CycleClass",
    "SurfaceReport",
    "bottom_spectrum",
    "certify",
    "low_trace_cycles",
    "report",
    "systole",
]
