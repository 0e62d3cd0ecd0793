"""Cubic ribbon graphs with a guaranteed floor on the systole of their
hyperbolic surfaces, plus the exact machinery to verify the guarantee.

The re-exported names resolve on first access (PEP 562): ``import
systolic`` loads no library module, and ``systolic.certify`` imports
``systolic.scanner`` the first time it is read.
"""

import importlib

__version__ = "0.1.0"

# home module of every re-exported name
_EXPORTS = {
    "words": ("UniMat", "canonical", "geodesic_length", "matrix_of", "star", "trace_of", "word_of_matrix"),
    "census": ("CensusTable", "N_of"),
    "ribbon": (
        "CrgParseError",
        "CubicRibbonGraph",
        "beineke_harary_lower_bound",
        "deserialize",
        "faces",
        "genus_closed",
        "girth",
        "serialize",
    ),
    "builder": (
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
    ),
    "scanner": (
        "CycleClass",
        "SurfaceReport",
        "bottom_spectrum",
        "certify",
        "low_trace_cycles",
        "report",
        "systole",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
