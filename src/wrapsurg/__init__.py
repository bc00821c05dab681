"""Exact classification of Dehn surgeries on wrapped Montesinos knots.

The package represents knots of wrapping number 2 in a solid torus given by
closing a Montesinos tangle with two wrap arcs, normalizes them under the
standard equivalence moves, and classifies every surgery slope as
hyperbolic, toroidal, small Seifert fibered, or reducible, with
machine-checkable certificates (Seifert invariants, pretzel slopes, and
predictions for the surgery families of the twisted embeddings in S^3).

Importing the package loads the library modules every request runs
(`slopes`, `tangles`, `wrapped`, `answers` and `classify`).  The names of
`images` (the S^3 images of the twisted embeddings, which only a `twist`
request writes), of `seifert`, of `moves` (the equivalence moves and their
`Move` records) and of the strand-tracing oracle `tracing` are given by
`__getattr__`, which imports their module on the first use of one of them.
"""
from types import ModuleType as _ModuleType

from .answers import (
    FamilyKind,
    FamilyPrediction,
    SurgeryClassification,
    SurgeryType,
    ToroidalCertificate,
    ToroidalSource,
)
from .classify import (
    Analysis,
    DegenerateKnotError,
    InconsistentCrossCheckError,
    KnotClass,
    analysis_of,
    classify,
    exceptional_slopes,
    predict_s3_family,
    surgery_in_s3,
)
from .slopes import (
    MERIDIAN,
    InfinityInputError,
    ParseError,
    Slope,
    ZeroZeroError,
    distance,
    make_slope,
    parse_slope,
)
from .tangles import (
    LengthOneCanonical,
    MontesinosTangle,
    NormalForm,
    Pairing,
    closure_facts,
    normalize,
    parse_tangle,
)
from .wrapped import (
    NoPretzelSurfaceError,
    NotAKnotError,
    NotLengthOneError,
    WrappedKnot,
    make_wrapped,
    parse_knot,
    pretzel_slope,
)

__version__ = "0.1.0"

# The names of the four modules not every request runs, by module: each is
# imported on the first use of one of its names (PEP 562).
_LAZY = {
    "images": ("TwistedImage", "transport_slope", "twist", "two_bridge_fraction"),
    "seifert": (
        "LENS", "REDUCIBLE", "MontesinosLink", "NotATorusKnotError", "SeifertInvariants",
        "SFSClass", "SFSKind", "double_branched_cover", "pretzel_surgery_link", "sfs_equal",
        "torus_knot_surgery",
    ),
    "moves": (
        "Move", "equivalent", "mirror_tangle", "reverse_tangle", "shift_tangle", "twist_tangle",
    ),
    "tracing": ("evaluate_continued_fraction", "expand", "trace_closure"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}

# Every name above but the submodules, and the names of `_LAZY`.
__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and type(value) is not _ModuleType] + list(_LAZY_MODULE)
)


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value
