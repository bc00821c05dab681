"""Exact classification of Dehn surgeries on wrapped Montesinos knots.

The package represents knots of wrapping number 2 in a solid torus given by
closing a Montesinos tangle with two wrap arcs, normalizes them under the
standard equivalence moves, and classifies every surgery slope as
hyperbolic, toroidal, small Seifert fibered, or reducible, with
machine-checkable certificates (Seifert invariants, pretzel slopes, and
predictions for the surgery families of the twisted embeddings in S^3).
"""
from .classify import (
    Analysis,
    DegenerateKnotError,
    FamilyKind,
    FamilyPrediction,
    InconsistentCrossCheckError,
    KnotClass,
    SurgeryClassification,
    SurgeryType,
    ToroidalCertificate,
    ToroidalSource,
    analysis_of,
    classify,
    exceptional_slopes,
    predict_s3_family,
    surgery_in_s3,
)
from .seifert import (
    LENS,
    REDUCIBLE,
    MontesinosLink,
    NotATorusKnotError,
    SeifertInvariants,
    SFSClass,
    SFSKind,
    double_branched_cover,
    parse_montesinos,
    pretzel_surgery_link,
    sfs_equal,
    torus_knot_surgery,
)
from .slopes import (
    MERIDIAN,
    ZERO,
    InfinityInputError,
    ParseError,
    Slope,
    ZeroZeroError,
    distance,
    evaluate_continued_fraction,
    expand,
    make_slope,
    parse_slope,
)
from .tangles import (
    LengthOneCanonical,
    MontesinosTangle,
    Move,
    NormalForm,
    Pairing,
    closure_facts,
    equivalent,
    mirror_tangle,
    normalize,
    parse_tangle,
    reverse_tangle,
    shift_tangle,
    twist_tangle,
)
from .tracing import NoPretzelSurfaceError, trace_closure
from .wrapped import (
    NotAKnotError,
    NotLengthOneError,
    TwistedImage,
    WrappedKnot,
    make_wrapped,
    parse_knot,
    pretzel_slope,
    transport_slope,
    twist,
    two_bridge_fraction,
    wrapping_number,
)

__version__ = "0.1.0"
