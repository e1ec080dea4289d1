"""Clifford algebra Cl(p,q) engine.

Dense blade arithmetic, generator-contraction projection calculus, the
closed-form connection solving the primitive field equation, and a family
of gauge-invariant Yang-Mills solutions verified numerically at desk scale.
"""

from .algebra import (
    CliffordError,
    DimensionLimitError,
    Multivector,
    NotInvertible,
    SeriesDivergence,
    Signature,
    SignatureMismatch,
    anticommutator,
    center_leak,
    center_project,
    circ_project,
    commutator,
    geometric_product,
    grade_project,
    inverse,
    random_multivector,
    reversion,
    trace,
)
from .contraction import ContractionTable, build_table, contract, lambdas
from .fields import (
    FrameField,
    FrameGaugeFieldVector,
    GaugeElement,
    PolyField,
    exponential,
    make_frame_field,
    make_gauge_element,
    random_bivector_poly_field,
    sample_points,
)
from .primitive import (
    DerivedConnection,
    curvature_residual,
    gauge_transform,
    primitive_residual,
    solve,
)
from .yang_mills import (
    NotASolution,
    YMSolution,
    build_solution,
    gauge_transform_solution,
    verify_solution,
)

__all__ = [
    "CliffordError",
    "ContractionTable",
    "DerivedConnection",
    "DimensionLimitError",
    "FrameField",
    "FrameGaugeFieldVector",
    "GaugeElement",
    "Multivector",
    "NotASolution",
    "NotInvertible",
    "PolyField",
    "SeriesDivergence",
    "Signature",
    "SignatureMismatch",
    "YMSolution",
    "anticommutator",
    "build_solution",
    "build_table",
    "center_leak",
    "center_project",
    "circ_project",
    "commutator",
    "contract",
    "curvature_residual",
    "exponential",
    "gauge_transform",
    "gauge_transform_solution",
    "geometric_product",
    "grade_project",
    "inverse",
    "lambdas",
    "make_frame_field",
    "make_gauge_element",
    "random_bivector_poly_field",
    "primitive_residual",
    "random_multivector",
    "reversion",
    "sample_points",
    "solve",
    "trace",
    "verify_solution",
]

__version__ = "0.1.0"
