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
    exponential,
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
    GaugeElement,
    PolyField,
    Polynomial,
    make_clifford_field_vector,
    make_frame_field,
    make_gauge_element,
    random_bivector_poly_field,
    sample_points,
)
from .primitive import (
    DerivedConnection,
    compute_C,
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
    ym_residuals,
)

__all__ = [
    "CliffordError",
    "ContractionTable",
    "DerivedConnection",
    "DimensionLimitError",
    "FrameField",
    "GaugeElement",
    "Multivector",
    "NotASolution",
    "NotInvertible",
    "PolyField",
    "Polynomial",
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
    "compute_C",
    "contract",
    "curvature_residual",
    "exponential",
    "gauge_transform",
    "gauge_transform_solution",
    "geometric_product",
    "grade_project",
    "inverse",
    "lambdas",
    "make_clifford_field_vector",
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
    "ym_residuals",
]

__version__ = "0.1.0"
