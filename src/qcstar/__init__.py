"""K-theory of graph C*-algebras and exact rewriting for quantum spaces.

Three layers: integer linear algebra over finite graphs (Smith normal
form, K-groups, ideal lattices), exact noncommutative rewriting for a
family of quantum-space *-algebras with order-two symmetries, and
truncated weighted-shift representations that check the algebraic
claims numerically.
"""

from .coefficients import QLaurent
from .graphs import (
    BUILTIN_GRAPHS,
    Edge,
    Graph,
    GraphError,
    VertexSet,
    build_ag,
    builtin_graph,
    hereditary_saturated_sets,
    lattices_isomorphic,
    parse_graph,
)
from .ktheory import (
    AbelianGroup,
    IntegerMatrix,
    SNFResult,
    k_groups,
    smith_normal_form,
)
from .ncalgebra import (
    BUILTIN_MORPHISMS,
    AlgebraPresentation,
    Element,
    ExpressionError,
    GeneratorMap,
    PresentationError,
    RewriteBudgetError,
    builtin_morphism,
    check_local_confluence,
    is_fixed,
    presentation,
)
from .representations import (
    BasisMonomial,
    Representation,
    RepresentationError,
    build_rep,
    compose_rep,
    direct_sum,
    evaluate,
    independence_check,
    basis_monomials,
    relation_residuals,
    spectrum_check,
)

__version__ = "0.1.0"

__all__ = [
    "QLaurent",
    "BUILTIN_GRAPHS", "Edge", "Graph", "GraphError", "VertexSet",
    "build_ag", "builtin_graph", "hereditary_saturated_sets",
    "lattices_isomorphic", "parse_graph",
    "AbelianGroup", "IntegerMatrix", "SNFResult", "k_groups",
    "smith_normal_form",
    "BUILTIN_MORPHISMS", "AlgebraPresentation", "Element",
    "ExpressionError", "GeneratorMap", "PresentationError",
    "RewriteBudgetError", "builtin_morphism", "check_local_confluence",
    "is_fixed", "presentation",
    "BasisMonomial", "Representation", "RepresentationError", "build_rep",
    "compose_rep", "direct_sum", "evaluate", "independence_check",
    "basis_monomials", "relation_residuals", "spectrum_check",
    "__version__",
]
