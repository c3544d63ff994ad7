"""pbound: exact Newton-polygon multiplicities, Darboux polynomials and
degree bounds for planar polynomial ODE systems dw/dz = P(z,w)/Q(z,w).

Everything is exact: rationals, univariate polynomials over towers of
algebraic extensions (each level certified irreducible, over a tower by
Trager's norm), and sparse bivariate polynomials on integer exponents; a ramified branch system keeps
its z-exponents on one integer scale n (z = t^n).  All values are immutable
and all operations are pure functions, so concurrent use is safe and results
are bit-for-bit reproducible.
"""

from .exact import (
    Q,
    Tower,
    QQ_TOWER,
    ExtElem,
    UniPoly,
    adjoin_root,
    factor_univariate,
)
from .polyode import (
    BiPoly,
    OdeSystem,
    PuiseuxBranch,
    coeff_profile,
    make_system,
    substitute_branch,
    transform_point,
)
from .newton import (
    edge_char_poly,
    lower_hull,
    support_points,
    vertex_critical_check,
)
from .branching import (
    Caps,
    MultiplicityResult,
    expand_branches,
    multiplicity_at,
)
from .bounds import (
    BoundReport,
    axis_multiplicity_bound,
    axis_singular_points,
    invariant_line_bound,
    line_transform,
)
from .darboux import (
    DarbouxCertificate,
    detect_invariant_lines,
    search_darboux,
    strictness_check,
    verify_darboux,
)
from .lotka import LvParams, classify, genericity_check
from .sysparse import emit_report, parse_system, print_system

__version__ = "0.1.0"

__all__ = [
    "Q",
    "Tower",
    "QQ_TOWER",
    "ExtElem",
    "UniPoly",
    "adjoin_root",
    "factor_univariate",
    "BiPoly",
    "OdeSystem",
    "PuiseuxBranch",
    "coeff_profile",
    "make_system",
    "substitute_branch",
    "transform_point",
    "edge_char_poly",
    "lower_hull",
    "support_points",
    "vertex_critical_check",
    "Caps",
    "MultiplicityResult",
    "expand_branches",
    "multiplicity_at",
    "BoundReport",
    "axis_multiplicity_bound",
    "axis_singular_points",
    "invariant_line_bound",
    "line_transform",
    "DarbouxCertificate",
    "detect_invariant_lines",
    "search_darboux",
    "strictness_check",
    "verify_darboux",
    "LvParams",
    "classify",
    "genericity_check",
    "emit_report",
    "parse_system",
    "print_system",
    "__version__",
]
