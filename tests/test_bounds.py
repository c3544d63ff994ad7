from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from pbound.bounds import (
    BoundsError,
    axis_multiplicity_bound,
    axis_singular_points,
    invariant_line_bound,
    line_transform,
    p_at_axis,
)
from pbound.exact import UniPoly
from pbound.polyode import BiPoly, OdeSystem, bipoly_str, make_system


def bp(entries):
    return BiPoly({(Q(ze), we): Q(c) for (ze, we), c in entries.items()})


def lv_system(a, b, c):
    return make_system(
        bp({(1, 1): b, (0, 2): 1, (0, 1): -a}),
        bp({(2, 0): 1, (1, 1): c, (1, 0): -1}),
    )


def saddle_line_system():
    """zdot = z w, wdot = (w-1)^2 - z with strict invariant line w + z - 1."""
    return make_system(
        bp({(0, 2): 1, (0, 1): -2, (0, 0): 1, (1, 0): -1}),
        bp({(1, 1): 1}),
    )


# ---------------------------------------------------------------------------
# axis points
# ---------------------------------------------------------------------------

def test_axis_points_lv():
    points, k = axis_singular_points(lv_system(Q(-1), Q(0), Q(0)))
    labels = [(kind, value) for kind, value, _ in points]
    assert labels[0] == ("inf", None)
    assert {v for kind, v in labels[1:]} == {Q(0), Q(-1)}
    assert k == 2


def test_axis_points_irrational():
    # P(0, w) = w^2 - 2
    sys = make_system(bp({(0, 2): 1, (0, 0): -2}), bp({(1, 0): 1}))
    points, k = axis_singular_points(sys)
    assert k == 2
    kinds = [kind for kind, _, _ in points]
    assert kinds == ["inf", "algebraic"]
    assert points[1][2] == 2  # conjugate pair weight


# Derandomized and without an example database, so every run draws the
# same examples.
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.fractions(-4, 4, max_denominator=3), min_size=1, max_size=2),
            st.fractions(-3, 3, max_denominator=3).filter(lambda c: c != 0),
            st.integers(1, 2),
        ),
        min_size=1,
        max_size=2,
    ),
    st.booleans(),
)
def test_axis_k_is_the_degree_of_the_squarefree_part(factors, z_term):
    # P(0, w) = prod f^m with non-monic f of degree <= 2: at most 8, the
    # factor cap
    p0 = UniPoly([Q(1)], var="w")
    for low, lead, mult in factors:
        for _ in range(mult):
            p0 = p0 * UniPoly(low + [lead], var="w")
    terms = {(0, j): c for j, c in enumerate(p0.coeffs)}
    if z_term:
        terms[(1, 1)] = terms.get((1, 1), 0) + 3
    sys = make_system(BiPoly(terms), bp({(1, 0): 1}))
    points, k = axis_singular_points(sys)
    assert k == p_at_axis(sys).squarefree_part().degree()
    assert k == sum(weight for kind, _, weight in points if kind != "inf")


def test_axis_points_no_roots():
    sys = make_system(bp({(0, 0): 5}), bp({(1, 0): 1}))
    points, k = axis_singular_points(sys)
    assert k == 0
    assert [kind for kind, _, _ in points] == ["inf"]


def test_axis_requires_z_divisibility():
    sys = make_system(bp({(0, 1): 1}), bp({(0, 0): 1}))
    with pytest.raises(BoundsError, match="axis form"):
        axis_singular_points(sys)


def test_axis_rejects_vanishing_p():
    sys = OdeSystem(bp({(1, 1): 1}), bp({(1, 0): 1, (2, 0): 1}))
    with pytest.raises(BoundsError, match="vanishes identically"):
        axis_singular_points(sys)


# ---------------------------------------------------------------------------
# the sum and product bounds
# ---------------------------------------------------------------------------

def test_lv_bound_b_five():
    # all three axis points have multiplicity zero at (-1, 5, 0)
    sys = lv_system(Q(-1), Q(5), Q(0))
    report = axis_multiplicity_bound(sys)
    assert report.sum_bound == 0
    assert report.m_axis == 2 and report.k == 2
    assert report.product_bound == 6
    muls = {p.label: p.mul.count for p in report.points}
    assert muls == {"inf": 0, "0": 0, "-1": 0}
    # the product bound never exceeds m_axis * (deg_w P(0,w) + 1)
    deg_axis_poly = max(we for (ze, we) in sys.P.terms if ze == 0)
    assert report.product_bound <= report.m_axis * (deg_axis_poly + 1)


def test_lv_bound_b_zero_blocked():
    # at (-1, 0, 0) the point (0, -1) is algebraic critical: no finite bound
    report = axis_multiplicity_bound(lv_system(Q(-1), Q(0), Q(0)))
    assert report.sum_bound is None
    assert report.product_bound is None
    assert report.blocked_by is not None
    assert report.blocked_by.label == "-1"
    assert report.blocked_by.mul.status == "critical"


def test_lv_bound_critical_at_infinity():
    report = axis_multiplicity_bound(lv_system(Q(-1), Q(1), Q(-2)))
    assert report.blocked_by is not None
    assert report.blocked_by.label == "inf"


def test_capped_multiplicities_downgrade_sum_bound():
    from pbound.branching import Caps

    report = axis_multiplicity_bound(lv_system(Q(-1), Q(5), Q(0)), Caps(depth=0))
    assert report.sum_bound is None
    assert report.product_bound is None
    assert report.sum_lower_bound is not None
    assert any("inconclusive" in n for n in report.notes)


def test_saddle_fixture_sum_bound_nonvacuous():
    sys = saddle_line_system()
    report = axis_multiplicity_bound(sys)
    # axis roots: w = 1 double root of (w-1)^2, so k = 1
    assert report.k == 1
    muls = {p.label: p.mul.count for p in report.points}
    assert muls == {"inf": 0, "1": 1}
    assert report.sum_bound == 1
    assert report.product_bound == 2 * (1 + 1)
    # the strict certificate w + z - 1 has w-degree 1 <= 1: the bound is tight


def test_algebraic_axis_point_weighted():
    # dw/dz = (w^2 - 2)/ (z * 1): axis roots +-sqrt(2)
    sys = make_system(bp({(0, 2): 1, (0, 0): -2}), bp({(1, 0): 1}))
    report = axis_multiplicity_bound(sys)
    entry = [p for p in report.points if p.label.startswith("root of")][0]
    assert entry.weight == 2
    assert entry.mul.status == "finite"
    assert report.sum_bound == 0 + entry.weight * entry.mul.count


# ---------------------------------------------------------------------------
# line transform and the M(M+1) bound
# ---------------------------------------------------------------------------

def test_line_transform_lv_z_axis_is_identity_shape():
    sys = lv_system(Q(-1), Q(5), Q(0))
    transformed, swapped = line_transform(sys, (1, 0, 0))
    assert not swapped
    # dw/dz = w(bz + w - a) / (z (z + cw - 1)): same system back
    assert transformed.P.terms == sys.P.terms
    assert transformed.Q.terms == sys.Q.terms


def test_line_transform_w_axis_swaps():
    sys = lv_system(Q(-1), Q(5), Q(0))
    transformed, swapped = line_transform(sys, (0, 1, 0))
    assert swapped
    assert all(ze >= 1 for (ze, _) in transformed.Q.terms)


def test_line_transform_rejects_non_invariant():
    sys = lv_system(Q(-1), Q(5), Q(0))
    with pytest.raises(BoundsError, match="not invariant"):
        line_transform(sys, (1, 1, -5))


def test_lv_line_bound_six():
    report = invariant_line_bound(lv_system(Q(-1), Q(5), Q(0)), (1, 0, 0))
    assert report.line_bound == 6
    assert report.m_plain == 2


def test_lv_line_bound_blocked_at_b_zero():
    report = invariant_line_bound(lv_system(Q(-1), Q(0), Q(0)), (1, 0, 0))
    assert report.line_bound is None
    assert report.blocked_by is not None


def test_degree_one_system_line_bound_two():
    # zdot = z, wdot = z + w: invariant line z = 0, no critical axis point
    sys = make_system(bp({(0, 1): 1, (1, 0): 1}), bp({(1, 0): 1}))
    report = invariant_line_bound(sys, (1, 0, 0))
    assert report.line_bound == 2


def test_line_bound_scale_invariant():
    sys = lv_system(Q(-1), Q(5), Q(0))
    r1 = invariant_line_bound(sys, (1, 0, 0))
    r2 = invariant_line_bound(sys, (7, 0, 0))
    assert r1.to_report() == r2.to_report()


def test_saddle_line_bound():
    sys = saddle_line_system()
    report = invariant_line_bound(sys, (1, 0, 0))
    assert report.line_bound == 2 * 3
    # strict certificate has total degree 1 <= 6


def test_line_transform_preserves_darboux_property():
    from pbound.darboux import DarbouxCertificate, verify_darboux

    sys = saddle_line_system()
    # carry the sloped invariant line w + z - 1 onto the axis; the other
    # invariant polynomial z maps to (zbar - wbar + 1) and stays invariant
    transformed, swapped = line_transform(sys, (1, 1, -1))
    assert not swapped
    image_of_z = bp({(1, 0): 1, (0, 1): -1, (0, 0): 1})
    cert = verify_darboux(transformed, image_of_z)
    assert isinstance(cert, DarbouxCertificate)
    # total degree of the original equals the w-degree of the image
    assert image_of_z.w_degree() == 1


def test_certificate_axis_restriction_divides_root_product():
    # for an axis-form system, f(0, w) of any certificate is a product of
    # (w - a_i) powers over the axis roots, up to a constant
    from pbound.darboux import verify_darboux
    from pbound.exact import UniPoly, factor_univariate
    from fractions import Fraction

    sys = saddle_line_system()
    f = bp({(0, 1): 1, (1, 0): 1, (0, 0): -1})  # w + z - 1
    cert = verify_darboux(sys, f)
    f0 = [Fraction(0)] * (f.w_degree() + 1)
    for (ze, we), c in f.terms.items():
        if ze == 0:
            f0[we] = c
    restriction = UniPoly(f0, var="w")
    roots = {Fraction(1)}  # axis roots of (w-1)^2
    for fac in factor_univariate(restriction):
        assert fac.poly.degree() == 1
        assert -fac.poly.coeffs[0] in roots
