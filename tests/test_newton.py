from fractions import Fraction as Q

from pbound.exact import QQ_TOWER, UniPoly, adjoin_root
from pbound.newton import (
    edge_char_poly,
    first_critical,
    lower_hull,
    nonzero_char_poly,
    support_points,
    vertex_critical_check,
)
from pbound.polyode import BiPoly, OdeSystem, coeff_profile, invert_at_infinity, make_system


def bp(entries):
    return BiPoly({(Q(ze), we): Q(c) for (ze, we), c in entries.items()})


def example45(mu):
    return make_system(bp({(2, 0): 1, (0, 1): mu}), bp({(1, 0): 1, (0, 2): 1}))


def lv_system(a, b, c):
    return make_system(
        bp({(1, 1): b, (0, 2): 1, (0, 1): -a}),
        bp({(2, 0): 1, (1, 1): c, (1, 0): -1}),
    )


def diagram_for(sys):
    prof = coeff_profile(sys.P.terms, sys.Q.terms, sys.n)
    return lower_hull(support_points(prof), prof), prof


# ---------------------------------------------------------------------------
# support points
# ---------------------------------------------------------------------------

def test_support_example45():
    sys = example45(Q(3, 2))
    pts = support_points(coeff_profile(sys.P.terms, sys.Q.terms, sys.n))
    coords = {(p.x, p.y): (p.from_p, p.from_q) for p in pts}
    assert coords == {
        (0, Q(2)): (True, False),
        (1, Q(0)): (True, True),
        (3, Q(-1)): (False, True),
    }


def test_support_lv_origin():
    sys = lv_system(Q(-1), Q(0), Q(0))
    pts = support_points(coeff_profile(sys.P.terms, sys.Q.terms, sys.n))
    coords = {(p.x, p.y): (p.from_p, p.from_q) for p in pts}
    assert coords == {(1, Q(0)): (True, True), (2, Q(0)): (True, False)}


def test_support_trivial():
    sys = make_system(bp({(0, 1): 1}), bp({(0, 0): 1}))
    pts = support_points(coeff_profile(sys.P.terms, sys.Q.terms, sys.n))
    coords = {(p.x, p.y) for p in pts}
    assert coords == {(1, Q(0)), (1, Q(-1))}


# ---------------------------------------------------------------------------
# hull and edges
# ---------------------------------------------------------------------------

def test_hull_example45():
    diagram, prof = diagram_for(example45(Q(3, 2)))
    lams = [e.lam for e in diagram.edges if e.admissible]
    assert lams == [Q(2), Q(1, 2)]


def test_hull_lv_origin_no_admissible_edges():
    diagram, _ = diagram_for(lv_system(Q(-1), Q(0), Q(0)))
    assert [e for e in diagram.edges if e.admissible] == []
    assert [v.x for v in diagram.vertex_candidates] == [1]


def test_single_point_no_edges():
    # P = w, Q = z merge into the single support point (1, 0)
    sys = make_system(bp({(0, 1): 1}), bp({(1, 0): 1}))
    diagram, _ = diagram_for(sys)
    assert len(diagram.points) == 1
    assert diagram.edges == ()


def test_char_poly_lambda2_edge():
    for mu in (Q(0), Q(3)):
        diagram, prof = diagram_for(example45(mu))
        edge = [e for e in diagram.edges if e.lam == 2][0]
        phi = edge_char_poly(edge, prof)
        # (2 - mu) a - 1
        assert phi.coeffs == (Q(-1), Q(2) - mu)


def test_char_poly_half_edge():
    mu = Q(3)
    diagram, prof = diagram_for(example45(mu))
    edge = [e for e in diagram.edges if e.lam == Q(1, 2)][0]
    phi = nonzero_char_poly(edge)
    # (1/2) a (a^2 - (2 mu - 1)) with the zero root discarded
    assert phi.coeffs == (Q(1, 2) * (1 - 2 * mu), Q(0), Q(1, 2))
    roots_sq = 2 * mu - 1
    assert phi.coeffs[0] != 0 or roots_sq == 0


def test_width_bound():
    # sum of admissible widths <= max{M_w + 1, N_w}
    for sys in (example45(Q(0)), example45(Q(3)), lv_system(Q(-1), Q(5), Q(2))):
        diagram, _ = diagram_for(sys)
        width = sum(e.width for e in diagram.edges if e.admissible)
        n_w, m_w = sys.P.w_degree(), sys.Q.w_degree()
        assert width <= max(m_w + 1, n_w)


# ---------------------------------------------------------------------------
# vertex criticality
# ---------------------------------------------------------------------------

def test_vertex_critical_interval():
    # mu in (1/2, 2) rational makes the origin critical at step 0
    diagram, prof = diagram_for(example45(Q(3, 2)))
    verdicts = vertex_critical_check(diagram, prof)
    hit = first_critical(verdicts)
    assert hit is not None and hit.lam_star == Q(3, 2)


def test_vertex_not_critical_outside_interval():
    diagram, prof = diagram_for(example45(Q(3)))
    assert first_critical(vertex_critical_check(diagram, prof)) is None
    diagram, prof = diagram_for(example45(Q(1, 2)))
    assert first_critical(vertex_critical_check(diagram, prof)) is None


def test_vertex_negative_ratio_not_critical():
    diagram, prof = diagram_for(lv_system(Q(-1), Q(0), Q(0)))
    verdicts = vertex_critical_check(diagram, prof)
    assert len(verdicts) == 1
    assert verdicts[0].lam_star == Q(-1)
    assert not verdicts[0].critical


def test_lv_at_infinity_critical_when_c_minus_two():
    # lambda* = -1/c = 1/2 dominates at (0, infinity) when c = -2
    sys = invert_at_infinity(lv_system(Q(-1), Q(1), Q(-2)))
    diagram, prof = diagram_for(sys)
    hit = first_critical(vertex_critical_check(diagram, prof))
    assert hit is not None
    assert hit.lam_star == Q(1, 2)


def test_scaling_invariance():
    sys = example45(Q(3, 2))
    scaled = OdeSystem(sys.P.scale(Q(7)), sys.Q.scale(Q(7)))
    d1, p1 = diagram_for(sys)
    d2, p2 = diagram_for(scaled)
    v1 = vertex_critical_check(d1, p1)
    v2 = vertex_critical_check(d2, p2)
    assert [(v.x, v.lam_star, v.critical) for v in v1] == [
        (v.x, v.lam_star, v.critical) for v in v2
    ]


def test_irrational_ratio_dicritical_suspect():
    # P = w + sqrt2 * z-side ratio: build directly over a tower
    tower, s2 = adjoin_root(QQ_TOWER, UniPoly([Q(-2), Q(0), Q(1)]))
    P = BiPoly({(Q(0), 1): s2}, tower=tower)
    Qd = BiPoly({(Q(1), 0): tower.from_fraction(Q(1))}, tower=tower)
    sys = OdeSystem(P, Qd, tower=tower)
    diagram, prof = diagram_for(sys)
    verdicts = vertex_critical_check(diagram, prof)
    assert len(verdicts) == 1
    assert not verdicts[0].critical
    assert verdicts[0].dicritical_suspect


def test_merged_point_iff_exponent_offset():
    # Both-points occur exactly when k_x = l_{x-1} - 1
    sys = example45(Q(3, 2))
    prof = coeff_profile(sys.P.terms, sys.Q.terms, sys.n)
    for pt in support_points(prof):
        if pt.both:
            assert prof.p[pt.x][0] == prof.q[pt.x - 1][0] - 1
