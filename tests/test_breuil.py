"""The lattice construction, its verification, reduction mod p, the rank-2
classification recipes, and the pseudo-module counterexample."""

import random
from fractions import Fraction

import pytest

from padicpolygons import (INF, ClassificationError, FamilyParams, RingConfig,
                           TildeObject, VerificationError, analyze_family,
                           build_elements, classify_rank2, from_slopes,
                           hodge_weights, inertia_polygon, normalize_L,
                           phi2_image, pseudo_counterexample, reduce_mod_p,
                           sabotaged_lattice, solve_eqX, strong_lattice,
                           verify_strong_divisibility)
from padicpolygons import adapted
from padicpolygons.breuil import _minor_is_unit
from padicpolygons.oracle import (eqX_substitution, random_tilde,
                                  random_tilde_unit)


def _x(cfg):
    return cfg.k_elem([cfg.teichmuller_generator()])


def _analysis(cfg, L):
    return analyze_family(FamilyParams(cfg, 1, 1, L))


# ---------------------------------------------------------------------------
# normalize_L


def test_normalize_pi_case_ii(cfg7):
    norm = normalize_L(cfg7.pi())
    assert norm.case_tag == "ii"
    assert norm.j == 1
    assert norm.shift == 0
    assert (norm.L - cfg7.pi()).is_zero()


def test_normalize_x_plus_pi_case_i(cfg7):
    L = _x(cfg7) + cfg7.pi()
    norm = normalize_L(L)
    assert norm.case_tag == "i"
    assert (norm.L - L).is_zero()


def test_normalize_scale_and_translate(cfg7):
    # L = p*x + p^2 scales by 1/p and sheds the rational part p
    L = _x(cfg7).mul_p_power(1) + cfg7.k_elem([49])
    norm = normalize_L(L)
    assert norm.case_tag == "i"
    assert norm.shift == -1
    expected = _x(cfg7) + cfg7.k_elem([7])
    assert (norm.L - expected).is_zero()


def test_normalize_rejects_qp(cfg7):
    with pytest.raises(ValueError):
        normalize_L(cfg7.k_elem([12]))
    with pytest.raises(ValueError):
        normalize_L(cfg7.k_elem([49]))


# ---------------------------------------------------------------------------
# build_elements


def test_build_elements_e1_gives_t_zero(cfg7e1):
    params = FamilyParams(cfg7e1, 1, 1, _x(cfg7e1))
    el = build_elements(params, normalize_L(params.L))
    assert el.t.is_zero()
    assert el.v == INF and el.v_exact


def test_build_elements_case_ii_residues(cfg7):
    params = FamilyParams(cfg7, 1, 1, cfg7.pi())
    el = build_elements(params, normalize_L(params.L))
    assert el.case_tag == "ii" and el.j == 1
    # t = -j/(e c_0) and V = -1/c_0 mod p
    c0 = cfg7.c0.residue()
    e_inv = cfg7.gf.elem(cfg7.e).inverse()
    assert el.t.coeffs[0].residue() == -(cfg7.gf.elem(1) * e_inv *
                                         c0.inverse())
    assert el.V.coeffs[0].residue() == -c0.inverse()
    assert el.v == 0


def test_build_elements_rejects_other_weights(cfg7):
    params = FamilyParams(cfg7, 0, 1, cfg7.pi())
    with pytest.raises(ValueError):
        build_elements(params, normalize_L(cfg7.pi()))


def test_build_elements_precision_floor():
    cfg = RingConfig(7, 2, 2, [-7, 0, 1], prec=5, r=2)
    params = FamilyParams(cfg, 1, 1, cfg.pi())
    with pytest.raises(ValueError):
        build_elements(params, normalize_L(cfg.pi()))


def test_elements_defining_equations(cfg7):
    for L in (cfg7.pi(), _x(cfg7) + cfg7.pi()):
        params = FamilyParams(cfg7, 1, 1, L)
        el = build_elements(params, normalize_L(L))
        slam = el.lam.frobenius()
        # (sigma(lambda) - L_0) t = L_1 mod Fil^1
        lhs = (el.L0.mul_w(-1) + slam) * el.t - el.L1
        assert lhs.val_E() >= 1
        # U(L_0 - sigma(lambda)) = p + V E(u) exactly
        diff = el.L0 + cfg7.s([-slam])
        assert (el.U * diff) == cfg7.s([cfg7.p]) + el.V * cfg7.s_E()
        # Z(1 + c phi(t)) = phi(L_0) + c phi(t sigma(lambda))
        lhs = el.Z * (cfg7.s_one() + cfg7.c * el.t.phi())
        rhs = el.L0.phi() + cfg7.c * (el.t * cfg7.s([slam])).phi()
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the lattice and strong divisibility


def test_rank1_analogue(cfg7):
    # phi(E^2 e) = p^2 c^2 e lands in p^2 M for the trivial rank-1 lattice
    E2 = cfg7.s_E() * cfg7.s_E()
    img = E2.phi()
    assert img.val_p() >= 2
    assert img.div_exact_p(2) == cfg7.c * cfg7.c


@pytest.mark.parametrize("which", ["pi", "x", "x+pi"])
def test_strong_divisibility(cfg7, which):
    L = {"pi": cfg7.pi(), "x": _x(cfg7), "x+pi": _x(cfg7) + cfg7.pi()}[which]
    params = FamilyParams(cfg7, 1, 1, L)
    el = build_elements(params, normalize_L(L))
    lat = strong_lattice(el)
    report = verify_strong_divisibility(lat)
    assert report.all_passed, report.entries


@pytest.mark.parametrize("which", ["pi", "x", "x+pi"])
def test_sabotage_fails_on_m_ptE(cfg7, which):
    L = {"pi": cfg7.pi(), "x": _x(cfg7), "x+pi": _x(cfg7) + cfg7.pi()}[which]
    params = FamilyParams(cfg7, 1, 1, L)
    el = build_elements(params, normalize_L(L))
    report = verify_strong_divisibility(sabotaged_lattice(el))
    assert not report.all_passed
    verdict = dict((n, ok) for n, ok, _ in report.entries)
    assert verdict["m(p+tE)"] is False
    # the E^2-multiples of the basis always pass
    assert verdict["E^2*f1"] is True and verdict["E^2*f2"] is True


# ---------------------------------------------------------------------------
# phi_2 images: closed C-formula against the structure constants


def _tilde_frac(cfg, num, den):
    return num * den.unit_inverse()


def test_phi2_images_case_i(cfg7):
    L = _x(cfg7) + cfg7.pi()
    el = build_elements(FamilyParams(cfg7, 1, 1, L), normalize_L(L))
    lat = strong_lattice(el)
    E = cfg7.s_E()
    cbar = cfg7.c.reduce_mod_p()
    tbar = el.t.reduce_mod_p()
    one_cphit = (cfg7.s_one() + cfg7.c * el.t.phi()).reduce_mod_p()
    # A = p + tE: image (1 + c phi(t)) f_1
    img = phi2_image(cfg7.s([cfg7.p]) + el.t * E, lat)
    assert (img[0] - one_cphit).is_zero() and img[1].is_zero()
    assert img[0].is_unit()
    # A = E^2: image C f_2 with C = c^2 phi(sigma(lam) - L_0)/(1 + c phi(t))
    img2 = phi2_image(E * E, lat)
    slam = el.lam.frobenius()
    num = (cfg7.c * cfg7.c * (cfg7.s([slam]) - el.L0).phi()).reduce_mod_p()
    want = _tilde_frac(cfg7, num, one_cphit)
    assert img2[0].is_zero() and (img2[1] - want).is_zero()
    assert img2[1].is_unit()


def test_phi2_images_case_ii(cfg7):
    L = cfg7.pi()
    el = build_elements(FamilyParams(cfg7, 1, 1, L), normalize_L(L))
    lat = strong_lattice(el)
    E = cfg7.s_E()
    cbar = cfg7.c.reduce_mod_p()
    one_cphit = (cfg7.s_one() + cfg7.c * el.t.phi()).reduce_mod_p()
    # A = U E: image c phi(U) f_1 + C f_2, C = c^2 phi(t - V)/(1 + c phi(t))
    img = phi2_image(el.U * E, lat)
    want0 = cbar * el.U.phi().reduce_mod_p()
    num = (cfg7.c * cfg7.c * (el.t - el.V).phi()).reduce_mod_p()
    want1 = _tilde_frac(cfg7, num, one_cphit)
    assert (img[0] - want0).is_zero()
    assert (img[1] - want1).is_zero()
    assert img[1].is_unit()


def test_phi2_image_rejects_non_members(cfg7):
    L = _x(cfg7) + cfg7.pi()
    el = build_elements(FamilyParams(cfg7, 1, 1, L), normalize_L(L))
    lat = strong_lattice(el)
    with pytest.raises(ValueError):
        phi2_image(cfg7.s_one(), lat)


# ---------------------------------------------------------------------------
# reduction and the structure constants


def _B(el):
    """(B_1, B_2) of the family, with s = sigma(lambda):
    B_1 = (L_0 - s) + u^e tronc_1(t (s - Z))/p and
    B_2 = u^e (1 + tronc_1(U (s - Z))/p)."""
    cfg = el.cfg
    slam = cfg.s([el.lam.frobenius()])
    ue = cfg.s([0] * cfg.e + [1])
    B1 = el.L0 - slam + ue * (el.t * (slam - el.Z)).tronc(1).div_exact_p(1)
    B2 = ue * (cfg.s_one() + (el.U * (slam - el.Z)).tronc(1).div_exact_p(1))
    return B1.reduce_mod_p(), B2.reduce_mod_p()


@pytest.mark.parametrize("which", ["pi", "x", "x+pi"])
def test_reduction_generators(cfg7, which):
    L = {"pi": cfg7.pi(), "x": _x(cfg7), "x+pi": _x(cfg7) + cfg7.pi()}[which]
    el = build_elements(FamilyParams(cfg7, 1, 1, L), normalize_L(L))
    lat = strong_lattice(el)
    obj = reduce_mod_p(lat, verify_strong_divisibility(lat))
    e = cfg7.e
    B1, B2 = _B(el)
    # g_1 = u^e tbar f_1 + B_1-bar f_2 (the f_2-coordinate reduces to B_1)
    g1 = obj.fil_gens[0]
    assert (g1[0] - cfg7.tilde_u(e) * el.t.reduce_mod_p()).is_zero()
    assert (g1[1] - B1).is_zero()
    g2 = obj.fil_gens[1]
    if el.case_tag == "i":
        assert (g2[0] - cfg7.tilde_u(2 * e)).is_zero() and g2[1].is_zero()
    else:
        assert (g2[0] - cfg7.tilde_u(e) * el.U.reduce_mod_p()).is_zero()
        assert (g2[1] - B2).is_zero()


def test_minor_unit_from_constant_terms(cfg7, rng):
    # the constant-term test agrees with the full minor, zero constant
    # terms included
    seen = set()
    for _ in range(60):
        x, y = [[random_tilde(cfg7, rng, 3) if rng.random() < 0.7 else
                 cfg7.tilde_u(1) for _ in range(2)] for _ in range(2)]
        want = (x[0] * y[1] - x[1] * y[0]).is_unit()
        assert _minor_is_unit(x, y) == want
        seen.add(want)
    assert seen == {True, False}


def test_case_ii_unit_determinant_identity(cfg7):
    # the u^e-coefficient of tbar B_2-bar - B_1-bar U-bar is the constant
    # term of tbar - V-bar, and it does not vanish
    el = build_elements(FamilyParams(cfg7, 1, 1, cfg7.pi()),
                        normalize_L(cfg7.pi()))
    B1, B2 = _B(el)
    lhs = el.t.reduce_mod_p() * B2 - B1 * el.U.reduce_mod_p()
    want = (el.t - el.V).reduce_mod_p().coeffs[0]
    assert lhs.coeffs[cfg7.e] == want
    assert not want.is_zero()


def test_case_i_structure_units(cfg7):
    el = build_elements(FamilyParams(cfg7, 1, 1, _x(cfg7)),
                        normalize_L(_x(cfg7)))
    lat = strong_lattice(el)
    obj = reduce_mod_p(lat, verify_strong_divisibility(lat))
    # both phi_2 coefficients are units in the normalized picture
    assert obj.phi_images[0][0].is_unit()
    assert obj.phi_images[1][1].is_unit()
    assert _B(el)[0].is_unit()


# ---------------------------------------------------------------------------
# classification


def test_classify_family_cases(cfg7):
    for L, slopes, shape in (
            (cfg7.pi(), (1, 1), "2"),
            (_x(cfg7), (0, 2), "0"),
            (_x(cfg7) + cfg7.pi(), (Fraction(1, 2), Fraction(3, 2)), "1")):
        el = build_elements(FamilyParams(cfg7, 1, 1, L), normalize_L(L))
        lat = strong_lattice(el)
        cls = classify_rank2(reduce_mod_p(lat,
                                          verify_strong_divisibility(lat)))
        assert cls.shape == shape
        assert cls.slopes == tuple(Fraction(s) for s in slopes)


def _synthetic_shape1(cfg, j, rng):
    e = cfg.e
    alpha = random_tilde_unit(cfg, rng, 4)
    mu = random_tilde_unit(cfg, rng, 4)
    rho = random_tilde_unit(cfg, rng, 4)
    g1 = (alpha * cfg.tilde_u(e + j), cfg.tilde_one())
    g2 = (cfg.tilde_u(2 * e), cfg.tilde_zero())
    i1 = (mu, cfg.tilde_zero())
    i2 = (cfg.tilde_zero(), rho)
    return TildeObject(cfg, [g1, g2], [i1, i2])


def test_classify_synthetic_shape1_irreducible(cfg7, rng):
    # j >= e: irreducible with slopes (0, 2)
    obj = _synthetic_shape1(cfg7, cfg7.e, rng)
    cls = classify_rank2(obj)
    assert cls.shape == "1" and cls.irreducible
    assert cls.slopes == (0, 2)


def test_classify_synthetic_shape1_reducible(cfg7, rng):
    obj = _synthetic_shape1(cfg7, 1, rng)
    cls = classify_rank2(obj)
    assert not cls.irreducible
    assert cls.slopes == (Fraction(1, 2), Fraction(3, 2))
    assert cls.sub_fil_exponent == cfg7.e - 1


def test_classify_rejects_unknown_shape(cfg7):
    g1 = (cfg7.tilde_u(1), cfg7.tilde_zero())
    g2 = (cfg7.tilde_zero(), cfg7.tilde_u(1))
    i1 = (cfg7.tilde_one(), cfg7.tilde_zero())
    i2 = (cfg7.tilde_zero(), cfg7.tilde_one())
    with pytest.raises(ClassificationError):
        classify_rank2(TildeObject(cfg7, [g1, g2], [i1, i2]))


# ---------------------------------------------------------------------------
# eq-X solving


def test_solve_eqX_truncating(cfg7m1):
    # p = 7, e = 2, j = 1: the correction exponent 28 >= 14 kills the term
    rho = cfg7m1.tilde([3, 1])
    alpha = cfg7m1.tilde([2, 0, 5])
    mu = cfg7m1.tilde([4, 2])
    X = solve_eqX(rho, alpha, mu, 2, 1)
    assert (X + mu * (rho * alpha.phi()).unit_inverse()).is_zero()


def test_solve_eqX_nontrivial(cfg13, rng):
    # units of every length up to ep = 65; the constant coefficient of X
    # is pinned to -mu/(rho phi(alpha)); the check asserts q = 52 < ep, so
    # u^q is not truncated
    assert eqX_substitution(rng, 10, max_deg=cfg13.e * cfg13.p) == []


def test_solve_eqX_mu_matching(cfg7m1):
    rho = cfg7m1.tilde([1])
    alpha = cfg7m1.tilde([3])
    mu = -(rho * alpha.phi())
    X = solve_eqX(rho, alpha, mu, 2, 1)
    assert (X - cfg7m1.tilde_one()).is_zero()


def test_solve_eqX_rejects_nonunits(cfg7m1):
    with pytest.raises(ValueError):
        solve_eqX(cfg7m1.tilde_u(1), cfg7m1.tilde_one(), cfg7m1.tilde_one(),
                  2, 1)


# ---------------------------------------------------------------------------
# inertia polygons


def test_inertia_polygon_values():
    assert inertia_polygon(Fraction(0)) == from_slopes([1, 1])
    assert inertia_polygon(Fraction(1, 2)) == \
        from_slopes([Fraction(1, 2), Fraction(3, 2)])
    assert inertia_polygon(INF) == from_slopes([0, 2])
    assert inertia_polygon(Fraction(3, 2)) == from_slopes([0, 2])
    for v in (Fraction(0), Fraction(1, 2), INF):
        assert inertia_polygon(v).endpoint[1] == 2
    with pytest.raises(ValueError):
        inertia_polygon(Fraction(-1, 2))


def test_rank1_inertia_weight():
    # the tame inertia weight of a rank-1 object with Fil^r = u^s is its
    # Hodge weight r - s/e
    assert hodge_weights([0], 2, 2) == [2]
    assert hodge_weights([4], 2, 2) == [0]
    assert hodge_weights([1], 2, 2) == [Fraction(3, 2)]
    with pytest.raises(ValueError):
        hodge_weights([5], 2, 2)


def test_rank1_tame_slope_matches_hodge(cfg7):
    # when Hodge and Newton coincide in rank 1 (slope s), the tame weight
    # computed from the filtration exponent e(r - s) is s again
    for s in (0, 1, 2):
        n = cfg7.e * (cfg7.r - s)
        assert hodge_weights([n], cfg7.r, cfg7.e) == [s]


# ---------------------------------------------------------------------------
# end-to-end analyses


def test_analyze_family_slope_table(cfg7):
    table = [
        (cfg7.pi(), Fraction(0), (1, 1)),
        (_x(cfg7), INF, (0, 2)),
        (_x(cfg7) + cfg7.pi(), Fraction(1, 2),
         (Fraction(1, 2), Fraction(3, 2))),
    ]
    for L, v, slopes in table:
        a = _analysis(cfg7, L)
        assert a.all_passed, [x for x in a.verdicts if not x[1]]
        assert a.elements.v == v
        assert a.inertia == from_slopes(list(slopes))
        vL = normalize_L(L).L.val_p()
        assert a.hodge_Mbar == from_slopes([vL, 2 - vL])


def test_analyze_family_exponents_at_pi(cfg7):
    a = _analysis(cfg7, cfg7.pi())
    assert a.exponents_u == [1, 3]
    assert a.exponents_E == [0, 2]


def test_u_exponents_need_no_extra_u2e_columns():
    """E = u^e mod p for every Eisenstein E, so the reduced E^2 f_i already
    are the columns (u^{2e}, 0) and (0, u^{2e}); here E = u^2 + 7u - 7."""
    cfg = RingConfig(7, 2, 2, [-7, 7, 1], prec=7, r=2)
    u2e, zero, uc = cfg.tilde_u(4), cfg.tilde_zero(), adapted.UCarrier(cfg)
    assert (cfg.s_E() * cfg.s_E()).reduce_mod_p() == u2e

    def exponents(cols):
        return adapted.divisor_exponents(
            [[c[i] for c in cols] for i in range(2)], uc)

    for L in (cfg.pi(), _x(cfg) + cfg.pi()):
        a = _analysis(cfg, L)
        cols = [tuple(c.reduce_mod_p() for c in g)
                for _, g in a.lattice.fil_gens]
        assert a.exponents_u == exponents(cols) == \
            exponents(cols + [(u2e, zero), (zero, u2e)])


def test_pseudo_counterexample_values():
    a = pseudo_counterexample(2, 7)
    assert a.hodge_Mbar == from_slopes([2, 2])
    assert a.newton == from_slopes([1, 3])
    assert a.strict_at_1 and a.all_passed
    b = pseudo_counterexample(2, 11)
    assert b.hodge_Mbar == from_slopes([2, 2])
    assert b.newton == from_slopes([1, 3])
    c = pseudo_counterexample(1, 7)
    assert c.coincide and not c.strict_at_1 and c.all_passed


def test_pseudo_counterexample_rejects_large_r():
    with pytest.raises(ValueError):
        pseudo_counterexample(3, 7)
