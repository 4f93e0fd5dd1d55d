"""The lattice construction, its verification, reduction mod p, the rank-2
classification recipes, and the pseudo-module counterexample."""

import random
from fractions import Fraction

import pytest

from padicpolygons import (INF, ClassificationError, DivisibilityError,
                           FamilyParams, PrecisionError, RingConfig,
                           StrongLattice, TildeObject, VerificationError,
                           analyze_family, build_elements, classify_rank2,
                           from_slopes, hodge_weights, inertia_polygon,
                           normalize_L, phi2_image, pseudo_counterexample,
                           reduce_mod_p, solve_eqX, strong_lattice,
                           verify_strong_divisibility)
from padicpolygons import adapted, breuil
from padicpolygons.arith import STrunc, TildePoly
from padicpolygons.breuil import (_family_exponents, _m_of, _minor_is_unit,
                                  _normalize_generators)
from padicpolygons.cli import parse_L_expression
from padicpolygons.oracle import (eqX_substitution, random_tilde,
                                  random_tilde_unit)
from test_outcome_table import L_SPECS, monomial_E, seeded_E


def _x(cfg):
    return cfg.k_elem([cfg.teichmuller_generator()])


def _analysis(cfg, L):
    return analyze_family(FamilyParams(cfg, 1, 1, L))


@pytest.fixture(scope="module")
def table_elements():
    """(cfg, elements) of every outcome-table row with p <= 11, under both
    E, whose L does not lie in Q_p."""
    rows = []
    for p in (7, 11):
        for e in range(1, (p - 2) // 2 + 1):     # 2e < p - 1
            for m in (1, 2):
                for E in (monomial_E(p, e), seeded_E(p, m, e)):
                    cfg = RingConfig(p, m, e, E, prec=p, r=2)
                    for spec in L_SPECS:
                        params = FamilyParams(
                            cfg, 1, 1, parse_L_expression(cfg, spec))
                        try:
                            params.normalized
                        except ValueError:           # L lies in Q_p
                            continue
                        rows.append((cfg, build_elements(params)))
    return rows


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
    el = build_elements(params)
    assert el.t.is_zero()
    assert el.v == INF and el.v_exact


def test_build_elements_case_ii_residues(cfg7):
    params = FamilyParams(cfg7, 1, 1, cfg7.pi())
    el = build_elements(params)
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
        build_elements(params)


def test_build_elements_precision_floor():
    cfg = RingConfig(7, 2, 2, [-7, 0, 1], prec=5, r=2)
    params = FamilyParams(cfg, 1, 1, cfg.pi())
    with pytest.raises(ValueError):
        build_elements(params)


def test_elements_defining_equations(cfg7):
    for L in (cfg7.pi(), _x(cfg7) + cfg7.pi()):
        params = FamilyParams(cfg7, 1, 1, L)
        el = build_elements(params)
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


def _same(x, y):
    return x.flat == y.flat and x.precs == y.precs


def test_t_case_i_matches_the_inverse_in_S(table_elements):
    """Case (i) once took t = tronc_1(L_1 (-(L_0 - sigma(lambda)))^{-1})
    through a Newton inverse in S; the K inverse gives the same digits."""
    case_i = [(cfg, el) for cfg, el in table_elements if el.case_tag == "i"]
    assert len(case_i) == 26
    for cfg, el in case_i:
        diff = el.L0 - el.lam.frobenius()
        assert _same(el.t, (el.L1 * (-diff).unit_inverse()).tronc(1))


def test_t_and_U_match_two_K_inverses(table_elements):
    """One K inverse of (L_0 - sigma(lambda))(pi) serves t and U; each
    matches its own inverse."""
    assert len(table_elements) == 57
    for cfg, el in table_elements:
        diff_pi = (el.L0 - el.lam.frobenius()).mod_E()
        t = (el.L1.mod_E() * (-diff_pi).inverse()).to_strunc()
        U = diff_pi.inverse().mul_p_power(1).to_strunc()
        assert _same(el.t, t) and _same(el.U, U)


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
    el = build_elements(params)
    lat = strong_lattice(el)
    report = verify_strong_divisibility(lat)
    assert report.all_passed, report.entries


@pytest.mark.parametrize("which", ["pi", "x", "x+pi"])
def test_sabotage_fails_on_m_ptE(cfg7, which):
    """Negative control: the lattice with Z + 1 in place of Z.  m(p+tE)
    either cannot be built (its division by p fails) or fails verification,
    and the E^2-multiples of the basis pass."""
    L = {"pi": cfg7.pi(), "x": _x(cfg7), "x+pi": _x(cfg7) + cfg7.pi()}[which]
    el = build_elements(FamilyParams(cfg7, 1, 1, L))
    Z = el.Z + cfg7.s_one()
    E2, zero = cfg7.s_E2(), cfg7.s_zero()
    gens = [("E^2*f1", (E2, zero)), ("E^2*f2", (zero, E2))]
    built = True
    try:
        gens.append(("m(p+tE)", _m_of(
            el, cfg7.s([cfg7.p]) + el.t * cfg7.s_E(), Z)))
    except (DivisibilityError, PrecisionError):
        built = False
    report = verify_strong_divisibility(StrongLattice(cfg7, Z, gens, el))
    verdict = dict((n, ok) for n, ok, _ in report.entries)
    assert not built or verdict["m(p+tE)"] is False
    assert verdict["E^2*f1"] is True and verdict["E^2*f2"] is True


@pytest.mark.parametrize("which", ["pi", "x", "x+pi"])
def test_m_of_rejects_a_wrong_UE(cfg7, which):
    """Negative control for m(UE): (U + 1)E is not in the premise ideal, and
    the exact division by p^2 in ``_m_of`` refuses it.  S-multiples of UE
    are in the ideal and pass verification, so this division is the guard
    for m(UE)."""
    L = {"pi": cfg7.pi(), "x": _x(cfg7), "x+pi": _x(cfg7) + cfg7.pi()}[which]
    el = build_elements(FamilyParams(cfg7, 1, 1, L))
    with pytest.raises(DivisibilityError):
        _m_of(el, (el.U + cfg7.s_one()) * cfg7.s_E(), el.Z)


# ---------------------------------------------------------------------------
# phi_2 images: closed C-formula against the structure constants


def _tilde_frac(cfg, num, den):
    return num * den.unit_inverse()


def test_phi2_images_case_i(cfg7):
    L = _x(cfg7) + cfg7.pi()
    el = build_elements(FamilyParams(cfg7, 1, 1, L))
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
    el = build_elements(FamilyParams(cfg7, 1, 1, L))
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
    el = build_elements(FamilyParams(cfg7, 1, 1, L))
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
    el = build_elements(FamilyParams(cfg7, 1, 1, L))
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
    el = build_elements(FamilyParams(cfg7, 1, 1, cfg7.pi()))
    B1, B2 = _B(el)
    lhs = el.t.reduce_mod_p() * B2 - B1 * el.U.reduce_mod_p()
    want = (el.t - el.V).reduce_mod_p().coeffs[0]
    assert lhs.coeffs[cfg7.e] == want
    assert not want.is_zero()


def test_case_i_structure_units(cfg7):
    el = build_elements(FamilyParams(cfg7, 1, 1, _x(cfg7)))
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
        el = build_elements(FamilyParams(cfg7, 1, 1, L))
        lat = strong_lattice(el)
        cls = classify_rank2(reduce_mod_p(lat,
                                          verify_strong_divisibility(lat)))
        assert cls.shape == shape
        assert cls.slopes == tuple(Fraction(s) for s in slopes)


def test_fil2_generators_have_determinant_u_2e():
    # Cramer's rule in _fil2_solver is exact because the two reduced Fil^2
    # generators of every classifying instance have det = u^{2e} * unit
    shapes = set()
    for p, e in ((7, 2), (11, 4)):
        cfg = RingConfig(p, 2, e, monomial_E(p, e), prec=p, r=2)
        for spec in ("pi", "x", "x+pi", "pi^3+x"):
            params = FamilyParams(cfg, 1, 1, parse_L_expression(cfg, spec))
            lat = strong_lattice(build_elements(params))
            try:
                obj = reduce_mod_p(lat, verify_strong_divisibility(lat))
            except ValueError:          # the premise-ideal refusal
                continue
            shapes.add(classify_rank2(obj).shape)
            (a, b), (c, d) = obj.fil_gens
            assert (a * d - c * b).u_val() == 2 * e, (p, e, spec)
    assert shapes == {"0", "1", "2"}


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


def test_classify_reports_a_phi2_image_not_proportional(cfg7, rng,
                                                        monkeypatch):
    """With X off by 1, u^{e-j} m stays in Fil^2, but its phi_2 image is no
    longer a unit multiple of m."""
    obj = _synthetic_shape1(cfg7, 1, rng)
    monkeypatch.setattr(breuil, "solve_eqX",
                        lambda *args, _s=solve_eqX: _s(*args) + 1)
    with pytest.raises(ClassificationError) as info:
        classify_rank2(obj)
    assert "{'X_unit': True, 'fil_member': True, 'phi2_proportional_unit': " \
        "False, 'n_stable': True}" in str(info.value)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_shape1_units_inverted_mod_u_e(cfg7, cfg13, rng, j):
    """Shape (1) inverts its units in k[u]/u^e; mu, rho and phi(alpha)
    equal the formulas over the full k[u]/u^{ep}, here on the synthetic
    shape-1 objects with both generators rescaled by random units."""
    for cfg in (cfg7, cfg13):
        base = _synthetic_shape1(cfg, j, rng)
        ua, ub = (random_tilde_unit(cfg, rng, cfg.e * cfg.p)
                  for _ in range(2))
        (a0, a1), (b0, b1) = base.fil_gens
        ga, gb = (ua * a0, ua * a1), (ub * b0, ub * b1)
        ia, ib = base.phi_images
        shape, data = _normalize_generators(
            TildeObject(cfg, [ga, gb], base.phi_images))
        assert shape == "1" and data["j"] == j
        sa = ga[1].unit_inverse()
        assert data["mu"] == ia[0] * sa.phi()
        assert data["rho"] == ib[1] * gb[0].unit_part()[1].unit_inverse().phi()
        jv, aunit = (ga[0] * sa).unit_part()
        assert jv - cfg.e == j
        assert data["alpha"].phi() == aunit.phi()


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


def ref_solve_eqX(rho, alpha, mu, e, j):
    """The fixed-point loop at full length, from X = -mu/(rho phi(alpha)),
    for at most ep // q + 2 steps, kept here as the reference."""
    cfg = rho.cfg
    ep = cfg.e * cfg.p
    q = cfg.p * ((cfg.p + 1) * (e - j) - 2 * e)
    phialpha = alpha.phi()
    X = -(mu * (rho * phialpha).unit_inverse())
    if q < ep:
        uq = cfg.tilde_u(q)
        for _ in range(ep // q + 2):
            Xn = mu * (rho * (-phialpha + X.phi() * uq)).unit_inverse()
            if (Xn - X).is_zero():
                break
            X = Xn
    return X, q


@pytest.mark.parametrize("ring, overs", [
    # q = 234, 52: L = 0, 1
    ((13, 1, 5, [-13, 0, 0, 0, 0, 1], 8, 2), {3: [65], 4: [1, 65]}),
    # q = 84, 28 >= ep: L = 0
    ((7, 2, 2, [-7, 0, 1], 7, 2), {0: [14], 1: [14]}),
    # q = 24, 12 < e: L = 16 in one step, L = 20 in two (k = 12, 20)
    ((3, 2, 24, [-3] + [0] * 23 + [1], 3, 0), {10: [16, 72],
                                                11: [20, 20, 72]}),
], ids=["13-1-5", "7-2-2", "3-2-24-r0"])
def test_solve_eqX_matches_the_full_length_loop(ring, overs, monkeypatch):
    """The u^L iteration against the full-length loop, including q < e at
    (3,2,24) with r = 0, where phi(X) mod u^e reads more than X_0.  The
    lengths of the quotients the solver forms are pinned: one length-L step
    for each step of k <- min(L, pk + q) from k = 0 to L, L = max(0,
    e - q/p), then the one full-length division."""
    p, m, e, E, prec, r = ring
    cfg = RingConfig(p, m, e, E, prec=prec, r=r)
    rng = random.Random(17)
    lengths, inner = [], TildePoly.over

    def over(self, *divisors):
        out = inner(self, *divisors)
        lengths.append(len(out.coeffs))
        return out

    monkeypatch.setattr(TildePoly, "over", over)
    for j, want_lengths in overs.items():
        for _ in range(2):
            rho, alpha, mu = (random_tilde_unit(cfg, rng) for _ in range(3))
            want, q = ref_solve_eqX(rho, alpha, mu, e, j)
            assert rho * want * (-alpha.phi() + want.phi() * cfg.tilde_u(q)) \
                == mu
            del lengths[:]
            assert solve_eqX(rho, alpha, mu, e, j).coeffs == want.coeffs
            assert lengths == want_lengths


@pytest.mark.parametrize("ring, js", [
    ((13, 1, 5, [-13, 0, 0, 0, 0, 1], 8, 2), (3, 4)),
    ((7, 2, 2, [-7, 0, 1], 7, 2), (0, 1)),
], ids=["13-1-5", "7-2-2"])
def test_solve_eqX_check_fires_on_a_wrong_quotient(ring, js, monkeypatch):
    """With the full-length quotient X = mu / (rho D(Y)) off by u^{ep-1},
    the check rho X D(X) == mu fails: D(X) reads X mod u^e only, so the two
    sides differ by rho_0 D(X)_0 u^{ep-1}.  The units also avoid
    mu_0 / rho_0 = phi(alpha)_0^2, where the errors of the earlier check
    (mu/rho) / X = D(X), with three wrong quotients, cancelled."""
    p, m, e, E, prec, r = ring
    cfg = RingConfig(p, m, e, E, prec=prec, r=r)
    ep = cfg.e * cfg.p
    rng = random.Random(18)
    units = [[random_tilde_unit(cfg, rng) for _ in range(3)] for _ in js]
    inner = TildePoly.over

    def off(self, *divisors):
        out = inner(self, *divisors)
        return out + cfg.tilde_u(ep - 1) if len(out.coeffs) == ep else out

    monkeypatch.setattr(TildePoly, "over", off)
    for j, (rho, alpha, mu) in zip(js, units):
        assert mu.coeffs[0] * rho.coeffs[0].inverse() != \
            alpha.phi().coeffs[0] ** 2
        with pytest.raises(ArithmeticError, match="fixed point failed"):
            solve_eqX(rho, alpha, mu, e, j)


def test_solve_eqX_rejects_nonunits(cfg7m1):
    with pytest.raises(ValueError):
        solve_eqX(cfg7m1.tilde_u(1), cfg7m1.tilde_one(), cfg7m1.tilde_one(),
                  2, 1)


@pytest.mark.parametrize("short", ["rho", "mu"])
def test_solve_eqX_rejects_operands_of_different_lengths(cfg13, short):
    """rho and mu are units of one k[u]/u^n: a shorter one is refused,
    whether or not the solver's full-length step divides by it."""
    rng = random.Random(19)
    ep = cfg13.e * cfg13.p
    units = dict(zip(("rho", "alpha", "mu"),
                     (random_tilde_unit(cfg13, rng) for _ in range(3))))
    for n in (cfg13.e, ep - 1):
        args = dict(units, **{short: units[short].truncate(n)})
        with pytest.raises(ValueError):
            solve_eqX(args["rho"], args["alpha"], args["mu"], 5, 4)


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


def test_analyze_family_normalizes_L_once(cfg7, monkeypatch):
    """The lattice pipeline and the admissibility verdict share one
    normalization of L (``FamilyParams.normalized``)."""
    calls = []
    original = breuil.normalize_L

    def counted(L):
        calls.append(L)
        return original(L)

    monkeypatch.setattr(breuil, "normalize_L", counted)
    a = _analysis(cfg7, _x(cfg7) + cfg7.pi())
    assert len(calls) == 1
    assert dict((n, ok) for n, ok, _ in a.verdicts)["weakly_admissible"]


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


def test_family_u_exponents_match_full_minors(table_elements):
    """The u-adic step runs over k[u]/u^{2e+1}; the minors of the full
    columns over k[u]/u^{ep} give the same exponents."""
    for cfg, el in table_elements:
        lat = strong_lattice(el)
        cols = [tuple(c.reduce_mod_p() for c in g) for _, g in lat.fil_gens]
        full = adapted.minor_exponents([[c[i] for c in cols]
                                        for i in range(2)],
                                       adapted.UCarrier(cfg))
        assert _family_exponents(cfg, lat)[1] == full


def _operand_lengths(monkeypatch, cls, name):
    """Record len(coeffs) of the left operand of each cls.name call."""
    seen = []
    inner = getattr(cls, name)

    def wrapped(self, *args):
        seen.append(len(self.coeffs))
        return inner(self, *args)

    monkeypatch.setattr(cls, name, wrapped)
    return seen


def test_family_steps_stay_in_small_rings(monkeypatch):
    """At (11,2,4), L = x + pi: the u-adic exponents make no product in the
    full k[u]/u^{ep}, and build_elements inverts in S once (for Z)."""
    cfg = RingConfig(11, 2, 4, monomial_E(11, 4), prec=11, r=2)
    L = _x(cfg) + cfg.pi()
    params = FamilyParams(cfg, 1, 1, L)
    params.normalized        # the count covers build_elements alone
    inverses = _operand_lengths(monkeypatch, STrunc, "unit_inverse")
    el = build_elements(params)
    assert el.case_tag == "i" and len(inverses) == 1
    lat = strong_lattice(el)
    products = _operand_lengths(monkeypatch, TildePoly, "__mul__")
    _family_exponents(cfg, lat)
    assert products and set(products) == {2 * cfg.e + 1}


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


def test_pseudo_counterexample_names_exhausted_digits():
    # det(phi) = -c0^4 p^4 is zero as known at prec 4
    with pytest.raises(PrecisionError, match="^Newton polygon of phi: "):
        pseudo_counterexample(2, 11, prec=4)


def test_pseudo_counterexample_rejects_large_r():
    with pytest.raises(ValueError):
        pseudo_counterexample(3, 7)
