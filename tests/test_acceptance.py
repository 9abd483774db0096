"""Acceptance suite: every criterion exact (tolerance zero).

Each test prints one PASS line on success; a failing assertion both fails
the test and leaves the criterion line unprinted.  Run with ``pytest -s
tests/test_acceptance.py`` to see the lines.
"""

import random
from fractions import Fraction as F

from nkdeform import (
    casimir,
    clifford,
    cosets,
    decompose,
    deform,
    lie,
)

import clifford_oracle
import slow_oracle


def _report(n, text):
    print("ACCEPTANCE %d PASS: %s" % (n, text))


def test_criterion_1_curvature_spectra():
    expected = {
        "G2/SU(3)": {F(-9): 6, F(-3): 12, F(3): 30},
        "SU(2)^3/SU(2)": {F(-8): 2, F(-4): 6, F(4): 10},
        "Sp(2)/Sp(1)xU(1)": {F(-8): 4, F(0): 12, F(4): 8},
    }
    for name, table in expected.items():
        c = cosets.coset(name)
        spectrum = deform.curvature_spectrum(c, deform.GAUGE_H)
        assert dict(spectrum.entries) == table, name
        assert sum(e * d for e, d in spectrum.entries) == 0
        assert sum(d for _, d in spectrum.entries) == 6 * cosets.gauge_rep(
            c, deform.GAUGE_H
        ).dimension()
    _report(1, "three curvature-operator tables, traceless, dimension 6*dim(h)")


def test_criterion_2_deformations_structure_group_h():
    dims = []
    for name in cosets.COSET_NAMES:
        space = deform.deformation_space(cosets.coset(name), deform.GAUGE_H)
        dims.append(space.real_dimension)
    assert dims == [0, 0, 5, 0]
    sp2 = deform.deformation_space(cosets.coset("sp2"), deform.GAUGE_H)
    assert sp2.halved.entries == {(1, 0): 1}
    _report(2, "H-bundle deformation dimensions (0, 0, 5, 0); Sp(2) answer V(1,0)")


def test_criterion_3_deformations_structure_group_su3():
    expected = {
        "G2/SU(3)": ({}, 0),
        "SU(2)^3/SU(2)": ({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}, 9),
        "Sp(2)/Sp(1)xU(1)": ({(1, 0): 1, (0, 2): 2}, 25),
        "SU(3)/U(1)^2": ({(1, 1): 6}, 48),
    }
    for name, (halved, dim) in expected.items():
        space = deform.deformation_space(cosets.coset(name), deform.GAUGE_SU3)
        assert space.halved.entries == halved, name
        assert space.real_dimension == dim, name
    _report(3, "SU(3)-bundle deformation dimensions (0, 9, 25, 48) and decompositions")


def test_criterion_4_casimir_tables():
    g2 = casimir.context("g2")
    values = sorted(
        {
            casimir.casimir_eigenvalue(g2, hw)
            for hw in slow_oracle.dominant_weights_in_box(g2.root_data, 5)
        },
        reverse=True,
    )
    assert values[:3] == [F(0), F(-6), F(-12)]

    sp2 = casimir.context("sp2")
    table = {
        hw: casimir.casimir_eigenvalue(sp2, hw)
        for hw in [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1)]
    }
    assert list(table.values()) == [F(0), F(-5), F(-8), F(-12), F(-15)]
    sp2_values = sorted(
        {
            casimir.casimir_eigenvalue(sp2, hw)
            for hw in slow_oracle.dominant_weights_in_box(sp2.root_data, 5)
        },
        reverse=True,
    )
    assert sp2_values[:5] == [F(0), F(-5), F(-8), F(-12), F(-15)]

    cubed = casimir.context("su2cubed")
    table = {
        hw: casimir.casimir_eigenvalue(cubed, hw)
        for hw in [(1, 0, 0), (1, 1, 0), (2, 0, 0), (1, 1, 1)]
    }
    assert list(table.values()) == [F(-9, 2), F(-9), F(-12), F(-27, 2)]
    cubed_values = sorted(
        {
            casimir.casimir_eigenvalue(cubed, hw)
            for hw in slow_oracle.dominant_weights_in_box(cubed.root_data, 3)
        },
        reverse=True,
    )
    assert cubed_values[1:5] == [F(-9, 2), F(-9), F(-12), F(-27, 2)]

    for ctx, value, expected in [
        (sp2, F(-8), [(1, 0)]),
        (cubed, F(-4), []),
        (g2, F(-9), []),
        (g2, F(-6), [(1, 0)]),
        (g2, F(-12), [(0, 1)]),
    ]:
        assert casimir.irreps_with_casimir(ctx, value) == expected
    _report(4, "Casimir eigenvalue tables reproduced by enumeration + evaluation")


def test_criterion_5_gram_matrices():
    assert slow_oracle.verify_form_by_trace("su3-in-g2") == (
        (F(-4, 3), F(2, 3)),
        (F(2, 3), F(-4, 3)),
    )
    assert slow_oracle.verify_form_by_trace("g2") == (
        (F(-4), F(2)),
        (F(2), F(-4, 3)),
    )
    assert slow_oracle.verify_form_by_trace("su3-ambient") == (
        (F(-1), F(1, 2)),
        (F(1, 2), F(-1)),
    )
    assert slow_oracle.verify_form_by_trace("sp2") == (
        (F(-1), F(1)),
        (F(1), F(-2)),
    )
    assert slow_oracle.package_gram("sp2") == ((F(-2), F(-1)), (F(-1), F(-1)))
    assert slow_oracle.verify_form_by_trace("sp1u1-in-sp2") == (
        (F(1), F(0)),
        (F(0), F(1)),
    )
    assert slow_oracle.verify_form_by_trace("su2-diagonal-in-su2cubed") == (
        (F(1, 2),),
    )
    # verify_form_by_trace itself raises on disagreement with the package's form;
    # run it across every tag to assert the agreement half of the criterion
    for tag in casimir.PAIR_TAGS:
        slow_oracle.verify_form_by_trace(tag)
    _report(5, "derived Gram matrices match the trace recomputation and the "
               "stated matrices")


def test_criterion_6_branching_goldens():
    sp2 = cosets.coset("sp2")
    got = decompose.branch(sp2.restriction, sp2.g_data, sp2.h_data, (1, 0))
    assert got.entries == {(1, 1): 1, (1, -1): 1, (0, 0): 1}
    got = decompose.branch(sp2.restriction, sp2.g_data, sp2.h_data, (0, 2))
    assert got.entries == {
        (2, 0): 1,
        (0, 0): 1,
        (1, 1): 1,
        (1, -1): 1,
        (0, -2): 1,
        (0, 2): 1,
    }
    g2 = cosets.coset("g2su3")
    got = decompose.branch(g2.restriction, g2.g_data, g2.h_data, (0, 1))
    assert got.entries == {(1, 1): 1, (1, 0): 1, (0, 1): 1}
    flag = cosets.coset("su3t2")
    got = decompose.branch(flag.restriction, flag.g_data, flag.h_data, (1, 1))
    assert got.entries == {
        (0, 0): 2,
        (2, -1): 1,
        (-1, 2): 1,
        (-1, -1): 1,
        (-2, 1): 1,
        (1, -2): 1,
        (1, 1): 1,
    }
    _report(6, "four branching goldens match verbatim")


def test_criterion_7_clifford_suite(rep):
    psi = clifford.STANDARD_SPINOR
    report = clifford.verify_identity_suite(rep, psi)
    assert len(report) == 8 and all(r.passed for r in report)
    blocks = clifford.spinor_decomposition_spectra(rep, psi)
    assert blocks.p_values == (4, 0, -4)
    assert blocks.q_values == (-3, 1, -3)
    p, _ = clifford.extract_PQ(rep, psi)
    assert p.norm_sq() == 4
    spectrum = clifford.q_contraction_spectrum(rep, psi)
    assert dict(spectrum.entries)[F(-1)] == 8
    assert sum(d for _, d in spectrum.entries) == 15
    op = clifford_oracle.q_contraction_operator(rep, psi)
    assert sum(op[i][i] for i in range(len(op))) == sum(e * d for e, d in spectrum.entries)
    _report(7, "eight identity checks, eigenvalue table, |P|^2 = 4, su(3) "
               "eigenspace dimension 8, spectrum exhausts the 15 two-forms")


def test_criterion_8_property_suite(rep):
    rng = random.Random(20160608)
    for rd in (lie.A1, lie.A2, lie.C2, lie.G2):
        for _ in range(50):
            hw = tuple(rng.randint(0, 4) for _ in range(rd.num_coords))
            count = sum(lie.weight_multiplicities(rd, hw).weights.values())
            assert count == lie.dimension(rd, hw)

    for rd, bound in ((lie.A2, 2), (lie.C2, 2), (lie.A1_U1, 2)):
        simple = set(rd.simple_coords)
        for _ in range(10):
            a = tuple(
                rng.randint(0, bound) if i in simple else rng.randint(-2, 2)
                for i in range(rd.num_coords)
            )
            b = tuple(
                rng.randint(0, bound) if i in simple else rng.randint(-2, 2)
                for i in range(rd.num_coords)
            )
            t = decompose.tensor_decompose(rd, a, b)
            assert t.dimension() == lie.dimension(rd, a) * lie.dimension(rd, b)

    for name in cosets.COSET_NAMES:
        c = cosets.coset(name)
        for _ in range(5):
            simple = set(c.g_data.simple_coords)
            hw = tuple(
                rng.randint(0, 2) if i in simple else rng.randint(-2, 2)
                for i in range(c.g_data.num_coords)
            )
            got = decompose.branch(c.restriction, c.g_data, c.h_data, hw)
            assert got.dimension() == lie.dimension(c.g_data, hw)

    for rd in (lie.A1, lie.A2, lie.C2, lie.G2, lie.A1_U1):
        simple = set(rd.simple_coords)
        for _ in range(10):
            hw = tuple(
                rng.randint(0, 3) if i in simple else rng.randint(-3, 3)
                for i in range(rd.num_coords)
            )
            peeled = slow_oracle.peel_off_by_subtraction(
                lie.weight_multiplicities(rd, hw))
            assert peeled.entries == {hw: 1}

    for name in cosets.COSET_NAMES:
        c = cosets.coset(name)
        for gauge in deform.GAUGE_GROUPS:
            space = deform.deformation_space(c, gauge)
            assert all(m % 2 == 0 for m in space.complexified.entries.values())
        assert slow_oracle.abelian_rigidity_check(c) is True
    _report(8, "dimension oracle equivalence, conservation, round trips, "
               "evenness and abelian rigidity")
