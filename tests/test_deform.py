from fractions import Fraction as F

import pytest

from nkdeform import casimir, cli, cosets, decompose, deform, lie
from nkdeform.errors import EvennessViolationError, UnknownTagError

import slow_oracle


# The frozen answers for every coset x gauge step.  Curvature spectra, by
# alias: for H those of Prop 4.2; for SU3 assembled by the same Casimir
# bookkeeping, derived by hand once (the G2 case coincides with the H case
# since H = SU(3)).
SPECTRA = {
    "H": {
        "g2su3": {F(-9): 6, F(-3): 12, F(3): 30},
        "su2cubed": {F(-8): 2, F(-4): 6, F(4): 10},
        "sp2": {F(-8): 4, F(0): 12, F(4): 8},
        # abelian isotropy: the curvature operator vanishes identically
        "su3t2": {F(0): 12},
    },
    "SU3": {
        "g2su3": {F(-9): 6, F(-3): 12, F(3): 30},
        "su2cubed": {F(-12): 6, F(-8): 2, F(-4): 16, F(4): 10, F(8): 14},
        "sp2": {F(-12): 6, F(-8): 4, F(-4): 6, F(0): 14, F(4): 8, F(8): 6,
                F(12): 4},
        "su3t2": {F(-12): 12, F(0): 24, F(12): 12},
    },
}

# Thm 5.2: the halved deformation space and its real dimension.
DEFORMATIONS = {
    "H": {
        "G2/SU(3)": ({}, 0),
        "SU(2)^3/SU(2)": ({}, 0),
        "Sp(2)/Sp(1)xU(1)": ({(1, 0): 1}, 5),
        "SU(3)/U(1)^2": ({}, 0),
    },
    "SU3": {
        "G2/SU(3)": ({}, 0),
        "SU(2)^3/SU(2)": ({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}, 9),
        "Sp(2)/Sp(1)xU(1)": ({(1, 0): 1, (0, 2): 2}, 25),
        "SU(3)/U(1)^2": ({(1, 1): 6}, 48),
    },
}


def spectrum_dict(name, gauge):
    return dict(deform.curvature_spectrum(cosets.coset(name), gauge).entries)


def test_memoised_results_equal_fresh_ones():
    """Fresh-vs-memo oracle: each of the eight coset x gauge steps, on a
    descriptor rebuilt after the tensor-product, branching and dimension
    memos are emptied (so that its gauge summands and E_alpha (x) m* are
    derived again), gives what the stored descriptor and warm memos give."""
    memos = (decompose._tensor_decompose, decompose._branch, lie._weyl_dimension)
    for name in cosets.COSET_NAMES:
        c = cosets.coset(name)
        for gauge in deform.GAUGE_GROUPS:
            for step in (deform.deformation_space, deform.curvature_spectrum):
                step(c, gauge)
                memoised = step(c, gauge)
                for memo in memos:
                    memo.cache_clear()
                fresh = cosets._coset.__wrapped__(name)
                assert fresh is not c and fresh.gauges == c.gauges, name
                assert step(fresh, gauge) == memoised, (name, gauge, step.__name__)


def test_curvature_spectra_structure_group_h():
    for name, expected in SPECTRA["H"].items():
        assert spectrum_dict(name, "H") == expected


def test_curvature_spectra_structure_group_su3():
    for name, expected in SPECTRA["SU3"].items():
        assert spectrum_dict(name, "SU3") == expected


def test_curvature_spectrum_invariants():
    for name in cosets.COSET_NAMES:
        c = cosets.coset(name)
        for gauge in deform.GAUGE_GROUPS:
            spectrum = deform.curvature_spectrum(c, gauge)
            assert spectrum.gauge_dimension == cosets.gauge_rep(c, gauge).dimension()
            assert sum(e * d for e, d in spectrum.entries) == 0
            assert sum(d for _, d in spectrum.entries) == 6 * spectrum.gauge_dimension
        assert sum(d for _, d in deform.curvature_spectrum(c, "SU3").entries) == 48


def test_integer_spectrum_matches_the_fraction_sum(non_builtin_descriptors):
    """The D-scaled integer sum against -4 + Cas_h(E_alpha) - Cas_h(U) with
    multiplicity n_alpha * dim U, in Fraction arithmetic on the hand-entered
    forms and root tables, over E_alpha (x) m* decomposed afresh; on the
    built-in descriptors and on the other-chirality one."""
    for c in [cosets.coset(name) for name in cosets.COSET_NAMES] + non_builtin_descriptors:
        for gauge in deform.GAUGE_GROUPS:
            expected = {}
            for e_hw, n_alpha in cosets.gauge_rep(c, gauge).entries.items():
                c_alpha = slow_oracle.casimir(c.b_h_pair, e_hw)
                for m_hw, m_mult in c.mstar.entries.items():
                    tensor = decompose.tensor_decompose(c.h_data, e_hw, m_hw)
                    for u_hw, u_mult in tensor.entries.items():
                        eig = -4 + c_alpha - slow_oracle.casimir(c.b_h_pair, u_hw)
                        dim = slow_oracle.weyl_dimension(c.h_data, u_hw)
                        expected[eig] = expected.get(eig, 0) + n_alpha * m_mult * u_mult * dim
            entries = deform.curvature_spectrum(c, gauge).entries
            assert entries == tuple(sorted(expected.items())), (c.name, gauge)
            assert all(type(e) is F and type(m) is int for e, m in entries)


def test_su2cubed_v4_block_of_the_su3_spectrum():
    # the part of the SU(3)-bundle spectrum beyond the H-bundle one comes
    # from the five-dimensional summand of the gauge algebra alone
    h = spectrum_dict("su2cubed", "H")
    su3 = spectrum_dict("su2cubed", "SU3")
    block = {eig: dim - h.get(eig, 0) for eig, dim in su3.items()}
    block = {eig: dim for eig, dim in block.items() if dim}
    assert block == {F(-12): 6, F(-4): 10, F(8): 14}
    assert sum(block.values()) == 30


def test_gauge_h_spectrum_is_submultiset_of_su3_spectrum():
    for name in cosets.COSET_NAMES:
        h = spectrum_dict(name, "H")
        su3 = spectrum_dict(name, "SU3")
        for eig, dim in h.items():
            assert su3.get(eig, 0) >= dim


def test_deformations_structure_group_h():
    for name, (halved, dim) in DEFORMATIONS["H"].items():
        space = deform.deformation_space(cosets.coset(name), "H")
        assert space.halved.entries == halved
        assert space.real_dimension == dim
        assert (space.real_dimension == 0) == (not space.halved.entries)


def test_deformations_structure_group_su3():
    for name, (halved, dim) in DEFORMATIONS["SU3"].items():
        space = deform.deformation_space(cosets.coset(name), "SU3")
        assert space.halved.entries == halved
        assert space.real_dimension == dim


def test_a_warm_call_computes_no_casimir(monkeypatch):
    """Once the descriptors are built, both computations return the records
    built with them: with the Casimir search, the integer Casimir,
    branching, the tensor product and the decomposition constructor made to
    raise, all eight coset x gauge steps still give the frozen answers, and
    a repeated call gives the same record."""
    descriptors = {name: cosets.coset(name)
                   for name in [*SPECTRA["H"], *DEFORMATIONS["H"]]}

    def refuse(*args):
        raise AssertionError("a warm deform call computed a Casimir or a decomposition")

    monkeypatch.setattr(casimir, "irreps_with_casimir", refuse)
    monkeypatch.setattr(casimir.CasimirContext, "scaled_casimir", refuse)
    monkeypatch.setattr(decompose, "branch", refuse)
    monkeypatch.setattr(decompose, "tensor_decompose", refuse)
    monkeypatch.setattr(decompose, "RepDecomposition", refuse)
    for gauge in deform.GAUGE_GROUPS:
        for name, expected in SPECTRA[gauge].items():
            got = deform.curvature_spectrum(descriptors[name], gauge)
            assert dict(got.entries) == expected, (name, gauge)
            assert deform.curvature_spectrum(descriptors[name], gauge) is got
        for name, (halved, dim) in DEFORMATIONS[gauge].items():
            space = deform.deformation_space(descriptors[name], gauge)
            assert (space.halved.entries, space.real_dimension) == (halved, dim)
            assert deform.deformation_space(descriptors[name], gauge) is space


def test_an_odd_multiplicity_is_refused_when_the_descriptor_is_built(
        monkeypatch, tmp_path, capsys):
    """The evenness check runs when a descriptor is built, so a count that
    came out odd is refused by every command that builds the descriptor,
    ``tables prop-4.2`` included, with exit code 2 and one line."""
    path = tmp_path / "fixtures.json"
    path.write_text(cosets.dump_fixtures(), encoding="utf-8")
    cosets._coset.cache_clear()
    monkeypatch.setattr(deform, "_complexified_solutions", lambda summands: {(1, 0): 3})
    try:
        with pytest.raises(EvennessViolationError,
                           match=r"\(1, 0\) in G2/SU\(3\) is odd \(3\)"):
            cosets.load_fixtures(path)
        for argv in (["tables", "prop-4.2"], ["tables", "prop-4.2", "--fixtures", str(path)]):
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "invariant failure: complexified multiplicity of (1, 0)" \
                " in G2/SU(3) is odd (3)\n"
    finally:
        monkeypatch.undo()
        cosets._coset.cache_clear()


def test_unknown_gauge_is_refused():
    c = cosets.coset("sp2")
    for step in (deform.deformation_space, deform.curvature_spectrum):
        with pytest.raises(UnknownTagError, match="gauge must be one of"):
            step(c, "SO3")


def test_stored_matched_weights_match_the_box_scan(non_builtin_descriptors):
    """Each gauge summand's stored G-irreducibles W with Cas_g(W) =
    Cas_h(E_alpha) against the full-box scan on the hand-entered forms, on
    the built-in descriptors and on the other-chirality one."""
    matched = 0
    for c in [cosets.coset(name) for name in cosets.COSET_NAMES] + non_builtin_descriptors:
        for gauge in deform.GAUGE_GROUPS:
            for s in c.gauges[gauge][1]:
                assert s.casimir == slow_oracle.casimir(c.b_h_pair, s.hw)
                expected = slow_oracle.irreps_with_casimir(c.b_g_pair, s.casimir)
                assert tuple(w for w, _ in s.matched) == tuple(expected), (
                    c.name, gauge, s.hw)
                matched += len(s.matched)
    assert matched


def _restricted_character(c, w_hw):
    """W's character pushed to H weight by weight through the restriction
    matrix in Fraction arithmetic, and peeled into H-irreducibles by
    subtraction."""
    restricted = {}
    for w, m in lie.weight_multiplicities(c.g_data, w_hw).weights.items():
        v = tuple(sum(F(a) * x for a, x in zip(row, w)) for row in c.restriction.matrix)
        assert all(x.denominator == 1 for x in v)
        v = tuple(int(x) for x in v)
        restricted[v] = restricted.get(v, 0) + m
    return slow_oracle.peel_off_by_subtraction(
        lie.WeightCharacter(c.h_data, restricted))


def test_stored_frobenius_counts_match_an_independent_count(non_builtin_descriptors):
    """Each stored (W, count) against sum_U mult_U(E_alpha (x) m*)
    mult_U(W|_H), with E_alpha (x) m* from the product of characters and
    W|_H from W's restricted character, on the built-in descriptors and on
    the other-chirality one; zero counts are stored too."""
    counts = []
    for c in [cosets.coset(name) for name in cosets.COSET_NAMES] + non_builtin_descriptors:
        for gauge in deform.GAUGE_GROUPS:
            for s in c.gauges[gauge][1]:
                tensor = {}
                for m_hw, m_mult in c.mstar.entries.items():
                    decomp, dim = slow_oracle.tensor_by_characters(c.h_data, s.hw, m_hw)
                    assert dim == lie.dimension(c.h_data, s.hw) * lie.dimension(c.h_data, m_hw)
                    for u_hw, u_mult in decomp.entries.items():
                        tensor[u_hw] = tensor.get(u_hw, 0) + m_mult * u_mult
                for w_hw, count in s.matched:
                    restricted = _restricted_character(c, w_hw)
                    expected = sum(m * restricted.mult(u) for u, m in tensor.items())
                    assert count == expected, (c.name, gauge, s.hw, w_hw)
                    counts.append(count)
    assert 0 in counts and any(counts)


def test_sp2_gauge_h_answer_is_one_copy_of_the_five_dimensional_irrep():
    space = deform.deformation_space(cosets.coset("sp2"), "H")
    assert space.halved.entries == {(1, 0): 1}
    assert lie.dimension(lie.C2, (1, 0)) == 5
    assert space.complexified.entries == {(1, 0): 2}


def test_complexified_multiplicities_are_even():
    for name in cosets.COSET_NAMES:
        for gauge in deform.GAUGE_GROUPS:
            space = deform.deformation_space(cosets.coset(name), gauge)
            for hw, mult in space.complexified.entries.items():
                assert mult % 2 == 0
                assert space.halved.mult(hw) * 2 == mult


def test_gauge_h_solutions_are_submultiset_of_su3_solutions():
    for name in cosets.COSET_NAMES:
        c = cosets.coset(name)
        h = deform.deformation_space(c, "H").complexified
        su3 = deform.deformation_space(c, "SU3").complexified
        for hw, mult in h.entries.items():
            assert su3.mult(hw) >= mult


def test_retained_irreps_satisfy_casimir_matching():
    for name in cosets.COSET_NAMES:
        c = cosets.coset(name)
        for gauge in deform.GAUGE_GROUPS:
            space = deform.deformation_space(c, gauge)
            gauge_cas = {
                casimir.casimir_eigenvalue(c.context_h, hw)
                for hw in cosets.gauge_rep(c, gauge).entries
            }
            for hw in space.complexified.entries:
                assert casimir.casimir_eigenvalue(c.context_g, hw) in gauge_cas


def test_trivial_gauge_components_contribute_nothing():
    # processed by the generic pipeline, not skipped: Sp(2) has a genuine
    # trivial summand in its gauge algebra, and its solution set is empty
    c = cosets.coset("sp2")
    trivial = [s for s in c.gauges[deform.GAUGE_H][1] if s[0] == (0, 0)]
    assert [s[:3] for s in trivial] == [((0, 0), 1, 0)]
    assert deform._complexified_solutions(trivial) == {}


def test_each_count_is_weighted_by_n_alpha():
    # On the four cosets every summand with n_alpha > 1 counts 0, so the
    # weight is checked on Sp(2)'s stored summands with n_alpha doubled.
    summands = cosets.coset("sp2").gauges[deform.GAUGE_H][1]
    once = deform._complexified_solutions(summands)
    assert once == {(1, 0): 2}
    doubled = [s._replace(n_alpha=2 * s.n_alpha) for s in summands]
    assert deform._complexified_solutions(doubled) == {(1, 0): 4}


def test_abelian_rigidity_check():
    for name in cosets.COSET_NAMES:
        assert slow_oracle.abelian_rigidity_check(cosets.coset(name)) is True


def test_real_dimension_uses_complex_dimensions_of_halved_summands():
    space = deform.deformation_space(cosets.coset("su3t2"), "SU3")
    assert space.real_dimension == 6 * lie.dimension(lie.A2, (1, 1))
