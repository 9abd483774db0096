import json

import pytest

from nkdeform import casimir, cosets, decompose, lie
from nkdeform.errors import FixtureError, UnknownTagError


def d(root_data, pairs):
    return decompose.RepDecomposition(root_data, dict(pairs))


def test_all_descriptors_load_and_validate():
    for name in cosets.COSET_NAMES:
        c = cosets.coset(name)
        assert c.mstar.dimension() == 6
        assert c.mstar_holomorphic.dimension() == 3


def test_aliases():
    assert cosets.coset("g2su3").name == "G2/SU(3)"
    assert cosets.coset("su2cubed").name == "SU(2)^3/SU(2)"
    assert cosets.coset("sp2").name == "Sp(2)/Sp(1)xU(1)"
    assert cosets.coset("su3t2").name == "SU(3)/U(1)^2"
    with pytest.raises(UnknownTagError):
        cosets.coset("s7")


def test_mstar_fixtures():
    assert cosets.coset("g2su3").mstar == d(lie.A2, {(1, 0): 1, (0, 1): 1})
    assert cosets.coset("su2cubed").mstar == d(lie.A1, {(2,): 2})
    assert cosets.coset("sp2").mstar == d(
        lie.A1_U1, {(1, 1): 1, (1, -1): 1, (0, 2): 1, (0, -2): 1}
    )
    assert cosets.coset("su3t2").mstar == d(
        lie.U1_U1,
        {(2, -1): 1, (-1, 2): 1, (-1, -1): 1, (-2, 1): 1, (1, -2): 1, (1, 1): 1},
    )


# The adjoints of g and h, entered by hand; the package derives them from
# the highest roots.
ADJOINTS = {
    "G2/SU(3)": ((lie.G2, {(0, 1): 1}), (lie.A2, {(1, 1): 1})),
    "SU(2)^3/SU(2)": (
        (lie.A1_CUBED, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}),
        (lie.A1, {(2,): 1}),
    ),
    "Sp(2)/Sp(1)xU(1)": ((lie.C2, {(0, 2): 1}), (lie.A1_U1, {(2, 0): 1, (0, 0): 1})),
    "SU(3)/U(1)^2": ((lie.A2, {(1, 1): 1}), (lie.U1_U1, {(0, 0): 2})),
}


def test_derived_adjoints_match_the_hand_entered_ones():
    for name, (g_adjoint, h_adjoint) in ADJOINTS.items():
        c = cosets.coset(name)
        assert c.g_adjoint == d(*g_adjoint)
        assert c.h_adjoint == d(*h_adjoint)


def add(total, decomp, k=1):
    """Add k times the decomposition into the dict ``total``."""
    for hw, m in decomp.entries.items():
        total[hw] = total.get(hw, 0) + k * m


def test_mstar_components_have_casimir_minus_four():
    for name in cosets.COSET_NAMES:
        c = cosets.coset(name)
        for hw in c.mstar.entries:
            assert casimir.casimir_eigenvalue(c.context_h, hw) == -4


def test_gauge_h_fixtures():
    assert cosets.gauge_rep(cosets.coset("g2su3"), "H") == d(lie.A2, {(1, 1): 1})
    assert cosets.gauge_rep(cosets.coset("su2cubed"), "H") == d(lie.A1, {(2,): 1})
    assert cosets.gauge_rep(cosets.coset("sp2"), "H") == d(
        lie.A1_U1, {(2, 0): 1, (0, 0): 1}
    )
    assert cosets.gauge_rep(cosets.coset("su3t2"), "H") == d(
        lie.U1_U1, {(0, 0): 2}
    )


def test_gauge_h_dimensions():
    expected = {
        "G2/SU(3)": 8,
        "SU(2)^3/SU(2)": 3,
        "Sp(2)/Sp(1)xU(1)": 4,
        "SU(3)/U(1)^2": 2,
    }
    for name, dim in expected.items():
        assert cosets.gauge_rep(cosets.coset(name), "H").dimension() == dim


def test_gauge_su3_decompositions():
    assert cosets.gauge_rep(cosets.coset("g2su3"), "SU3") == d(
        lie.A2, {(1, 1): 1}
    )
    assert cosets.gauge_rep(cosets.coset("su2cubed"), "SU3") == d(
        lie.A1, {(2,): 1, (4,): 1}
    )
    assert cosets.gauge_rep(cosets.coset("sp2"), "SU3") == d(
        lie.A1_U1, {(2, 0): 1, (0, 0): 1, (1, 3): 1, (1, -3): 1}
    )
    assert cosets.gauge_rep(cosets.coset("su3t2"), "SU3") == d(
        lie.U1_U1,
        {
            (0, 0): 2,
            (3, 0): 1,
            (-3, 0): 1,
            (0, 3): 1,
            (0, -3): 1,
            (3, -3): 1,
            (-3, 3): 1,
        },
    )


def test_gauge_su3_always_eight_dimensional(non_builtin_descriptors):
    # V (x) V* holds the trivial summand (the identity of V), and dim V = 3
    # leaves dimension 8 once it is removed.
    for c in [cosets.coset(name) for name in cosets.COSET_NAMES] + non_builtin_descriptors:
        v = c.mstar_holomorphic
        product = {}
        for hw1, m1 in v.entries.items():
            for hw2, m2 in v.entries.items():
                dual = c.h_data.dominant_representative(tuple(-x for x in hw2))
                add(product, decompose.tensor_decompose(c.h_data, hw1, dual), m1 * m2)
        zero = (0,) * c.h_data.num_coords
        assert product.get(zero, 0) >= 1, c.name
        add(product, cosets.gauge_rep(c, "SU3"), -1)
        assert {hw: m for hw, m in product.items() if m} == {zero: 1}, c.name
        assert cosets.gauge_rep(c, "SU3").dimension() == 8, c.name


def test_gauge_rep_is_shared_and_read_only():
    c = cosets.coset("sp2")
    one = cosets.gauge_rep(c, "SU3")
    with pytest.raises(AttributeError):
        one.entries.clear()
    with pytest.raises(TypeError):
        one.entries[(0, 0)] = 1
    assert cosets.gauge_rep(c, "SU3") is one
    assert cosets.gauge_rep(c, "SU3").dimension() == 8
    assert cosets.gauge_rep(c, "H") is c.h_adjoint


def test_gauge_rep_rejects_unknown_group():
    with pytest.raises(UnknownTagError):
        cosets.gauge_rep(cosets.coset("sp2"), "SO3")


def test_adjoint_branching_consistency():
    # branch(adjoint g) = adjoint h + m*, checked through the public API
    for name in cosets.COSET_NAMES:
        c = cosets.coset(name)
        g_adjoint, h_adjoint = (d(*x) for x in ADJOINTS[name])
        remainder = {}
        for hw, mult in g_adjoint.entries.items():
            add(remainder, decompose.branch(c.restriction, c.g_data, c.h_data, hw), mult)
        for hw, mult in h_adjoint.entries.items():
            remainder[hw] -= mult
        remainder = {hw: m for hw, m in remainder.items() if m}
        assert remainder == c.mstar.entries
        # both multisets closed under weight negation
        for hw in c.mstar.entries:
            neg = c.h_data.dominant_representative(tuple(-x for x in hw))
            assert c.mstar.mult(neg) == c.mstar.mult(hw)


# The gauge su(3) of Sp(2)/Sp(1)xU(1) for V = V(0,2) + V(1,1), the other
# chirality: V(0,0) + V(1,-1) + V(1,1) + V(2,0).
OTHER_CHIRALITY_SU3 = {(0, 0): 1, (1, -1): 1, (1, 1): 1, (2, 0): 1}


def test_opposite_chirality_pairing_is_rejected():
    # Swapping the charge pairing of the (1,0)-part changes the gauge su(3)
    # decomposition away from the fixture; the strict equality test catches it.
    c = cosets.coset("sp2")
    wrong = decompose.RepDecomposition(lie.A1_U1, {(1, 1): 1, (0, 2): 1})
    entries = {}
    for hw1, m1 in wrong.entries.items():
        for hw2, m2 in wrong.entries.items():
            dual = lie.A1_U1.dominant_representative(tuple(-x for x in hw2))
            add(entries, decompose.tensor_decompose(lie.A1_U1, hw1, dual), m1 * m2)
    entries[(0, 0)] -= 1
    wrong_su3 = {hw: m for hw, m in entries.items() if m}
    assert wrong_su3 == OTHER_CHIRALITY_SU3
    assert wrong_su3 != cosets.gauge_rep(c, "SU3").entries
    assert sum(
        m * lie.dimension(lie.A1_U1, hw) for hw, m in wrong_su3.items()
    ) == 8  # both pairings have dimension 8; only the charges differ


def test_su3_gauge_follows_the_descriptors_v(non_builtin_descriptors):
    # m* is the same for both chiralities; the SU(3) gauge is built from
    # the descriptor's own V, not from the built-in coset's.
    c = non_builtin_descriptors[-1]
    assert c.mstar_holomorphic.entries == {(0, 2): 1, (1, 1): 1}
    assert c.mstar == cosets.coset("sp2").mstar
    assert cosets.gauge_rep(c, "SU3").entries == OTHER_CHIRALITY_SU3
    assert cosets.gauge_rep(c, "SU3") is cosets.gauge_rep(c, "SU3")
    assert cosets.gauge_rep(c, "H") is c.h_adjoint


def test_an_alias_and_its_name_share_one_descriptor():
    assert cosets.coset("sp2") is cosets.coset("Sp(2)/Sp(1)xU(1)")
    # and one build serves both names
    cosets._coset.cache_clear()
    c = cosets.coset("sp2")
    assert cosets.coset("Sp(2)/Sp(1)xU(1)") is c
    assert cosets.coset("sp2") is c
    assert cosets._coset.cache_info().misses == 1


def test_fixture_json_round_trip(tmp_path):
    text = cosets.dump_fixtures()
    data = json.loads(text)
    assert data["schema"] == cosets.FIXTURE_SCHEMA
    # bit-exactness: every rational is a num/den integer pair
    for entry in data["cosets"]:
        for row in entry["restriction"]:
            for cell in row:
                assert set(cell) == {"num", "den"}
                assert isinstance(cell["num"], int)
                assert isinstance(cell["den"], int)
    path = tmp_path / "fixtures.json"
    path.write_text(text, encoding="utf-8")
    loaded = cosets.load_fixtures(path)
    assert sorted(loaded) == sorted(cosets.COSET_NAMES)
    for name, desc in loaded.items():
        assert desc is cosets.coset(name)
    # serialization is deterministic
    assert cosets.dump_fixtures() == text


def test_corrupt_fixture_rejected(tmp_path):
    data = json.loads(cosets.dump_fixtures())
    data["cosets"][0]["mstar"][0]["mult"] = 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(FixtureError):
        cosets.load_fixtures(path)
    data = json.loads(cosets.dump_fixtures())
    data["schema"] = "something-else"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(FixtureError):
        cosets.load_fixtures(path)


def _load_changed(tmp_path, key, value):
    """load_fixtures on the dump with G2/SU(3)'s ``key`` set to ``value``."""
    data = json.loads(cosets.dump_fixtures())
    assert data["cosets"][0]["name"] == "G2/SU(3)"
    data["cosets"][0][key] = value
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return cosets.load_fixtures(path)


def test_form_on_the_wrong_algebra_rejected(tmp_path):
    c = cosets.coset("g2su3")
    for key, pair, data in (("B_G", "sp2", c.g_data), ("B_H", "sp1u1-in-sp2", c.h_data)):
        assert casimir.context(pair).root_data != data
        with pytest.raises(FixtureError, match=r"^cosets\[0\]\.%s\.pair: %s, but" % (key, pair)):
            _load_changed(tmp_path, key, {"pair": pair})


def test_cosets_share_the_restriction_of_their_h_form():
    for name in cosets.COSET_NAMES:
        c = cosets.coset(name)
        assert c.restriction.matrix is casimir._PAIRS[c.b_h_pair][2]
        assert casimir._PAIRS[c.b_g_pair][2] is None


def test_form_that_is_not_the_restriction_rejected(tmp_path):
    # su3-ambient is a form on A2, the right algebra for SU(3) in G2, but
    # with the ambient normalization, not the one B_G = g2 restricts to.
    c = cosets.coset("g2su3")
    assert casimir.context("su3-ambient").root_data == c.h_data
    assert casimir.context("su3-ambient").dual != c.context_h.dual
    with pytest.raises(FixtureError, match=r"^cosets\[0\]\.B_H\.pair: su3-ambient, but"
                       r" the built-in G2/SU\(3\) has su3-in-g2$"):
        _load_changed(tmp_path, "B_H", {"pair": "su3-ambient"})


def _weight_sum(c, v):
    total = [0] * c.h_data.num_coords
    for hw, m in v.entries.items():
        for w, k in lie.weight_multiplicities(c.h_data, hw).weights.items():
            total = [t + m * k * x for t, x in zip(total, w)]
    return tuple(total)


def test_mstar_is_v_plus_its_conjugate_and_v_has_weight_sum_zero(
        non_builtin_descriptors):
    # m* = V + conj(V) splits m* into its (1,0)- and (0,1)-parts, and a zero
    # weight sum makes Lambda^3 V trivial: the invariant (3,0)-form of an
    # SU(3)-structure.  The other chirality of Sp(2)/Sp(1)xU(1) has the same
    # m* but weight sum (0, 4).
    for name in cosets.COSET_NAMES:
        c = cosets.coset(name)
        both = dict(c.mstar_holomorphic.entries)
        for hw, m in c.mstar_holomorphic.entries.items():
            conj = c.h_data.dominant_representative(tuple(-x for x in hw))
            both[conj] = both.get(conj, 0) + m
        assert both == c.mstar.entries, name
        assert _weight_sum(c, c.mstar_holomorphic) == (0,) * c.h_data.num_coords, name
    (other,) = non_builtin_descriptors
    assert other.mstar == cosets.coset("sp2").mstar
    assert _weight_sum(other, other.mstar_holomorphic) == (0, 4)
