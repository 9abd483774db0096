import itertools
from fractions import Fraction as F

import pytest

from nkdeform import casimir, ratlinalg
from nkdeform.errors import NonDominantWeightError, UnknownTagError

import slow_oracle


def test_fundamental_weight_gram_matrices():
    gram = slow_oracle.package_gram
    assert gram("su3-in-g2") == (
        (F(-1), F(-1, 2)),
        (F(-1, 2), F(-1)),
    )
    assert gram("g2") == (
        (F(-1), F(-3, 2)),
        (F(-3, 2), F(-3)),
    )
    assert gram("sp2") == ((F(-2), F(-1)), (F(-1), F(-1)))
    assert gram("su3-ambient") == (
        (F(-4, 3), F(-2, 3)),
        (F(-2, 3), F(-4, 3)),
    )


@pytest.mark.parametrize("tag", casimir.PAIR_TAGS)
def test_derived_forms_match_hand_entered_tables(tag):
    factors, gram, _, _ = slow_oracle.PAIRS[tag]
    ctx = casimir.context(tag)
    assert ctx.root_data.factors == factors
    assert slow_oracle.package_gram(tag) == gram
    assert ctx.dual == tuple(map(tuple, ratlinalg.inverse(gram)))
    assert all(type(x) is F for row in ctx.dual for x in row)


def test_ambient_pairs_have_no_restriction():
    ambient = {"g2", "su2cubed", "sp2", "su3-ambient"}
    for tag in casimir.PAIR_TAGS:
        assert (casimir.restriction(tag) is None) == (tag in ambient), tag
    with pytest.raises(UnknownTagError):
        casimir.restriction("so5")


def test_unknown_tag():
    with pytest.raises(UnknownTagError):
        casimir.context("so5")


def test_negative_definiteness_minors():
    for tag in casimir.PAIR_TAGS:
        gram = [list(r) for r in slow_oracle.package_gram(tag)]
        for k, minor in enumerate(slow_oracle.leading_principal_minors(gram)):
            assert minor != 0
            assert (minor > 0) == (k % 2 == 1)


def test_trace_recomputation_matches_stored_forms():
    # Raises ConsistencyError internally on any disagreement.
    for tag in casimir.PAIR_TAGS:
        slow_oracle.verify_form_by_trace(tag)


def test_trace_recomputation_generator_basis_values():
    assert slow_oracle.verify_form_by_trace("su3-in-g2") == (
        (F(-4, 3), F(2, 3)),
        (F(2, 3), F(-4, 3)),
    )
    assert slow_oracle.verify_form_by_trace("g2") == (
        (F(-4), F(2)),
        (F(2), F(-4, 3)),
    )
    assert slow_oracle.verify_form_by_trace("sp2") == ((F(-1), F(1)), (F(1), F(-2)))
    assert slow_oracle.verify_form_by_trace("su3-ambient") == (
        (F(-1), F(1, 2)),
        (F(1, 2), F(-1)),
    )
    # Compact real bases: B is positive there.
    assert slow_oracle.verify_form_by_trace("su2-diagonal-in-su2cubed") == (
        (F(1, 2),),
    )
    assert slow_oracle.verify_form_by_trace("sp1u1-in-sp2") == (
        (F(1), F(0)),
        (F(0), F(1)),
    )
    assert slow_oracle.verify_form_by_trace("u1u1-in-su3") == (
        (F(1), F(-1, 2)),
        (F(-1, 2), F(1)),
    )
    g = slow_oracle.verify_form_by_trace("su2cubed")
    assert g == tuple(
        tuple(F(1, 6) if i == j else F(0) for j in range(3)) for i in range(3)
    )


CASIMIR_EXAMPLES = [
    ("g2", (1, 0), F(-6)),
    ("g2", (0, 1), F(-12)),
    ("g2", (0, 0), F(0)),
    ("sp2", (1, 1), F(-15)),
    ("sp2", (0, 1), F(-5)),
    ("su2cubed", (1, 1, 1), F(-27, 2)),
    ("u1u1-in-su3", (3, 0), F(-12)),
    ("su3-in-g2", (1, 1), F(-9)),
    ("su3-in-g2", (1, 0), F(-4)),
    ("sp1u1-in-sp2", (2, 0), F(-8)),
    ("sp1u1-in-sp2", (1, 3), F(-12)),
    ("sp1u1-in-sp2", (1, -3), F(-12)),
    ("su2-diagonal-in-su2cubed", (2,), F(-4)),
    ("su2-diagonal-in-su2cubed", (4,), F(-12)),
]


@pytest.mark.parametrize("tag,hw,expected", CASIMIR_EXAMPLES)
def test_casimir_eigenvalue_examples(tag, hw, expected):
    assert casimir.casimir_eigenvalue(casimir.context(tag), hw) == expected


def test_casimir_closed_forms_on_sweep():
    closed = {
        "g2": lambda m: -(
            m[0] ** 2 + 3 * m[1] ** 2 + 3 * m[0] * m[1] + 5 * m[0] + 9 * m[1]
        ),
        "su3-in-g2": lambda m: -(
            m[0] ** 2 + m[1] ** 2 + m[0] * m[1] + 3 * m[0] + 3 * m[1]
        ),
        "su3-ambient": lambda m: F(-4, 3)
        * (m[0] ** 2 + m[1] ** 2 + m[0] * m[1] + 3 * m[0] + 3 * m[1]),
        "sp2": lambda m: -(
            2 * m[0] ** 2 + 2 * m[0] * m[1] + m[1] ** 2 + 6 * m[0] + 4 * m[1]
        ),
        "su2cubed": lambda m: F(-3, 2) * sum(a * (a + 2) for a in m),
        "sp1u1-in-sp2": lambda m: -m[0] * (m[0] + 2) - m[1] ** 2,
        "u1u1-in-su3": lambda m: F(-4, 3)
        * (m[0] ** 2 + m[0] * m[1] + m[1] ** 2),
    }
    for tag, formula in closed.items():
        ctx = casimir.context(tag)
        n = ctx.root_data.num_coords
        simple = set(ctx.root_data.simple_coords)
        ranges = [
            range(0, 6) if i in simple else range(-5, 6) for i in range(n)
        ]
        for hw in itertools.product(*ranges):
            assert casimir.casimir_eigenvalue(ctx, hw) == formula(hw), (tag, hw)


def test_trivial_rep_has_zero_casimir_and_others_negative():
    for tag in casimir.PAIR_TAGS:
        ctx = casimir.context(tag)
        zero = (0,) * ctx.root_data.num_coords
        assert casimir.casimir_eigenvalue(ctx, zero) == 0
        for hw in slow_oracle.dominant_weights_in_box(ctx.root_data, 3):
            if hw != zero:
                assert casimir.casimir_eigenvalue(ctx, hw) < 0, (tag, hw)


def test_monotonicity_on_grid():
    # -Cas grows in every coordinate on the nonnegative grid, and in |charge|
    # for contexts whose charge block is diagonal.
    for tag in casimir.PAIR_TAGS:
        ctx = casimir.context(tag)
        n = ctx.root_data.num_coords
        for hw in itertools.product(range(4), repeat=n):
            base = -casimir.casimir_eigenvalue(ctx, hw)
            for i in range(n):
                bumped = list(hw)
                bumped[i] += 1
                assert -casimir.casimir_eigenvalue(ctx, tuple(bumped)) > base
    ctx = casimir.context("sp1u1-in-sp2")
    for m in range(4):
        for c in range(0, 5):
            low = -casimir.casimir_eigenvalue(ctx, (m, c))
            assert -casimir.casimir_eigenvalue(ctx, (m, c + 1)) > low
            assert -casimir.casimir_eigenvalue(ctx, (m, -c - 1)) > low


def test_irreps_with_casimir_examples():
    assert casimir.irreps_with_casimir(casimir.context("sp2"), -8) == [(1, 0)]
    assert casimir.irreps_with_casimir(casimir.context("su2cubed"), -4) == []
    assert casimir.irreps_with_casimir(casimir.context("su3-ambient"), -12) == [
        (1, 1)
    ]
    assert casimir.irreps_with_casimir(casimir.context("g2"), -9) == []
    assert casimir.irreps_with_casimir(casimir.context("g2"), 5) == []


def test_irreps_with_casimir_completeness_against_box():
    # The solved last coordinate against the scan of the whole definiteness
    # box, on every pair (a U(1) last coordinate on sp1u1-in-sp2 and
    # u1u1-in-su3, rank 1 on su2-diagonal-in-su2cubed) and every k/D from 0
    # down to -64, attained or not.
    for tag in casimir.PAIR_TAGS:
        ctx = casimir.context(tag)
        values = [F(k, ctx.denominator) for k in range(0, -64 * ctx.denominator - 1, -1)]
        attained = 0
        for value in values:
            fast = casimir.irreps_with_casimir(ctx, value)
            assert fast == slow_oracle.irreps_with_casimir(tag, value), (tag, value)
            assert all(slow_oracle.casimir(tag, w) == value for w in fast), (tag, value)
            attained += bool(fast)
        assert 0 < attained < len(values), tag
        assert casimir.irreps_with_casimir(ctx, 0) == [(0,) * ctx.root_data.num_coords]
        # Brute force inside a fixed box, apart from the definiteness bound.
        box = slow_oracle.dominant_weights_in_box(ctx.root_data, 6)
        brute = {}
        for w in box:
            brute.setdefault(casimir.casimir_eigenvalue(ctx, w), []).append(w)
        box = set(box)
        for value in range(0, -31, -1):
            fast = casimir.irreps_with_casimir(ctx, value)
            assert [w for w in fast if w in box] == brute.get(value, []), (tag, value)


@pytest.mark.parametrize("value", ["-8", True, False, -8.0, 0.1, None])
def test_irreps_with_casimir_refuses_a_value_that_is_not_exact(value):
    # bool is an int subclass, and a str or float would be converted.
    with pytest.raises(TypeError) as info:
        casimir.irreps_with_casimir(casimir.context("sp2"), value)
    assert str(info.value) == "Casimir value %r is not an int or a Fraction" % (value,)


def test_smallest_g2_eigenvalues():
    ctx = casimir.context("g2")
    values = sorted(
        {
            casimir.casimir_eigenvalue(ctx, hw)
            for hw in slow_oracle.dominant_weights_in_box(ctx.root_data, 4)
        },
        reverse=True,
    )
    assert values[:3] == [F(0), F(-6), F(-12)]


def test_non_dominant_rejected():
    with pytest.raises(NonDominantWeightError):
        casimir.casimir_eigenvalue(casimir.context("g2"), (0, -1))


@pytest.mark.parametrize("tag", casimir.PAIR_TAGS)
def test_integer_casimir_matches_fraction_oracle(tag):
    ctx = casimir.context(tag)
    for hw in slow_oracle.dominant_weights_in_box(ctx.root_data, 3):
        value = casimir.casimir_eigenvalue(ctx, hw)
        assert type(value) is F
        assert value == slow_oracle.casimir(tag, hw), (tag, hw)
        found = casimir.irreps_with_casimir(ctx, value)
        assert hw in found
        assert all(slow_oracle.casimir(tag, w) == value for w in found)
        assert casimir.irreps_with_casimir(ctx, value - F(1, 97)) == []
