import itertools
import random
from fractions import Fraction

import pytest

from nkdeform import casimir, cli, cosets, decompose, deform, lie
from nkdeform.errors import (
    ConsistencyError,
    MalformedEmbeddingError,
    NonDominantWeightError,
    NotACharacterError,
)

import slow_oracle


SP2_TO_SP1U1 = decompose.RestrictionMap(((1, 1), (1, 0)))
G2_TO_SU3 = decompose.RestrictionMap(((1, 1), (0, 1)))
SU3_TO_U1U1 = decompose.RestrictionMap(((1, 0), (0, 1)))
SU2CUBED_TO_SU2 = decompose.RestrictionMap(((1, 1, 1),))


def d(root_data, pairs):
    return decompose.RepDecomposition(root_data, dict(pairs))


def test_tensor_su3_example():
    got = decompose.tensor_decompose(lie.A2, (1, 0), (1, 1))
    assert got == d(lie.A2, {(1, 0): 1, (0, 2): 1, (2, 1): 1})


def test_tensor_spin1_spin1():
    got = decompose.tensor_decompose(lie.A1, (2,), (2,))
    assert got == d(lie.A1, {(0,): 1, (2,): 1, (4,): 1})


def test_tensor_with_u1_charges():
    got = decompose.tensor_decompose(lie.A1_U1, (2, 0), (1, 1))
    assert got == d(lie.A1_U1, {(1, 1): 1, (3, 1): 1})


def test_a1_clebsch_gordan_sweep():
    # V_m (x) V_n = V_|m-n| + V_|m-n|+2 + ... + V_m+n
    for m, n in itertools.product(range(6), repeat=2):
        got = decompose.tensor_decompose(lie.A1, (m,), (n,))
        expected = {(k,): 1 for k in range(abs(m - n), m + n + 1, 2)}
        assert got.entries == expected


def test_tensor_symmetry_and_dimension_conservation():
    rng = random.Random(5)
    cases = [(lie.A2, 2), (lie.C2, 2), (lie.G2, 1), (lie.A1_U1, 2)]
    for rd, bound in cases:
        for _ in range(6):
            simple = set(rd.simple_coords)
            a = tuple(
                rng.randint(0, bound) if i in simple else rng.randint(-2, 2)
                for i in range(rd.num_coords)
            )
            b = tuple(
                rng.randint(0, bound) if i in simple else rng.randint(-2, 2)
                for i in range(rd.num_coords)
            )
            t1 = decompose.tensor_decompose(rd, a, b)
            t2 = decompose.tensor_decompose(rd, b, a)
            assert t1 == t2
            assert t1.dimension() == lie.dimension(rd, a) * lie.dimension(rd, b)


def test_branch_sp2_examples():
    got = decompose.branch(SP2_TO_SP1U1, lie.C2, lie.A1_U1, (1, 0))
    assert got == d(lie.A1_U1, {(1, 1): 1, (1, -1): 1, (0, 0): 1})
    got = decompose.branch(SP2_TO_SP1U1, lie.C2, lie.A1_U1, (0, 2))
    assert got == d(
        lie.A1_U1,
        {(2, 0): 1, (0, 0): 1, (1, 1): 1, (1, -1): 1, (0, -2): 1, (0, 2): 1},
    )


def test_branch_g2_adjoint():
    got = decompose.branch(G2_TO_SU3, lie.G2, lie.A2, (0, 1))
    assert got == d(lie.A2, {(1, 1): 1, (1, 0): 1, (0, 1): 1})


def test_branch_su3_adjoint_to_torus():
    got = decompose.branch(SU3_TO_U1U1, lie.A2, lie.U1_U1, (1, 1))
    assert got == d(
        lie.U1_U1,
        {
            (0, 0): 2,
            (2, -1): 1,
            (-1, 2): 1,
            (-1, -1): 1,
            (-2, 1): 1,
            (1, -2): 1,
            (1, 1): 1,
        },
    )


def test_branch_of_trivial():
    for rmap, g, h in [
        (SP2_TO_SP1U1, lie.C2, lie.A1_U1),
        (G2_TO_SU3, lie.G2, lie.A2),
        (SU2CUBED_TO_SU2, lie.A1_CUBED, lie.A1),
    ]:
        zero_g = (0,) * g.num_coords
        zero_h = (0,) * h.num_coords
        assert decompose.branch(rmap, g, h, zero_g) == d(h, {zero_h: 1})


def test_branch_conserves_dimension():
    rng = random.Random(17)
    for _ in range(10):
        hw = (rng.randint(0, 2), rng.randint(0, 2))
        got = decompose.branch(SP2_TO_SP1U1, lie.C2, lie.A1_U1, hw)
        assert got.dimension() == lie.dimension(lie.C2, hw)
        hw3 = tuple(rng.randint(0, 3) for _ in range(3))
        got = decompose.branch(SU2CUBED_TO_SU2, lie.A1_CUBED, lie.A1, hw3)
        assert got.dimension() == lie.dimension(lie.A1_CUBED, hw3)


def test_branch_rejects_non_integral_embedding():
    half = decompose.RestrictionMap(((Fraction(1, 2), 0), (0, 1)))
    with pytest.raises(MalformedEmbeddingError):
        decompose.branch(half, lie.C2, lie.A1_U1, (1, 0))


@pytest.mark.parametrize(
    "matrix", [((1, 1, 1, 7),), ((1, 1),), ((1, 1, 1), (1, 1, 1)), ()]
)
def test_branch_rejects_restriction_of_the_wrong_shape(matrix):
    with pytest.raises(ValueError):
        decompose.branch(
            decompose.RestrictionMap(matrix), lie.A1_CUBED, lie.A1, (1, 1, 1)
        )


def test_peel_off_simple_sum():
    char = lie.WeightCharacter(lie.A1, {(-2,): 1, (0,): 2, (2,): 1})
    assert decompose.peel_off(char) == d(lie.A1, {(2,): 1, (0,): 1})


def test_peel_off_tensor_character():
    # (2 V_2) (x) V_2 as a raw product character
    v2 = lie.weight_multiplicities(lie.A1, (2,))
    prod = {}
    for w1, m1 in v2.weights.items():
        for w2, m2 in v2.weights.items():
            w = (w1[0] + w2[0],)
            prod[w] = prod.get(w, 0) + 2 * m1 * m2
    got = decompose.peel_off(lie.WeightCharacter(lie.A1, prod))
    assert got == d(lie.A1, {(0,): 2, (2,): 2, (4,): 2})


def test_peel_off_round_trips_single_irreps():
    rng = random.Random(23)
    for rd in (lie.A1, lie.A2, lie.C2, lie.G2, lie.A1_U1, lie.A1_CUBED):
        for _ in range(8):
            simple = set(rd.simple_coords)
            hw = tuple(
                rng.randint(0, 3) if i in simple else rng.randint(-3, 3)
                for i in range(rd.num_coords)
            )
            char = lie.weight_multiplicities(rd, hw)
            assert decompose.peel_off(char) == d(rd, {hw: 1})


def test_peel_off_round_trips_decomposition_character():
    cases = [
        decompose.tensor_decompose(lie.G2, (1, 0), (1, 0)),
        decompose.tensor_decompose(lie.C2, (1, 1), (0, 1)),
        decompose.tensor_decompose(lie.A1_U1, (2, 1), (2, -1)),
        decompose.tensor_decompose(lie.A1_CUBED, (1, 1, 0), (0, 1, 1)),
    ]
    for dec in cases:
        char = {}
        for hw, mult in dec.entries.items():
            for w, m in lie.weight_multiplicities(dec.root_data, hw).weights.items():
                char[w] = char.get(w, 0) + mult * m
        assert decompose.peel_off(lie.WeightCharacter(dec.root_data, char)) == dec


def test_peel_off_rejects_non_characters():
    with pytest.raises(NotACharacterError):
        decompose.peel_off(lie.WeightCharacter(lie.A1, {(2,): 1}))
    with pytest.raises(NotACharacterError):
        decompose.peel_off(lie.WeightCharacter(lie.A1, {(1,): 1, (-1,): -1}))


RESTRICTIONS = [
    (SP2_TO_SP1U1, lie.C2, lie.A1_U1),
    (G2_TO_SU3, lie.G2, lie.A2),
    (SU3_TO_U1U1, lie.A2, lie.U1_U1),
    (SU2CUBED_TO_SU2, lie.A1_CUBED, lie.A1),
]


def _restricted(rmap, g_data, h_data, hw):
    char = lie.weight_multiplicities(g_data, hw)
    return decompose.restrict_character(rmap, char, h_data)


def _peeled_both_ways(char):
    got = decompose.peel_off(char)
    assert got == slow_oracle.peel_off_by_subtraction(char)
    return got


def test_peel_off_matches_subtraction_on_every_branched_restriction():
    # the adjoints and every Casimir-matched W each descriptor branches
    for name in cosets.COSET_NAMES:
        c = cosets.coset(name)
        ws = set(c.g_adjoint.entries)
        for gauge in deform.GAUGE_GROUPS:
            ws.update(w for s in c.gauges[gauge][1] for w, _ in s.matched)
        for w in sorted(ws):
            char = _restricted(c.restriction, c.g_data, c.h_data, w)
            assert _peeled_both_ways(char) == decompose.branch(
                c.restriction, c.g_data, c.h_data, w)


@pytest.mark.parametrize(
    "rmap, g_data, h_data", RESTRICTIONS,
    ids=["sp2", "g2su3", "su3t2", "su2cubed"])
def test_peel_off_matches_subtraction_on_a_box_of_restrictions(
        rmap, g_data, h_data):
    bound = 2 if g_data.num_coords <= 2 else 1
    for hw in slow_oracle.dominant_weights_in_box(g_data, bound):
        got = _peeled_both_ways(_restricted(rmap, g_data, h_data, hw))
        assert got.dimension() == lie.dimension(g_data, hw)


@pytest.mark.parametrize(
    "rd", [lie.A1, lie.A2, lie.C2, lie.G2, lie.A1_U1, lie.U1_U1],
    ids=lambda rd: "x".join(rd.factors))
def test_peel_off_matches_subtraction_on_random_sums_of_irreducibles(rd):
    rng = random.Random(31)
    simple = set(rd.simple_coords)
    for _ in range(12):
        entries = {}
        for _ in range(rng.randint(1, 4)):
            hw = tuple(
                rng.randint(0, 3) if i in simple else rng.randint(-3, 3)
                for i in range(rd.num_coords)
            )
            entries[hw] = entries.get(hw, 0) + rng.randint(1, 3)
        char = {}
        for hw, mult in entries.items():
            for w, m in lie.weight_multiplicities(rd, hw).weights.items():
                char[w] = char.get(w, 0) + mult * m
        assert _peeled_both_ways(lie.WeightCharacter(rd, char)) == d(rd, entries)


@pytest.mark.parametrize(
    "weights, error, message",
    [
        ({(2,): 1, (0,): 1, (-2,): -1}, NotACharacterError, "negative multiplicity"),
        ({(2,): 1}, NotACharacterError, None),
        # the orbit sum of (2) is V(2) - V(0)
        ({(2,): 1, (-2,): 1}, NotACharacterError, None),
        # Weyl-invariance, not dimension: its signed sum is V(2), of dimension 3
        ({(2,): 1, (-1,): 2}, NotACharacterError, None),
        ({(1, 0): 1}, ValueError, "does not match algebra"),
    ],
    ids=["negative-multiplicity", "lone-weight", "orbit-sum",
         "not-weyl-invariant", "wrong-shape"],
)
@pytest.mark.parametrize(
    "route", [decompose.peel_off, slow_oracle.peel_off_by_subtraction],
    ids=["signed_sum", "subtraction"])
def test_both_peel_offs_refuse_what_is_not_a_character(
        route, weights, error, message):
    with pytest.raises(error, match=message):
        route(lie.WeightCharacter(lie.A1, weights))


def test_tensor_rejects_non_dominant():
    with pytest.raises(NonDominantWeightError):
        decompose.tensor_decompose(lie.A2, (1, -1), (1, 0))


def test_sp1u1_tensor_lines():
    # gauge-algebra summands against the cotangent representation of CP^3
    mstar = [(1, 1), (1, -1), (0, 2), (0, -2)]

    def tensor_with_mstar(hw):
        total = {}
        for m in mstar:
            for u, k in decompose.tensor_decompose(lie.A1_U1, hw, m).entries.items():
                total[u] = total.get(u, 0) + k
        return d(lie.A1_U1, total)

    assert tensor_with_mstar((2, 0)) == d(
        lie.A1_U1,
        {(1, -1): 1, (3, -1): 1, (1, 1): 1, (3, 1): 1, (2, -2): 1, (2, 2): 1},
    )
    assert tensor_with_mstar((1, 3)) == d(
        lie.A1_U1,
        {(0, 4): 1, (2, 4): 1, (0, 2): 1, (2, 2): 1, (1, 5): 1, (1, 1): 1},
    )
    assert tensor_with_mstar((1, -3)) == d(
        lie.A1_U1,
        {(0, -2): 1, (2, -2): 1, (0, -4): 1, (2, -4): 1, (1, -1): 1, (1, -5): 1},
    )


def test_su3_torus_tensor_lines():
    # the six charge components of the gauge algebra against the cotangent
    # representation of the full flag coset
    mstar = [(2, -1), (-1, 2), (-1, -1), (-2, 1), (1, -2), (1, 1)]
    lines = {
        (3, 0): [(5, -1), (2, 2), (2, -1), (1, 1), (4, -2), (4, 1)],
        (-3, 0): [(-1, -1), (-4, 2), (-4, -1), (-5, 1), (-2, -2), (-2, 1)],
        (0, 3): [(2, 2), (-1, 5), (-1, 2), (-2, 4), (1, 1), (1, 4)],
        (0, -3): [(2, -4), (-1, -1), (-1, -4), (-2, -2), (1, -5), (1, -2)],
        (3, -3): [(5, -4), (2, -1), (2, -4), (1, -2), (4, -5), (4, -2)],
        (-3, 3): [(-1, 2), (-4, 5), (-4, 2), (-5, 4), (-2, 1), (-2, 4)],
    }
    for charge, expected in lines.items():
        total = {}
        for m in mstar:
            for u, k in decompose.tensor_decompose(lie.U1_U1, charge, m).entries.items():
                total[u] = total.get(u, 0) + k
        assert d(lie.U1_U1, total) == d(lie.U1_U1, {hw: 1 for hw in expected}), charge


def _tensor_grid(rd):
    # coordinates 0..2 and charges -2..2 on algebras of at most two
    # coordinates, 0..1 and -1..1 otherwise
    b = 2 if rd.num_coords <= 2 else 1
    simple = set(rd.simple_coords)
    return list(
        itertools.product(
            *(
                range(0, b + 1) if i in simple else range(-b, b + 1)
                for i in range(rd.num_coords)
            )
        )
    )


@pytest.mark.parametrize("tag", sorted(cli.TENSOR_ALGEBRAS))
def test_brauer_klimyk_matches_character_product(tag):
    rd = getattr(lie, cli.TENSOR_ALGEBRAS[tag])
    grid = _tensor_grid(rd)
    for a, b in itertools.product(grid, grid):
        expected, dim = slow_oracle.tensor_by_characters(rd, a, b)
        got = decompose.tensor_decompose(rd, a, b)
        assert got == expected, (tag, a, b)
        assert got.dimension() == dim


def test_g2_large_tensor_product():
    # 226 summands; the character-product route needs about a minute here
    got = decompose.tensor_decompose(lie.G2, (5, 5), (5, 5))
    assert len(got.entries) == 226
    assert got.dimension() == 46656 ** 2
    assert got.mult((10, 10)) == 1 and got.mult((0, 0)) == 1


@pytest.mark.parametrize(
    "weights,message",
    [
        # nu = -8: (2) + (-8) + delta reflects to (5) with sign -1, so V(4)
        # gets multiplicity -1
        ({(-8,): 1}, "negative"),
        ({(-2,): 1}, "dimension"),
    ],
)
def test_brauer_klimyk_checks_fire_on_a_false_character(
        monkeypatch, empty_tensor_memo, weights, message):
    def false_character(rd, hw):
        return lie.WeightCharacter(rd, dict(weights))

    monkeypatch.setattr(lie, "weight_multiplicities", false_character)
    with pytest.raises(ConsistencyError, match=message):
        decompose.tensor_decompose(lie.A1, (2,), (2,))
    # A product that raised is not memoised: the true one comes back.
    assert decompose._tensor_decompose.cache_info().currsize == 0
    monkeypatch.undo()
    assert decompose.tensor_decompose(lie.A1, (2,), (2,)) == d(
        lie.A1, {(0,): 1, (2,): 1, (4,): 1})


@pytest.fixture
def empty_tensor_memo():
    """An empty tensor-product memo, so that the product is built in the
    test, and again after it, so that no product built under a patch
    outlives the test."""
    decompose._tensor_decompose.cache_clear()
    yield
    decompose._tensor_decompose.cache_clear()


def test_equal_calls_share_one_read_only_result():
    one = decompose.tensor_decompose(lie.G2, (1, 0), (0, 1))
    assert decompose.tensor_decompose(lie.G2, (1, 0), (0, 1)) is one
    part = decompose.branch(G2_TO_SU3, lie.G2, lie.A2, (1, 1))
    assert decompose.branch(G2_TO_SU3, lie.G2, lie.A2, (1, 1)) is part
    with pytest.raises(TypeError):
        part.entries[(0, 0)] = 1
    lie.dimension(lie.G2, (1, 1))
    hits = lie._weyl_dimension.cache_info().hits
    assert lie.dimension(lie.G2, (1, 1)) == 64
    assert lie._weyl_dimension.cache_info().hits == hits + 1


def _clear_memos():
    decompose._tensor_decompose.cache_clear()
    decompose._branch.cache_clear()
    lie._weyl_dimension.cache_clear()


# (call on one weight, a valid weight whose first coordinate is 1, the
# answer for it)
WEIGHT_CALLS = {
    "tensor_decompose": (
        lambda w: decompose.tensor_decompose(lie.A1, w, (1,)),
        (1,), d(lie.A1, {(2,): 1, (0,): 1})),
    "branch": (
        lambda w: decompose.branch(SU2CUBED_TO_SU2, lie.A1_CUBED, lie.A1, w),
        (1, 0, 0), d(lie.A1, {(1,): 1})),
    "dimension": (lambda w: lie.dimension(lie.A2, w), (1, 0), 3),
    "casimir_eigenvalue": (
        lambda w: casimir.casimir_eigenvalue(casimir.context("g2"), w),
        (1, 0), Fraction(-6)),
}


@pytest.mark.parametrize("name", sorted(WEIGHT_CALLS))
def test_weights_that_are_not_int_tuples_are_refused(name):
    call, good, answer = WEIGHT_CALLS[name]
    _clear_memos()
    # Each bad weight hashes equal to ``good``: were it let through, it
    # would fill the memo entry of ``good``.
    for bad in (list(good), (True,) + good[1:], (1.0,) + good[1:]):
        with pytest.raises(ValueError, match="does not match algebra"):
            call(bad)
    assert call(good) == answer
