import itertools
import math
import random
from fractions import Fraction

import pytest

from nkdeform import lie, ratlinalg
from nkdeform.errors import ConsistencyError, NonDominantWeightError

import slow_oracle
import weyl_oracle


ALGEBRAS = {
    "A1": lie.A1,
    "A2": lie.A2,
    "C2": lie.C2,
    "G2": lie.G2,
}


def test_a1_adjoint_character():
    char = lie.weight_multiplicities(lie.A1, (2,))
    assert dict(char.weights) == {(-2,): 1, (0,): 1, (2,): 1}


def test_a2_adjoint_character():
    char = lie.weight_multiplicities(lie.A2, (1, 1))
    assert sum(char.weights.values()) == 8
    assert char.weights[(0, 0)] == 2
    assert len(char.weights) == 7


def test_g2_adjoint_against_oracle():
    char = lie.weight_multiplicities(lie.G2, (0, 1))
    assert sum(char.weights.values()) == 14
    assert char.weights[(0, 0)] == 2
    assert dict(char.weights) == weyl_oracle.character("G2", (0, 1))


@pytest.mark.parametrize(
    "kind,hws",
    [
        ("A1", [(m,) for m in range(5)]),
        ("A2", list(itertools.product(range(3), repeat=2))),
        ("C2", list(itertools.product(range(3), repeat=2))),
        ("G2", [(0, 1), (1, 0), (1, 1), (2, 0), (0, 2)]),
    ],
)
def test_characters_match_kostant_oracle(kind, hws):
    rd = ALGEBRAS[kind]
    for hw in hws:
        computed = dict(lie.weight_multiplicities(rd, hw).weights)
        assert computed == weyl_oracle.character(kind, hw), (kind, hw)


def test_dimension_examples():
    assert lie.dimension(lie.C2, (1, 0)) == 5
    assert lie.dimension(lie.C2, (0, 1)) == 4
    assert lie.dimension(lie.C2, (0, 2)) == 10
    assert lie.dimension(lie.A1_CUBED, (1, 0, 0)) == 2
    assert lie.dimension(lie.G2, (0, 1)) == 14
    assert lie.dimension(lie.G2, (1, 0)) == 7
    assert lie.dimension(lie.A2, (1, 1)) == 8


def test_dimension_equals_weyl_formula_on_random_weights():
    rng = random.Random(7)
    for rd in ALGEBRAS.values():
        for _ in range(50):
            hw = tuple(rng.randint(0, 4) for _ in range(rd.num_coords))
            count = sum(lie.weight_multiplicities(rd, hw).weights.values())
            assert count == lie.dimension(rd, hw)


def test_integer_weyl_dimension_matches_fraction_formula():
    for rd in list(ALGEBRAS.values()) + [lie.A1_CUBED, lie.A1_U1, lie.U1_U1]:
        for hw in slow_oracle.dominant_weights_in_box(rd, 5 if rd.num_coords < 3 else 3):
            assert lie.dimension(rd, hw) == slow_oracle.weyl_dimension(rd, hw)


def test_character_checked_against_weyl_formula(monkeypatch):
    monkeypatch.setattr(lie.SimpleType, "weyl_dimension", lambda self, hw: 7)
    with pytest.raises(ConsistencyError):
        lie._simple_character.__wrapped__("A2", (1, 1))


def _g2_tables(**changes):
    fields = dict(name="G2", cartan=lie.SIMPLE_TYPES["G2"].cartan)
    fields.update(changes)
    return fields


@pytest.mark.parametrize(
    "changes",
    [
        {"cartan": ((3, -1), (-3, 2))},  # diagonal entry not 2
        {"cartan": ((2, 1), (-3, 2))},  # positive off-diagonal entry
        {"cartan": ((2, -2), (-3, 2))},  # infinite type: determinant -2
        {"cartan": ((2, 0), (-1, 2))},  # not symmetrizable
        # affine A2: every proper leading minor is positive, the determinant 0
        {"cartan": ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))},
    ],
)
def test_corrupted_root_tables_raise(changes):
    lie.SimpleType(**_g2_tables())
    with pytest.raises(ConsistencyError):
        lie.SimpleType(**_g2_tables(**changes))


def test_mismatched_coroots_raise_instead_of_closing_forever(monkeypatch):
    # C2 with its symmetrizer reversed, set past the constructor's check:
    # the coroots no longer match the roots, the Weyl formula still gives an
    # integer for V(1, 1), and the alpha-string closure would never end.
    st = lie.SimpleType("C2", lie.SIMPLE_TYPES["C2"].cartan)
    st.__dict__["symmetrizer"] = tuple(reversed(lie.SIMPLE_TYPES["C2"].symmetrizer))
    monkeypatch.setitem(lie.SIMPLE_TYPES, "C2", st)
    lie._simple_character.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match="closure passed dimension 16"):
            lie._simple_character("C2", (1, 1))
    finally:
        monkeypatch.undo()
        lie._simple_character.cache_clear()


def test_a_freudenthal_step_that_does_not_divide_raises(monkeypatch):
    # C2 with its coroots kept but the form's symmetrizer set to (1, 1) past
    # the constructor's check: the closure and the Weyl formula are right,
    # and the first step of the recursion below V(1, 0) gives 6/5.
    st = lie.SimpleType("C2", lie.SIMPLE_TYPES["C2"].cartan)
    assert st.coroots == lie.SIMPLE_TYPES["C2"].coroots
    st.__dict__["symmetrizer"] = (1, 1)
    monkeypatch.setitem(lie.SIMPLE_TYPES, "C2", st)
    lie._simple_character.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match=r"multiplicity 6/5 at \(0, 0\)"):
            lie._simple_character("C2", (1, 0))
    finally:
        monkeypatch.undo()
        lie._simple_character.cache_clear()


def test_coroot_pairing_to_zero_with_delta_raises(monkeypatch):
    # G2 with its symmetrizer reversed, set past the constructor's check:
    # one coroot comes out as (0, 0), and the Weyl formula's denominator
    # prod <delta, alpha^vee> is 0.
    st = lie.SimpleType("G2", lie.SIMPLE_TYPES["G2"].cartan)
    st.__dict__["symmetrizer"] = tuple(reversed(lie.SIMPLE_TYPES["G2"].symmetrizer))
    assert (0, 0) in st.coroots
    monkeypatch.setitem(lie.SIMPLE_TYPES, "G2", st)
    lie._simple_character.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match="coroots do not match"):
            lie._simple_character("G2", (0, 0))
    finally:
        monkeypatch.undo()
        lie._simple_character.cache_clear()


def test_repeated_characters_are_shared_and_read_only():
    first = lie.weight_multiplicities(lie.A1_U1, (2, 7))
    assert lie.weight_multiplicities(lie.A1_U1, (2, 7)) is first
    assert lie.weight_multiplicities(lie.RootData(("A1", "U1")), (2, 7)) is first
    with pytest.raises(TypeError):
        first.weights[(2, 7)] = 5
    with pytest.raises(AttributeError):
        first.weights = {}
    assert first.weights[(2, 7)] == 1 and sum(first.weights.values()) == 3
    # (True, 0) is the same cache key as (1, 0): the check comes first
    lie.weight_multiplicities(lie.A2, (1, 0))
    with pytest.raises(ValueError):
        lie.weight_multiplicities(lie.A2, (True, 0))
    # the shared G2 characters still agree with Kostant's formula
    for hw in [(0, 1), (1, 1)]:
        lie.weight_multiplicities(lie.G2, hw)
        again = lie.weight_multiplicities(lie.G2, hw)
        assert dict(again.weights) == weyl_oracle.character("G2", hw)


def test_weights_given_to_a_character_are_read_only():
    char = lie.WeightCharacter(lie.A1, {(0,): 1})
    with pytest.raises(TypeError):
        char.weights[(0,)] = 2
    assert lie.WeightCharacter(lie.A1).weights == {}


@pytest.mark.parametrize("tag", sorted(lie.SIMPLE_TYPES))
def test_derived_root_data_matches_tables_and_kostant_oracle(tag):
    st = lie.SIMPLE_TYPES[tag]
    roots, gram = slow_oracle.ROOT_TABLES[tag]
    assert sorted(st.positive_roots) == sorted(roots)
    assert sorted(st.root_fund(r) for r in st.positive_roots) == sorted(
        weyl_oracle.positive_roots(tag)
    )
    assert st.positive_roots[-1] == max(roots, key=sum)  # the highest root
    # The symmetrizer's form is the table's up to scale: (alpha_i, alpha_i)
    # is proportional to e_i, and (w, alpha) is the table's inner product.
    e = st.symmetrizer
    assert math.gcd(*e) == 1
    norms = [slow_oracle.ip(gram, a, a) for a in st.cartan]
    assert all(n * e[0] == norms[0] * x for n, x in zip(norms, e))
    weights = list(itertools.product(range(-2, 3), repeat=len(e)))
    for r, k in zip(st.positive_roots, st.coroots):
        a = slow_oracle.root_fund(tag, r)
        for w in weights:
            table = slow_oracle.ip(gram, w, a)
            assert st.root_pairing(w, r) * norms[0] == 2 * e[0] * table
            assert sum(x * y for x, y in zip(w, k)) == 2 * table / slow_oracle.ip(
                gram, a, a
            )


def test_dimension_on_product_algebras():
    assert lie.dimension(lie.A1_U1, (2, 5)) == 3
    assert lie.dimension(lie.U1_U1, (3, -4)) == 1
    assert lie.dimension(lie.A1_CUBED, (1, 2, 3)) == 2 * 3 * 4


def test_freudenthal_base_case():
    rng = random.Random(11)
    for rd in ALGEBRAS.values():
        for _ in range(10):
            hw = tuple(rng.randint(0, 3) for _ in range(rd.num_coords))
            assert lie.weight_multiplicities(rd, hw).weights[hw] == 1


def test_weyl_invariance_of_characters():
    rng = random.Random(13)
    for rd in ALGEBRAS.values():
        for _ in range(8):
            hw = tuple(rng.randint(0, 3) for _ in range(rd.num_coords))
            char = lie.weight_multiplicities(rd, hw)
            for w, m in char.weights.items():
                for k in rd.simple_coords:
                    assert char.weights.get(_simple_reflection(rd, w, k), 0) == m


def _simple_reflection(rd, w, k):
    for tag, start, stop in rd.blocks:
        if start <= k < stop:
            part = lie.SIMPLE_TYPES[tag].reflect(w[start:stop], k - start)
            return w[:start] + part + w[stop:]


def test_u1_charges_ride_along():
    char = lie.weight_multiplicities(lie.A1_U1, (2, 7))
    assert dict(char.weights) == {(-2, 7): 1, (0, 7): 1, (2, 7): 1}


def test_a2_conjugation_symmetry():
    for m1, m2 in itertools.product(range(5), repeat=2):
        assert lie.dimension(lie.A2, (m1, m2)) == lie.dimension(lie.A2, (m2, m1))


def test_dominant_weights_in_box():
    assert slow_oracle.dominant_weights_in_box(lie.A1, 2) == [(0,), (1,), (2,)]
    assert slow_oracle.dominant_weights_in_box(lie.A2, 1) == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]
    box = slow_oracle.dominant_weights_in_box(lie.U1_U1, 1)
    assert len(box) == 9
    assert box == sorted(box)
    mixed = slow_oracle.dominant_weights_in_box(lie.A1_U1, 1)
    assert mixed == [(0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]


def _fundamental_weights(st):
    """Fundamental weights in simple-root coordinates."""
    return tuple(
        tuple(row) for row in ratlinalg.inverse([list(r) for r in st.cartan])
    )


def test_static_factor_tables():
    for st in lie.SIMPLE_TYPES.values():
        # Cartan matrix shape constraints
        for i in range(len(st.cartan)):
            assert st.cartan[i][i] == 2
            for j in range(len(st.cartan)):
                if i != j:
                    assert st.cartan[i][j] <= 0
    assert len(lie.SIMPLE_TYPES["A1"].positive_roots) == 1
    assert len(lie.SIMPLE_TYPES["A2"].positive_roots) == 3
    assert len(lie.SIMPLE_TYPES["C2"].positive_roots) == 4
    assert len(lie.SIMPLE_TYPES["G2"].positive_roots) == 6
    # fundamental weights in simple-root coordinates invert the Cartan pairing
    fw = _fundamental_weights(lie.SIMPLE_TYPES["A2"])
    assert fw == (
        (Fraction(2, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(2, 3)),
    )
    for st in lie.SIMPLE_TYPES.values():
        for j, w in enumerate(_fundamental_weights(st)):
            fund = tuple(
                sum(Fraction(w[i]) * st.cartan[i][k] for i in range(len(w)))
                for k in range(len(w))
            )
            assert fund == tuple(
                Fraction(int(k == j)) for k in range(len(w))
            )


def test_non_dominant_weight_rejected():
    with pytest.raises(NonDominantWeightError):
        lie.weight_multiplicities(lie.A2, (1, -1))
    with pytest.raises(NonDominantWeightError):
        lie.dimension(lie.G2, (-1, 0))
    # U(1) charges are unconstrained
    lie.weight_multiplicities(lie.A1_U1, (1, -5))


def test_bool_weight_rejected():
    for w in ((True, 0), (1, False)):
        with pytest.raises(ValueError):
            lie.A2.check_weight(w)
        with pytest.raises(ValueError):
            lie.weight_multiplicities(lie.A2, w)


def test_malformed_weight_rejected():
    with pytest.raises(ValueError):
        lie.weight_multiplicities(lie.A2, (1,))
