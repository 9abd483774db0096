import itertools
import random

import pytest

from nkdeform import lie
from nkdeform.errors import NonDominantWeightError

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
    assert char.total() == 8
    assert char.mult((0, 0)) == 2
    assert len(char.weights) == 7


def test_g2_adjoint_against_oracle():
    char = lie.weight_multiplicities(lie.G2, (0, 1))
    assert char.total() == 14
    assert char.mult((0, 0)) == 2
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
            assert lie.dimension(rd, hw) == lie.weyl_dimension(rd, hw)


def test_dimension_on_product_algebras():
    assert lie.dimension(lie.A1_U1, (2, 5)) == 3
    assert lie.dimension(lie.U1_U1, (3, -4)) == 1
    assert lie.dimension(lie.A1_CUBED, (1, 2, 3)) == 2 * 3 * 4


def test_freudenthal_base_case():
    rng = random.Random(11)
    for rd in ALGEBRAS.values():
        for _ in range(10):
            hw = tuple(rng.randint(0, 3) for _ in range(rd.num_coords))
            assert lie.weight_multiplicities(rd, hw).mult(hw) == 1


def test_weyl_invariance_of_characters():
    rng = random.Random(13)
    for rd in ALGEBRAS.values():
        for _ in range(8):
            hw = tuple(rng.randint(0, 3) for _ in range(rd.num_coords))
            char = lie.weight_multiplicities(rd, hw)
            for w, m in char.weights.items():
                for k in rd.simple_coords:
                    assert char.mult(rd.simple_reflection(w, k)) == m


def test_u1_charges_ride_along():
    char = lie.weight_multiplicities(lie.A1_U1, (2, 7))
    assert dict(char.weights) == {(-2, 7): 1, (0, 7): 1, (2, 7): 1}


def test_a2_conjugation_symmetry():
    for m1, m2 in itertools.product(range(5), repeat=2):
        assert lie.dimension(lie.A2, (m1, m2)) == lie.dimension(lie.A2, (m2, m1))


def test_dominant_weights_in_box():
    assert lie.dominant_weights_in_box(lie.A1, 2) == [(0,), (1,), (2,)]
    assert lie.dominant_weights_in_box(lie.A2, 1) == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]
    box = lie.dominant_weights_in_box(lie.U1_U1, 1)
    assert len(box) == 9
    assert box == sorted(box)
    mixed = lie.dominant_weights_in_box(lie.A1_U1, 1)
    assert mixed == [(0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]


def test_static_factor_tables():
    from fractions import Fraction

    for st in lie.SIMPLE_TYPES.values():
        # Cartan matrix shape constraints
        for i in range(st.rank):
            assert st.cartan[i][i] == 2
            for j in range(st.rank):
                if i != j:
                    assert st.cartan[i][j] <= 0
    assert len(lie.SIMPLE_TYPES["A1"].positive_roots) == 1
    assert len(lie.SIMPLE_TYPES["A2"].positive_roots) == 3
    assert len(lie.SIMPLE_TYPES["C2"].positive_roots) == 4
    assert len(lie.SIMPLE_TYPES["G2"].positive_roots) == 6
    # fundamental weights in simple-root coordinates invert the Cartan pairing
    fw = lie.SIMPLE_TYPES["A2"].fundamental_weights
    assert fw == (
        (Fraction(2, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(2, 3)),
    )
    for st in lie.SIMPLE_TYPES.values():
        for j, w in enumerate(st.fundamental_weights):
            fund = tuple(
                sum(Fraction(w[i]) * st.cartan[i][k] for i in range(st.rank))
                for k in range(st.rank)
            )
            assert fund == tuple(
                Fraction(int(k == j)) for k in range(st.rank)
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
