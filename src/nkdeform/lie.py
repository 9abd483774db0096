"""Root systems, weight lattices and characters for A1, A2, C2, G2 and U(1).

Weights are plain tuples of integers in fundamental-weight coordinates, one
block of coordinates per factor of the (reductive) algebra; each U(1) factor
contributes a single integer charge.  The algebra itself is described by a
:class:`RootData` value listing its factor tags.

The character of an irreducible is computed with the Freudenthal recursion
and cross-checked against the Weyl dimension formula on every character
built; a mismatch raises :class:`ConsistencyError` and means an
implementation bug, never bad input.  Dimensions come from the Weyl product
formula in integers, over the coroot pairings <w, alpha^vee> of each simple
type, which are checked to be integral when the type is constructed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

from .errors import ConsistencyError, NonDominantWeightError

_F = Fraction


@dataclass(frozen=True)
class SimpleType:
    """Combinatorics of one simple-factor type.

    ``cartan`` rows are the simple roots in fundamental-weight coordinates
    (row i is alpha_i, with cartan[i][j] = alpha_i evaluated on the j-th
    dual basis element of the Cartan subalgebra).  ``positive_roots`` are
    given in simple-root coordinates.  ``gram`` is a Weyl-invariant positive
    definite form on fundamental-weight coordinates; any normalization works
    for multiplicities, and the one stored matches the negated invariant
    form used by the Casimir module for this algebra in its ambient role.

    Construction checks the tables against each other and raises
    :class:`ConsistencyError` unless the Cartan matrix has 2 on its diagonal
    and entries <= 0 off it, the simple roots closed under the simple
    reflections are exactly the listed positive roots and their negatives,
    and every coroot pairing is integral.
    """

    name: str
    rank: int
    cartan: tuple
    positive_roots: tuple
    gram: tuple

    def __post_init__(self):
        n = self.rank
        if any(
            self.cartan[i][j] != 2 if i == j else self.cartan[i][j] > 0
            for i in range(n)
            for j in range(n)
        ):
            raise ConsistencyError(
                "%s: Cartan matrix %s needs 2 on the diagonal and entries <= 0"
                " off it" % (self.name, self.cartan)
            )
        listed = [self.root_fund(r) for r in self.positive_roots]
        expected = set(listed) | {tuple(-c for c in r) for r in listed}
        roots = set(self.cartan)
        frontier = roots
        # A Cartan matrix of infinite type never closes; stop once the
        # closure is larger than the listed root system.
        while frontier and len(roots) <= len(expected):
            frontier = {self.reflect(r, i) for r in frontier for i in range(n)}
            frontier -= roots
            roots |= frontier
        if (
            roots != expected
            or len(expected) != 2 * len(listed)
            or any(c < 0 for r in self.positive_roots for c in r)
        ):
            raise ConsistencyError(
                "%s: positive_roots %s are not the positive roots of the"
                " Cartan matrix" % (self.name, self.positive_roots)
            )
        self.coroots  # raises on a non-integral pairing

    @cached_property
    def coroots(self):
        """One integer vector k per positive root alpha, with
        <w, alpha^vee> = 2(w, alpha)/(alpha, alpha) = sum_j w_j k_j."""
        # The ratio is scale-free, so an integer multiple of gram will do.
        scale = math.lcm(*(_F(x).denominator for row in self.gram for x in row))
        gram = [[int(x * scale) for x in row] for row in self.gram]
        out = []
        for r in self.positive_roots:
            a = self.root_fund(r)
            # (omega_j, alpha) for every j, then (alpha, alpha)
            pairings = [sum(g * c for g, c in zip(row, a)) for row in gram]
            norm = sum(p * c for p, c in zip(pairings, a))
            k = [divmod(2 * p, norm) for p in pairings]
            if any(rest for _, rest in k):
                raise ConsistencyError(
                    "%s: coroot pairing %s/%d of root %s is not integral"
                    % (self.name, [2 * p for p in pairings], norm, r)
                )
            out.append(tuple(q for q, _ in k))
        return tuple(out)

    @cached_property
    def height_vector(self):
        """Integer vector h with h.w = 2 x the height of w (the sum of its
        simple-root coordinates): the sum of the coroot vectors, since the
        positive coroots add up to twice the element pairing to 1 with
        every simple root."""
        return tuple(sum(col) for col in zip(*self.coroots))

    def weyl_dimension(self, hw):
        """prod <hw + delta, alpha^vee> // prod <delta, alpha^vee>."""
        num = den = 1
        for k in self.coroots:
            num *= sum((a + 1) * b for a, b in zip(hw, k))
            den *= sum(k)
        dim, rest = divmod(num, den)
        if rest:
            raise ConsistencyError(
                "Weyl formula gave non-integer %d/%d at %s" % (num, den, hw)
            )
        return dim

    def root_fund(self, root):
        """A root given in simple-root coordinates, in fundamental coordinates."""
        n = self.rank
        return tuple(
            sum(root[i] * self.cartan[i][j] for i in range(n)) for j in range(n)
        )

    def ip(self, u, v):
        return sum(
            _F(u[i]) * self.gram[i][j] * _F(v[j])
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def reflect(self, w, i):
        """Simple reflection s_i acting on a weight in fundamental coordinates."""
        c = w[i]
        return tuple(w[j] - c * self.cartan[i][j] for j in range(self.rank))

    def reflect_to_dominant(self, w):
        """(dominant weight in the Weyl orbit of ``w``, sign of the Weyl
        element that takes ``w`` there)."""
        w = tuple(w)
        sign = 1
        while True:
            i = next((k for k in range(self.rank) if w[k] < 0), None)
            if i is None:
                return w, sign
            w = self.reflect(w, i)
            sign = -sign


SIMPLE_TYPES = {
    "A1": SimpleType("A1", 1, ((2,),), ((1,),), ((_F(1),),)),
    "A2": SimpleType(
        "A2",
        2,
        ((2, -1), (-1, 2)),
        ((1, 0), (0, 1), (1, 1)),
        ((_F(1), _F(1, 2)), (_F(1, 2), _F(1))),
    ),
    # Labelling follows the five-dimensional first fundamental representation:
    # alpha_1 is the long simple root, so dim V(1,0) = 5 and dim V(0,1) = 4.
    "C2": SimpleType(
        "C2",
        2,
        ((2, -2), (-1, 2)),
        ((1, 0), (0, 1), (1, 1), (1, 2)),
        ((_F(2), _F(1)), (_F(1), _F(1))),
    ),
    "G2": SimpleType(
        "G2",
        2,
        ((2, -1), (-3, 2)),
        ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)),
        ((_F(1), _F(3, 2)), (_F(3, 2), _F(3))),
    ),
}

SIMPLE_TAGS = tuple(sorted(SIMPLE_TYPES))
U1 = "U1"


@dataclass(frozen=True)
class RootData:
    """A finite product of simple factors (A1/A2/C2/G2) and U(1) factors."""

    factors: tuple

    def __post_init__(self):
        for tag in self.factors:
            if tag != U1 and tag not in SIMPLE_TYPES:
                raise ValueError("unknown factor tag %r" % (tag,))

    @cached_property
    def blocks(self):
        """(tag, start, stop) coordinate block per factor."""
        out = []
        pos = 0
        for tag in self.factors:
            width = 1 if tag == U1 else SIMPLE_TYPES[tag].rank
            out.append((tag, pos, pos + width))
            pos += width
        return tuple(out)

    @cached_property
    def num_coords(self):
        return sum(stop - start for _, start, stop in self.blocks)

    @cached_property
    def simple_coords(self):
        """Indices of coordinates belonging to simple (non-U1) factors."""
        return tuple(
            i
            for tag, start, stop in self.blocks
            if tag != U1
            for i in range(start, stop)
        )

    def check_weight(self, w):
        if len(w) != self.num_coords or not all(type(c) is int for c in w):
            raise ValueError(
                "weight %r does not match algebra %s" % (w, self.factors)
            )

    def is_dominant(self, w):
        self.check_weight(w)
        return all(w[i] >= 0 for i in self.simple_coords)

    def require_dominant(self, w):
        if not self.is_dominant(w):
            raise NonDominantWeightError(
                "weight %r is not dominant for %s" % (w, self.factors)
            )

    def delta(self):
        """Half-sum of positive roots: 1 on simple coordinates, 0 on charges."""
        w = [0] * self.num_coords
        for i in self.simple_coords:
            w[i] = 1
        return tuple(w)

    @cached_property
    def height_vector(self):
        """Integer vector h with h.w = 2 x the sum of the simple-root
        coordinates of ``w`` (charges contribute 0)."""
        out = []
        for tag, _, _ in self.blocks:
            out.extend((0,) if tag == U1 else SIMPLE_TYPES[tag].height_vector)
        return tuple(out)

    def dominant_representative(self, w):
        self.check_weight(w)
        return self.reflect_to_dominant(w)[0]

    def reflect_to_dominant(self, w):
        """(dominant weight in the Weyl orbit of ``w``, sign of the Weyl
        element used), reflecting block by block; charges stay."""
        out = []
        sign = 1
        for tag, start, stop in self.blocks:
            part = w[start:stop]
            if tag != U1:
                part, s = SIMPLE_TYPES[tag].reflect_to_dominant(part)
                sign *= s
            out.extend(part)
        return tuple(out), sign


@dataclass
class WeightCharacter:
    """Finite multiset of weights with multiplicities over a fixed algebra."""

    root_data: RootData
    weights: dict = field(default_factory=dict)

    def total(self):
        return sum(self.weights.values())

    def mult(self, w):
        return self.weights.get(tuple(w), 0)


@lru_cache(maxsize=None)
def _simple_character(tag, hw):
    """Weight system of the irreducible of one simple factor (read-only)."""
    st = SIMPLE_TYPES[tag]
    n = st.rank
    delta = (1,) * n
    roots_fund = [st.root_fund(r) for r in st.positive_roots]

    def add(u, v, k=1):
        return tuple(a + k * b for a, b in zip(u, v))

    # The weights are the smallest set holding hw and every alpha-string
    # w, w - alpha, ..., w - <w, alpha^vee> alpha through its members
    # (Humphreys, section 13.4, Lemma B).
    members = {hw}
    frontier = [hw]
    while frontier:
        nxt = []
        for w in frontier:
            for a, k in zip(roots_fund, st.coroots):
                p = sum(c * b for c, b in zip(w, k))
                for i in range(1, p + 1) if p > 0 else range(p, 0):
                    w2 = add(w, a, -i)
                    if w2 not in members:
                        members.add(w2)
                        nxt.append(w2)
        frontier = nxt

    hw_norm = st.ip(add(hw, delta), add(hw, delta))
    height = st.height_vector
    dominants = sorted(
        (w for w in members if all(c >= 0 for c in w)),
        key=lambda w: (-sum(h * c for h, c in zip(height, w)), w),
    )
    mults = {}
    for mu in dominants:
        if mu == hw:
            mults[mu] = 1
            continue
        acc = _F(0)
        for a in roots_fund:
            k = 1
            while True:
                w2 = add(mu, a, k)
                rep = st.reflect_to_dominant(w2)[0]
                if rep not in mults:
                    break
                acc += mults[rep] * st.ip(w2, a)
                k += 1
        denom = hw_norm - st.ip(add(mu, delta), add(mu, delta))
        m = 2 * acc / denom
        if m.denominator != 1 or m <= 0:
            raise ConsistencyError(
                "Freudenthal recursion produced multiplicity %s at %s" % (m, mu)
            )
        mults[mu] = int(m)

    char = {w: mults[st.reflect_to_dominant(w)[0]] for w in members}
    if sum(char.values()) != st.weyl_dimension(hw):
        raise ConsistencyError(
            "weight count %d != Weyl formula %d for %s %s"
            % (sum(char.values()), st.weyl_dimension(hw), tag, hw)
        )
    return MappingProxyType(char)


def weight_multiplicities(root_data, hw):
    """Full weight system of the irreducible with highest weight ``hw``.

    U(1) charges are carried unchanged onto every weight; the character of a
    product algebra is the outer product of the factor characters.
    """
    root_data.require_dominant(hw)
    char = {(): 1}
    for tag, start, stop in root_data.blocks:
        part = hw[start:stop]
        if tag == U1:
            factor = {part: 1}
        else:
            factor = _simple_character(tag, part)
        char = {
            w + v: m * k for w, m in char.items() for v, k in factor.items()
        }
    return WeightCharacter(root_data, char)


def weyl_dimension(root_data, hw):
    """Dimension by the Weyl product formula, in integers (no character is
    built)."""
    root_data.require_dominant(hw)
    dim = 1
    for tag, start, stop in root_data.blocks:
        if tag != U1:
            dim *= SIMPLE_TYPES[tag].weyl_dimension(hw[start:stop])
    return dim


# Every character that is built is checked against the Weyl formula, so the
# formula alone gives the dimension.
dimension = weyl_dimension


def dominant_weights_in_box(root_data, bound):
    """All dominant weights with coordinates in [0, bound] (charges in
    [-bound, bound]), in lexicographic order."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    simple = set(root_data.simple_coords)
    ranges = [
        range(0, bound + 1) if i in simple else range(-bound, bound + 1)
        for i in range(root_data.num_coords)
    ]
    return [w for w in itertools.product(*ranges)]


# Algebras used throughout the four coset spaces.
A1 = RootData(("A1",))
A2 = RootData(("A2",))
C2 = RootData(("C2",))
G2 = RootData(("G2",))
A1_CUBED = RootData(("A1", "A1", "A1"))
A1_U1 = RootData(("A1", "U1"))
U1_U1 = RootData(("U1", "U1"))
