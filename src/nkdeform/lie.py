"""Root systems, weight lattices and characters for A1, A2, C2, G2 and U(1).

Weights are plain tuples of integers in fundamental-weight coordinates, one
block of coordinates per factor of the (reductive) algebra; each U(1) factor
contributes a single integer charge.  The algebra itself is described by a
:class:`RootData` value listing its factor tags.

The character of an irreducible is computed with the Freudenthal recursion
and cross-checked against the Weyl dimension formula on every call to
:func:`dimension`; a mismatch raises :class:`ConsistencyError` and means an
implementation bug, never bad input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

from .errors import ConsistencyError, NonDominantWeightError
from . import ratlinalg

Weight = tuple

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
    """

    name: str
    rank: int
    cartan: tuple
    positive_roots: tuple
    gram: tuple

    @property
    def fundamental_weights(self):
        """Fundamental weights as rational vectors in simple-root coordinates."""
        return tuple(
            tuple(row) for row in ratlinalg.inverse([list(r) for r in self.cartan])
        )

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

    def dominant_representative(self, w):
        w = tuple(w)
        while True:
            i = next((k for k in range(self.rank) if w[k] < 0), None)
            if i is None:
                return w
            w = self.reflect(w, i)

    def fund_to_root(self, w):
        """Fundamental-weight coordinates to (rational) simple-root coordinates."""
        inv_t = _fund_to_root_matrix(self.name)
        return tuple(sum(inv_t[i][j] * w[j] for j in range(self.rank))
                     for i in range(self.rank))


@lru_cache(maxsize=None)
def _fund_to_root_matrix(type_name):
    cartan = SIMPLE_TYPES[type_name].cartan
    return tuple(
        tuple(row)
        for row in ratlinalg.inverse(
            ratlinalg.transpose([list(r) for r in cartan])
        )
    )


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


def _validate_simple_types():
    # Construction-time sanity for the static tables.
    for st in SIMPLE_TYPES.values():
        for i in range(st.rank):
            assert st.cartan[i][i] == 2
            for j in range(st.rank):
                assert i == j or st.cartan[i][j] <= 0
        dim = st.rank + 2 * len(st.positive_roots)
        assert len(st.positive_roots) == (dim - st.rank) // 2


_validate_simple_types()


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

    def height(self, w):
        """Sum of the simple-root coordinates of ``w`` (charges contribute 0)."""
        total = _F(0)
        for tag, start, stop in self.blocks:
            if tag == U1:
                continue
            total += sum(SIMPLE_TYPES[tag].fund_to_root(w[start:stop]))
        return total

    def simple_reflection(self, w, k):
        """Reflection in the k-th simple coordinate (U1 charges have none)."""
        self.check_weight(w)
        if k not in self.simple_coords:
            raise ValueError("coordinate %d is a U(1) charge" % k)
        for tag, start, stop in self.blocks:
            if start <= k < stop:
                st = SIMPLE_TYPES[tag]
                part = st.reflect(w[start:stop], k - start)
                return w[:start] + part + w[stop:]
        raise AssertionError

    def dominant_representative(self, w):
        self.check_weight(w)
        out = []
        for tag, start, stop in self.blocks:
            part = w[start:stop]
            if tag != U1:
                part = SIMPLE_TYPES[tag].dominant_representative(part)
            out.extend(part)
        return tuple(out)


@dataclass
class WeightCharacter:
    """Finite multiset of weights with multiplicities over a fixed algebra."""

    root_data: RootData
    weights: dict = field(default_factory=dict)

    def total(self):
        return sum(self.weights.values())

    def mult(self, w):
        return self.weights.get(tuple(w), 0)

    def items(self):
        return sorted(self.weights.items())

    def copy(self):
        return WeightCharacter(self.root_data, dict(self.weights))


@lru_cache(maxsize=None)
def _simple_character(tag, hw):
    """Weight system of the irreducible of one simple factor (read-only)."""
    st = SIMPLE_TYPES[tag]
    n = st.rank
    delta = (1,) * n
    roots_fund = [st.root_fund(r) for r in st.positive_roots]

    def add(u, v, k=1):
        return tuple(a + k * b for a, b in zip(u, v))

    def is_member(w):
        d = st.dominant_representative(w)
        diff = st.fund_to_root(add(hw, d, -1))
        return all(c.denominator == 1 and c >= 0 for c in diff)

    members = {hw}
    frontier = [hw]
    while frontier:
        nxt = []
        for w in frontier:
            for a in roots_fund:
                w2 = add(w, a, -1)
                if w2 not in members and is_member(w2):
                    members.add(w2)
                    nxt.append(w2)
        frontier = nxt

    hw_norm = st.ip(add(hw, delta), add(hw, delta))
    dominants = sorted(
        (w for w in members if all(c >= 0 for c in w)),
        key=lambda w: (sum(st.fund_to_root(add(hw, w, -1))), w),
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
                rep = st.dominant_representative(w2)
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

    return MappingProxyType(
        {w: mults[st.dominant_representative(w)] for w in members}
    )


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
    """Dimension by the Weyl product formula (exact; no character needed)."""
    root_data.require_dominant(hw)
    dim = _F(1)
    for tag, start, stop in root_data.blocks:
        if tag == U1:
            continue
        st = SIMPLE_TYPES[tag]
        part = hw[start:stop]
        delta = (1,) * st.rank
        shifted = tuple(a + b for a, b in zip(part, delta))
        for r in st.positive_roots:
            a = st.root_fund(r)
            dim *= st.ip(shifted, a) / st.ip(delta, a)
    if dim.denominator != 1:
        raise ConsistencyError("Weyl formula gave non-integer %s at %s" % (dim, hw))
    return int(dim)


def dimension(root_data, hw):
    """Dimension of the irreducible with highest weight ``hw``.

    Computed both by counting weights and by the Weyl formula; the two routes
    must agree exactly.
    """
    counted = weight_multiplicities(root_data, hw).total()
    closed = weyl_dimension(root_data, hw)
    if counted != closed:
        raise ConsistencyError(
            "weight count %d != Weyl formula %d for %s over %s"
            % (counted, closed, hw, root_data.factors)
        )
    return counted


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
