"""Root systems, weight lattices and characters for A1, A2, C2, G2 and U(1).

Weights are plain tuples of integers in fundamental-weight coordinates, one
block of coordinates per factor of the (reductive) algebra; each U(1) factor
contributes a single integer charge.  The algebra itself is described by a
:class:`RootData` value listing its factor tags.

Each simple type is given by its Cartan matrix alone.  The positive roots
(by reflection closure) and the integer symmetrizer of the invariant form
are derived from it, in integers; no coroot is stored.  The character of an
irreducible is computed with the Freudenthal recursion in integers over its
dominant weights, spread over their Weyl orbits, and cross-checked against
the Weyl dimension formula on every character built; a mismatch raises
:class:`ConsistencyError` and means an implementation bug, never bad input.
Dimensions come from the Weyl product formula over the integer pairings
(w, alpha) of that form.
"""

import collections
import math
from functools import cached_property, lru_cache
from types import MappingProxyType

from .errors import ConsistencyError, NonDominantWeightError


def _det(m):
    """Determinant of a small integer matrix, by cofactor expansion."""
    if not m:
        return 1
    return sum(
        (-1) ** j * x * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j, x in enumerate(m[0])
    )


class SimpleType(collections.namedtuple("SimpleType", "name cartan")):
    """Combinatorics of one simple-factor type, derived from its Cartan
    matrix.

    ``cartan`` rows are the simple roots in fundamental-weight coordinates:
    cartan[i][j] = <alpha_i, alpha_j^vee>.  The matrix is the only
    hand-entered datum, so construction checks it and raises
    :class:`ConsistencyError` unless it has 2 on its diagonal and entries
    <= 0 off it, is symmetrizable, and is of finite type.  The derived data
    are cached in the instance ``__dict__``.
    """

    def __new__(cls, name, cartan):
        self = super().__new__(cls, name, cartan)
        c = cartan
        n = len(c)
        if any(
            c[i][j] != 2 if i == j else c[i][j] > 0
            for i in range(n)
            for j in range(n)
        ):
            raise ConsistencyError(
                "%s: Cartan matrix %s needs 2 on the diagonal and entries <= 0"
                " off it" % (self.name, c)
            )
        e = self.symmetrizer
        if any(c[i][j] * e[j] != c[j][i] * e[i] for i in range(n) for j in range(n)):
            raise ConsistencyError(
                "%s: Cartan matrix %s is not symmetrizable" % (self.name, c)
            )
        # A symmetrizable Cartan matrix is of finite type iff its symmetrized
        # form is positive definite, i.e. iff its leading principal minors
        # are positive (Kac, *Infinite Dimensional Lie Algebras*, ch. 4).
        if any(_det([row[:k] for row in c[:k]]) <= 0 for k in range(1, n + 1)):
            raise ConsistencyError(
                "%s: Cartan matrix %s is not of finite type" % (self.name, c)
            )
        return self

    @cached_property
    def symmetrizer(self):
        """Smallest positive integers e with cartan[i][j] * e[j] symmetric:
        (alpha_i, alpha_j) = cartan[i][j] * e[j] is the invariant form in
        which a shortest root has (alpha, alpha) = 2.  Not checked here: a
        non-symmetrizable matrix gets some vector, which the constructor
        refuses."""
        c = self.cartan
        e = [0] * len(c)
        for start in range(len(c)):
            if e[start]:
                continue
            e[start] = 1
            todo = [start]
            while todo:
                i = todo.pop()
                for j, cij in enumerate(c[i]):
                    if cij and c[j][i] and not e[j]:
                        # e_j = c_ji e_i / c_ij, after scaling e to keep it integral
                        num = c[j][i] * e[i]
                        k = abs(cij) // math.gcd(num, cij)
                        e = [x * k for x in e]
                        e[j] = num * k // cij
                        todo.append(j)
        g = math.gcd(*e)
        return tuple(x // g for x in e)

    def root_pairing(self, w, r):
        """(w, alpha) = sum_i r_i e_i w_i for a weight w in fundamental
        coordinates and alpha = sum_i r_i alpha_i, since (w, alpha_i) =
        w_i e_i in the form of :attr:`symmetrizer`."""
        return sum(a * b * c for a, b, c in zip(r, self.symmetrizer, w))

    @cached_property
    def positive_roots(self):
        """Positive roots in simple-root coordinates, by height, the highest
        root last: the closure of the simple roots under the simple
        reflections s_i(r) = r - <r, alpha_i^vee> alpha_i, which holds every
        root (Humphreys, *Introduction to Lie Algebras and Representation
        Theory*, section 10.3), cut to those with coordinates >= 0."""
        c = self.cartan
        n = len(c)
        frontier = {tuple(int(i == j) for j in range(n)) for i in range(n)}
        roots = set(frontier)
        while frontier:
            frontier = {
                r[:i] + (r[i] - sum(a * row[i] for a, row in zip(r, c)),) + r[i + 1:]
                for r in frontier
                for i in range(n)
            } - roots
            roots |= frontier
        return tuple(
            sorted((r for r in roots if min(r) >= 0), key=lambda r: (sum(r), r))
        )

    def weyl_dimension(self, hw):
        """prod (hw + delta, alpha) // prod (delta, alpha) over the positive
        roots alpha, in the form of :attr:`symmetrizer`."""
        shifted = [a + 1 for a in hw]
        num = math.prod(self.root_pairing(shifted, r) for r in self.positive_roots)
        den = math.prod(self.root_pairing([1] * len(hw), r) for r in self.positive_roots)
        dim, rest = divmod(num, den)
        if rest:
            raise ConsistencyError(
                "Weyl formula gave non-integer %d/%d at %s" % (num, den, hw)
            )
        return dim

    def root_fund(self, root):
        """A root given in simple-root coordinates, in fundamental coordinates."""
        return tuple(
            sum(a * row[j] for a, row in zip(root, self.cartan))
            for j in range(len(self.cartan))
        )

    def reflect(self, w, i):
        """Simple reflection s_i acting on a weight in fundamental coordinates."""
        c = w[i]
        return tuple(x - c * y for x, y in zip(w, self.cartan[i]))

    def reflect_to_dominant(self, w):
        """(dominant weight in the Weyl orbit of ``w``, sign of the Weyl
        element that takes ``w`` there)."""
        w = tuple(w)
        sign = 1
        while True:
            i = next((k for k, x in enumerate(w) if x < 0), None)
            if i is None:
                return w, sign
            w = self.reflect(w, i)
            sign = -sign


SIMPLE_TYPES = {
    "A1": SimpleType("A1", ((2,),)),
    "A2": SimpleType("A2", ((2, -1), (-1, 2))),
    # Labelling follows the five-dimensional first fundamental representation:
    # alpha_1 is the long simple root, so dim V(1,0) = 5 and dim V(0,1) = 4.
    "C2": SimpleType("C2", ((2, -2), (-1, 2))),
    "G2": SimpleType("G2", ((2, -1), (-3, 2))),
}

U1 = "U1"


class RootData(collections.namedtuple("RootData", "factors")):
    """A finite product of simple factors (A1/A2/C2/G2) and U(1) factors."""

    def __new__(cls, factors):
        for tag in factors:
            if tag != U1 and tag not in SIMPLE_TYPES:
                raise ValueError("unknown factor tag %r" % (tag,))
        return super().__new__(cls, factors)

    @cached_property
    def blocks(self):
        """(tag, start, stop) coordinate block per factor."""
        out = []
        pos = 0
        for tag in self.factors:
            width = 1 if tag == U1 else len(SIMPLE_TYPES[tag].cartan)
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
        """Raise ``ValueError`` unless ``w`` is a tuple of ``num_coords``
        ints.  Checked weights key the memos, so ``(True,)`` is refused."""
        if (type(w) is not tuple or len(w) != self.num_coords
                or not all(type(c) is int for c in w)):
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


class WeightCharacter:
    """Finite multiset of weights with multiplicities over a fixed algebra.

    ``weights`` is a read-only view of the mapping given, and neither
    attribute can be rebound: :func:`weight_multiplicities` hands the same
    character to every caller that asks for it.
    """

    __slots__ = ("root_data", "weights")

    def __init__(self, root_data, weights=None):
        object.__setattr__(self, "root_data", root_data)
        object.__setattr__(self, "weights", MappingProxyType(
            {} if weights is None else weights))

    def __setattr__(self, name, value):
        raise AttributeError("WeightCharacter attributes are read-only")

    def __eq__(self, other):
        if type(other) is not WeightCharacter:
            return NotImplemented
        return (self.root_data, self.weights) == (other.root_data, other.weights)

    def __repr__(self):
        return "WeightCharacter(root_data=%r, weights=%r)" % (
            self.root_data, dict(self.weights))


@lru_cache(maxsize=None)
def _simple_character(tag, hw):
    """Weight system of the irreducible of one simple factor (read-only)."""
    st = SIMPLE_TYPES[tag]
    roots = [(r, st.root_fund(r)) for r in st.positive_roots]

    # The dominant weights of V(hw) are the dominant mu <= hw (Humphreys,
    # section 21.3), and each is reached from hw by a chain of dominant
    # weights that differ by positive roots (J. R. Stembridge, "The partial
    # order of dominant weights", Adv. Math. 136 (1998)).  Each maps to its
    # offset hw - mu in simple-root coordinates.  More than dim V(hw) of them
    # means that the roots are wrong, and the closure need not end.
    dim = st.weyl_dimension(hw)
    offsets = {hw: (0,) * len(hw)}
    frontier = [hw]
    while frontier:
        if len(offsets) > dim:
            raise ConsistencyError("%s %s: weight closure passed dimension %d"
                                   % (tag, hw, dim))
        nxt = []
        for w in frontier:
            for r, a in roots:
                w2 = tuple(x - y for x, y in zip(w, a))
                if min(w2) >= 0 and w2 not in offsets:
                    offsets[w2] = tuple(x + y for x, y in zip(offsets[w], r))
                    nxt.append(w2)
        frontier = nxt

    # Highest first: the height of w is the height of hw minus sum(offset).
    dominants = sorted(offsets, key=lambda w: (sum(offsets[w]), w))
    mults = {}
    for mu in dominants:
        if mu == hw:
            mults[mu] = 1
            continue
        acc = 0
        for r, a in roots:
            k = 1
            while True:
                w2 = tuple(x + k * y for x, y in zip(mu, a))
                rep = st.reflect_to_dominant(w2)[0]
                if rep not in mults:
                    break
                acc += mults[rep] * st.root_pairing(w2, r)
                k += 1
        # (hw + delta)^2 - (mu + delta)^2 = (hw + mu + 2 delta, hw - mu)
        denom = st.root_pairing([x + y + 2 for x, y in zip(hw, mu)], offsets[mu])
        m, rest = divmod(2 * acc, denom)
        if rest or m <= 0:
            raise ConsistencyError(
                "Freudenthal recursion produced multiplicity %d/%d at %s"
                % (2 * acc, denom, mu)
            )
        mults[mu] = m

    # Each multiplicity is spread over the Weyl orbit of its weight, which
    # the simple reflections close; the orbits of distinct dominant weights
    # are disjoint.
    char = dict(mults)
    for mu, m in mults.items():
        orbit = [mu]
        for w in orbit:
            for i in range(len(w)):
                w2 = st.reflect(w, i)
                if w2 not in char:
                    char[w2] = m
                    orbit.append(w2)
    if sum(char.values()) != dim:
        raise ConsistencyError(
            "weight count %d != Weyl formula %d for %s %s"
            % (sum(char.values()), dim, tag, hw)
        )
    return MappingProxyType(char)


def weight_multiplicities(root_data, hw):
    """Full weight system of the irreducible with highest weight ``hw``.

    U(1) charges are carried unchanged onto every weight; the character of a
    product algebra is the outer product of the factor characters.  The
    result is built once per (algebra, weight) and shared: its ``weights``
    are read-only.
    """
    root_data.require_dominant(hw)
    return _weight_multiplicities(root_data, hw)


@lru_cache(maxsize=None)
def _weight_multiplicities(root_data, hw):
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


def dimension(root_data, hw):
    """Dimension by the Weyl product formula, in integers (no character is
    built; every character that is built is checked against this formula).
    Computed once per (algebra, weight) in a process."""
    root_data.require_dominant(hw)
    return _weyl_dimension(root_data, hw)


@lru_cache(maxsize=None)
def _weyl_dimension(root_data, hw):
    dim = 1
    for tag, start, stop in root_data.blocks:
        if tag != U1:
            dim *= SIMPLE_TYPES[tag].weyl_dimension(hw[start:stop])
    return dim


# Algebras used throughout the four coset spaces.
A1 = RootData(("A1",))
A2 = RootData(("A2",))
C2 = RootData(("C2",))
G2 = RootData(("G2",))
A1_CUBED = RootData(("A1", "A1", "A1"))
A1_U1 = RootData(("A1", "U1"))
U1_U1 = RootData(("U1", "U1"))
