"""Tensor products, branching and highest-weight peel-off.

Tensor products follow the Brauer-Klimyk rule (Humphreys, *Introduction to
Lie Algebras and Representation Theory*, section 24): V(lambda) (x) V(mu) is
the signed sum of V(w(lambda + nu + delta) - delta) over the weights nu of
the smaller factor, with w the Weyl element that makes lambda + nu + delta
dominant; a weight fixed by a reflection contributes nothing.  Only one
character is built.  Branching restricts the character of the G-irreducible
and repeatedly strips the character of the irreducible generated by a
maximal-height remaining weight.  Dimension conservation is checked on every
tensor product and branching; the peel-off raises
:class:`NotACharacterError` if the input multiset is not Weyl-closed.

Each tensor product and each branching is built once per process, after its
arguments are checked, and the same read-only :class:`RepDecomposition` is
handed to every later caller that asks for it.
"""

import collections
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from . import lie
from .errors import ConsistencyError, MalformedEmbeddingError, NotACharacterError


class RepDecomposition:
    """Multiset of dominant highest weights with multiplicities.

    ``entries`` is a read-only view of the mapping given, and neither
    attribute can be rebound: :func:`tensor_decompose` and :func:`branch`
    hand the same decomposition to every caller that asks for it.
    """

    __slots__ = ("root_data", "entries")

    def __init__(self, root_data, entries=None):
        entries = MappingProxyType({} if entries is None else entries)
        for hw, mult in entries.items():
            root_data.require_dominant(hw)
            if mult < 1:
                raise ValueError("multiplicity must be >= 1, got %d" % mult)
        object.__setattr__(self, "root_data", root_data)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("RepDecomposition attributes are read-only")

    def dimension(self):
        return sum(
            mult * lie.dimension(self.root_data, hw)
            for hw, mult in self.entries.items()
        )

    def sorted_items(self):
        return sorted(self.entries.items())

    def mult(self, hw):
        return self.entries.get(tuple(hw), 0)

    def __eq__(self, other):
        return (
            isinstance(other, RepDecomposition)
            and self.root_data == other.root_data
            and self.entries == other.entries
        )

    def __repr__(self):
        return "RepDecomposition(root_data=%r, entries=%r)" % (
            self.root_data, dict(self.entries))

    def __str__(self):
        if not self.entries:
            return "0"
        parts = []
        for hw, mult in self.sorted_items():
            label = "V(%s)" % ",".join(str(c) for c in hw)
            parts.append(label if mult == 1 else "%d %s" % (mult, label))
        return " + ".join(parts)


def _decomp_json(d):
    """The JSON form of a decomposition, shared by the CLI and the coset
    fixtures: its sorted highest weights and multiplicities."""
    return [{"hw": list(hw), "mult": m} for hw, m in d.sorted_items()]


class RestrictionMap(collections.namedtuple("RestrictionMap", "matrix")):
    """Linear map of weight lattices in fundamental-weight coordinates.

    ``matrix`` rows are indexed by target (subalgebra) coordinates.  Images
    of integral weights must be integral; a non-integral image signals a
    wrongly transcribed embedding.  A row whose length is not that of the
    weight raises ``ValueError``.
    """

    __slots__ = ()

    def apply(self, w):
        out = []
        for row in self.matrix:
            v = sum(Fraction(a) * c for a, c in zip(row, w, strict=True))
            if v.denominator != 1:
                raise MalformedEmbeddingError(
                    "weight %r restricts to non-integral coordinate %s" % (w, v)
                )
            out.append(int(v))
        return tuple(out)


def peel_off(char):
    """Decompose a genuine character into irreducibles.

    Selection rule: maximal height (sum of simple-root coordinates), ties
    broken by picking the lexicographically largest weight.  The selected
    weight must be dominant and subtraction of its full irreducible
    character must never drive a multiplicity negative; otherwise the input
    was not a character.
    """
    rd = char.root_data
    remaining = {w: m for w, m in char.weights.items() if m != 0}
    if any(m < 0 for m in remaining.values()):
        raise NotACharacterError("negative multiplicity in input multiset")
    h = rd.height_vector
    # Subtraction only removes weights (a weight it would add is negative),
    # so the maximal remaining weight is the first of this order still left.
    order = sorted(
        remaining,
        key=lambda w: (sum(a * b for a, b in zip(h, w)), w),
        reverse=True,
    )
    entries = {}
    for top in order:
        if top not in remaining:
            continue
        if not rd.is_dominant(top):
            raise NotACharacterError(
                "maximal-height weight %r is not dominant" % (top,)
            )
        mult = remaining[top]
        for w, m in lie.weight_multiplicities(rd, top).weights.items():
            new = remaining.get(w, 0) - mult * m
            if new < 0:
                raise NotACharacterError(
                    "subtracting %d x V%r drives weight %r negative"
                    % (mult, top, w)
                )
            if new:
                remaining[w] = new
            else:
                remaining.pop(w, None)
        entries[top] = entries.get(top, 0) + mult
    return RepDecomposition(rd, entries)


def tensor_decompose(root_data, hw1, hw2):
    """Irreducible decomposition of the tensor product of two irreducibles.

    Built once per (algebra, hw1, hw2) in a process and shared read-only.
    """
    root_data.require_dominant(hw1)
    root_data.require_dominant(hw2)
    return _tensor_decompose(root_data, hw1, hw2)


@lru_cache(maxsize=None)
def _tensor_decompose(root_data, hw1, hw2):
    dim1 = lie.dimension(root_data, hw1)
    dim2 = lie.dimension(root_data, hw2)
    if dim2 > dim1:
        hw1, hw2 = hw2, hw1
    delta = root_data.delta()
    shifted = tuple(a + b for a, b in zip(hw1, delta))
    entries = {}
    for nu, m in lie.weight_multiplicities(root_data, hw2).weights.items():
        image, sign = root_data.reflect_to_dominant(
            tuple(a + b for a, b in zip(shifted, nu))
        )
        if any(image[i] == 0 for i in root_data.simple_coords):
            continue  # on a wall: fixed by a reflection
        hw = tuple(a - b for a, b in zip(image, delta))
        entries[hw] = entries.get(hw, 0) + sign * m
    entries = {hw: m for hw, m in entries.items() if m}
    if any(m < 0 for m in entries.values()):
        raise ConsistencyError(
            "Brauer-Klimyk gave a negative multiplicity in V%r x V%r: %s"
            % (hw1, hw2, entries)
        )
    result = RepDecomposition(root_data, entries)
    if result.dimension() != dim1 * dim2:
        raise ConsistencyError(
            "tensor product dimension %d != %d" % (result.dimension(), dim1 * dim2)
        )
    return result


def restrict_character(rmap, char, target_data):
    """Push a character through a restriction map, weight by weight."""
    out = {}
    for w, m in char.weights.items():
        v = rmap.apply(w)
        out[v] = out.get(v, 0) + m
    return lie.WeightCharacter(target_data, out)


def branch(rmap, g_data, h_data, hw):
    """Decomposition of a G-irreducible restricted to H along ``rmap``.

    Built once per (rmap, g_data, h_data, hw) in a process and shared
    read-only.
    """
    g_data.require_dominant(hw)
    return _branch(rmap, g_data, h_data, hw)


@lru_cache(maxsize=None)
def _branch(rmap, g_data, h_data, hw):
    char = lie.weight_multiplicities(g_data, hw)
    result = peel_off(restrict_character(rmap, char, h_data))
    expected = lie.dimension(g_data, hw)
    if result.dimension() != expected:
        raise ConsistencyError(
            "branching dimension %d != %d" % (result.dimension(), expected)
        )
    return result
