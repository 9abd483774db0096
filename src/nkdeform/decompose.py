"""Tensor products, branching and the decomposition of characters.

One loop splits every character into irreducibles, the signed Weyl sum of
Brauer-Klimyk (Humphreys, *Introduction to Lie Algebras and Representation
Theory*, section 24): over a Weyl-invariant multiset of weights nu it adds
sign(w) mult(nu) to V(w(shift + nu) - delta), with w the Weyl element that
makes shift + nu dominant; a weight fixed by a reflection adds nothing.
With shift lambda + delta over the weights of V(mu) the sum is V(lambda)
(x) V(mu), so only one character is built.  With shift delta it expands
any Weyl-invariant multiset in irreducible characters, which are a Z-basis
of those multisets: that is :func:`peel_off`, which branching runs on the
restricted character of the G-irreducible.  Dimension conservation is
checked on every tensor product and branching.

Each tensor product and each branching is built once per process, after its
arguments are checked, and the same read-only :class:`RepDecomposition` is
handed to every later caller that asks for it.
"""

import collections
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


def _add(total, decomp, k):
    """Add k times the decomposition to the dict ``total``."""
    for hw, mult in decomp.entries.items():
        total[hw] = total.get(hw, 0) + k * mult


def _decomp_json(d):
    """The JSON form of a decomposition, shared by the CLI and the coset
    fixtures: its sorted highest weights and multiplicities."""
    return [{"hw": list(hw), "mult": m} for hw, m in d.sorted_items()]


class RestrictionMap(collections.namedtuple("RestrictionMap", "matrix")):
    """Linear map of weight lattices in fundamental-weight coordinates.

    ``matrix`` rows are indexed by target (subalgebra) coordinates, with
    ``int`` or ``Fraction`` entries, so that images are exact.  Images of
    integral weights must be integral; a non-integral image signals a
    wrongly transcribed embedding.  A row whose length is not that of the
    weight raises ``ValueError``.
    """

    __slots__ = ()

    def apply(self, w):
        out = []
        for row in self.matrix:
            v = sum(a * c for a, c in zip(row, w, strict=True))
            if v.denominator != 1:
                raise MalformedEmbeddingError(
                    "weight %r restricts to non-integral coordinate %s" % (w, v)
                )
            out.append(int(v))
        return tuple(out)


def _signed_sum(root_data, shift, weights):
    """The nonzero coefficients of the sum, over the weights nu of the
    mapping ``weights``, of sign(w) weights[nu] V(w(shift + nu) - delta),
    with w the Weyl element that makes shift + nu dominant."""
    delta = root_data.delta()
    out = {}
    for nu, m in weights.items():
        image, sign = root_data.reflect_to_dominant(
            tuple(a + b for a, b in zip(shift, nu))
        )
        if any(image[i] == 0 for i in root_data.simple_coords):
            continue  # on a wall: fixed by a reflection
        hw = tuple(a - b for a, b in zip(image, delta))
        out[hw] = out.get(hw, 0) + sign * m
    return {hw: m for hw, m in out.items() if m}


def peel_off(char):
    """Decompose a genuine character into irreducibles by the signed Weyl
    sum with shift delta.

    A weight that does not match the algebra raises ``ValueError``.  A
    negative multiplicity, a multiset with m(s_i mu) != m(mu) for some
    simple reflection s_i, or a negative coefficient in the sum (which is
    then the exact expansion in irreducible characters) means the input was
    not a character, and raises :class:`NotACharacterError`.
    """
    rd = char.root_data
    weights = {w: m for w, m in char.weights.items() if m != 0}
    if any(m < 0 for m in weights.values()):
        raise NotACharacterError("negative multiplicity in input multiset")
    for w in weights:
        rd.check_weight(w)
    for tag, start, stop in rd.blocks:
        if tag == lie.U1:
            continue
        st = lie.SIMPLE_TYPES[tag]
        for w, m in weights.items():
            for i in range(stop - start):
                image = w[:start] + st.reflect(w[start:stop], i) + w[stop:]
                if weights.get(image, 0) != m:
                    raise NotACharacterError(
                        "weight %r has multiplicity %d, its reflection %r has %d"
                        % (w, m, image, weights.get(image, 0))
                    )
    entries = _signed_sum(rd, rd.delta(), weights)
    negative = {hw: m for hw, m in entries.items() if m < 0}
    if negative:
        raise NotACharacterError(
            "negative coefficients on irreducibles: %s" % negative)
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
    shift = tuple(a + b for a, b in zip(hw1, root_data.delta()))
    entries = _signed_sum(
        root_data, shift, lie.weight_multiplicities(root_data, hw2).weights)
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
