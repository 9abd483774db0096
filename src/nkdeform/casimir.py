"""Invariant bilinear forms and quadratic Casimir eigenvalues.

The normalized invariant form B(X, Y) = -(1/12) Tr_g(ad X ad Y) depends on
the *ambient* algebra g over which the trace runs, not just on the abstract
algebra carrying the representation: su(3) as a subalgebra of g2 and su(3)
as an isometry algebra differ by a factor 4/3.  Each supported (algebra,
ambient) pair therefore gets its own tag, and the tag selects the Gram
matrix of B on fundamental-weight coordinates.

No Gram matrix is stored.  On each simple factor of the ambient algebra B is
the factor's invariant form (:class:`lie.SimpleType`) scaled so that the
adjoint representation has Casimir -12: the Killing form gives it Casimir 1.
A subalgebra's form is the restriction of B, through the restriction map of
weights stored with each pair here and shared with the coset fixtures.
"""

import collections
import itertools
import math
from fractions import Fraction
from functools import lru_cache

from . import lie, ratlinalg
from .errors import UnknownTagError

_F = Fraction


class CasimirContext(collections.namedtuple(
        "CasimirContext", "root_data dual denominator gram_int linear")):
    """A form on a root datum: ``dual`` is gram^-1, the form on roots, and
    the Gram matrix on fundamental-weight coordinates is kept as integers:
    ``denominator`` is its common denominator D, ``gram_int`` is D * gram
    and ``linear`` is 2D * gram * delta, so that D * Cas(w) = q(w) =
    w.gram_int.w + linear.w."""

    __slots__ = ()

    def scaled_casimir(self, w):
        """q(w) = D * Cas(w), in integers."""
        return sum(
            a * (sum(g * b for g, b in zip(row, w)) + c)
            for a, row, c in zip(w, self.gram_int, self.linear)
        )


# tag -> (algebra, ambient algebra, restriction of weights from the ambient
# algebra with rows indexed by the algebra's coordinates, or None for the
# ambient algebra itself).
_PAIRS = {
    "su3-in-g2": (lie.A2, lie.G2, ((1, 1), (0, 1))),
    "g2": (lie.G2, lie.G2, None),
    "su2-diagonal-in-su2cubed": (lie.A1, lie.A1_CUBED, ((1, 1, 1),)),
    "su2cubed": (lie.A1_CUBED, lie.A1_CUBED, None),
    "sp1u1-in-sp2": (lie.A1_U1, lie.C2, ((1, 1), (1, 0))),
    "sp2": (lie.C2, lie.C2, None),
    "u1u1-in-su3": (lie.U1_U1, lie.A2, ((1, 0), (0, 1))),
    "su3-ambient": (lie.A2, lie.A2, None),
}

PAIR_TAGS = tuple(sorted(_PAIRS))


def _pair_record(pair):
    try:
        return _PAIRS[pair]
    except KeyError:
        raise UnknownTagError(
            "unknown algebra pair %r (known: %s)" % (pair, ", ".join(PAIR_TAGS))
        ) from None


def restriction(pair):
    """The pair's restriction map of weights from its ambient algebra (None
    for an ambient algebra itself)."""
    return _pair_record(pair)[2]


def _dual_gram(root_data):
    """gram^-1 of B = -(1/12) Killing on a semisimple algebra, one block
    E^-1 C / s per simple factor with Cartan matrix C and symmetrizer E:
    the factor's form (alpha_i, alpha_j) = C_ij e_j has weight Gram matrix
    E C^-T, and s = -12 / (theta, theta + 2 delta), theta the highest root,
    gives the adjoint Casimir -12."""
    n = root_data.num_coords
    dual = [[_F(0)] * n for _ in range(n)]
    for tag, start, _ in root_data.blocks:
        st = lie.SIMPLE_TYPES[tag]
        theta = st.positive_roots[-1]
        cas = st.root_pairing([x + 2 for x in st.root_fund(theta)], theta)
        for i, (row, e) in enumerate(zip(st.cartan, st.symmetrizer)):
            for j, c in enumerate(row):
                dual[start + i][start + j] = _F(-c * cas, 12 * e)
    return dual


@lru_cache(maxsize=None)
def context(pair):
    """The pair's form and its integer data.  A subalgebra's form is B
    restricted along R: gram^-1 = R gram_ambient^-1 R^T."""
    root_data, ambient, r = _pair_record(pair)
    dual = _dual_gram(ambient)
    if r is not None:
        dual = ratlinalg.mat_mul(ratlinalg.mat_mul(r, dual), ratlinalg.transpose(r))
    delta = root_data.delta()
    d, gram_int = ratlinalg.integer_scaled(ratlinalg.inverse(dual))
    gram_int = tuple(map(tuple, gram_int))
    linear = tuple(2 * sum(g * c for g, c in zip(row, delta)) for row in gram_int)
    return CasimirContext(root_data, tuple(map(tuple, dual)), d, gram_int, linear)


def casimir_eigenvalue(ctx, hw):
    """Exact Casimir eigenvalue B(hw, hw) + 2 B(hw, delta) on the irreducible
    with highest weight ``hw``."""
    ctx.root_data.require_dominant(hw)
    return _F(ctx.scaled_casimir(hw), ctx.denominator)


def irreps_with_casimir(ctx, value):
    """All dominant weights whose Casimir eigenvalue equals ``value``, sorted.

    Completeness: -Cas(w) = q(w) + l(w) with q the positive definite form
    -B and l(w) = -2B(w, delta) >= 0 on dominant weights (delta has no
    charge components), so any solution satisfies q(w) <= |value|, hence
    w_i^2 <= |value| * (q^-1)_ii exactly.  The box's first n - 1
    coordinates h are enumerated; D * Cas(h, x) = a x^2 + b x + c is an
    integer quadratic in the last coordinate x, with a = gram_int[-1][-1],
    whose integer roots are solved for exactly (a perfect-square
    discriminant, an exact division by 2a, x >= 0 unless x is a U(1)
    charge).  Every dominant solution lies in the box, so these are
    exactly the box's solutions.
    """
    value = _F(value)
    target = value * ctx.denominator
    if value > 0 or target.denominator != 1:
        return []
    target = target.numerator
    simple = ctx.root_data.simple_coords
    ranges = []
    for i, row in enumerate(ctx.dual[:-1]):
        # w_i^2 <= target * dual_ii / D; floor(sqrt(x)) = isqrt(floor(x)) for x >= 0
        bound = math.isqrt(target * row[i].numerator // (ctx.denominator * row[i].denominator))
        ranges.append(range(0, bound + 1) if i in simple else range(-bound, bound + 1))
    last_row = ctx.gram_int[-1]
    two_a = 2 * last_row[-1]
    charge_last = ctx.root_data.num_coords - 1 not in simple
    found = []
    for head in itertools.product(*ranges):
        b = 2 * sum(g * h for g, h in zip(last_row, head)) + ctx.linear[-1]
        disc = b * b - 2 * two_a * (ctx.scaled_casimir(head + (0,)) - target)
        root = math.isqrt(max(disc, 0))
        if root * root != disc:
            continue
        for num in {-b - root, -b + root}:
            x, rest = divmod(num, two_a)
            if not rest and (x >= 0 or charge_last):
                found.append(head + (x,))
    return sorted(found)
