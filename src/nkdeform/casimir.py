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
        "CasimirContext",
        "root_data dual denominator gram_int linear box disc_quad disc_linear")):
    """A form on a root datum: ``dual`` is gram^-1, the form on roots, and
    the Gram matrix on fundamental-weight coordinates is kept as integers:
    ``denominator`` is its common denominator D, ``gram_int`` is D * gram
    and ``linear`` is 2D * gram * delta, so that D * Cas(w) = q(w) =
    w.gram_int.w + linear.w.  The rest serves :func:`irreps_with_casimir`
    on the coordinates h before the last: ``box`` holds (p, r, is a U(1)
    charge) with p / r = dual_ii / D per coordinate, and ``disc_quad`` M and
    ``disc_linear`` m give the discriminant hMh + m.h + l^2 + 4at."""

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
    try:
        root_data, ambient, r = _PAIRS[pair]
    except KeyError:
        raise UnknownTagError(
            "unknown algebra pair %r (known: %s)" % (pair, ", ".join(PAIR_TAGS))
        ) from None
    dual = _dual_gram(ambient)
    if r is not None:
        dual = ratlinalg.mat_mul(ratlinalg.mat_mul(r, dual), ratlinalg.transpose(r))
    delta = root_data.delta()
    d, gram_int = ratlinalg.integer_scaled(ratlinalg.inverse(dual))
    gram_int = tuple(map(tuple, gram_int))
    linear = tuple(2 * sum(g * c for g, c in zip(row, delta)) for row in gram_int)
    # q(h, x) = a x^2 + b(h) x + c(h) with b(h) = 2 g.h + l and
    # c(h) = h G_hh h + L_h.h, so that b^2 - 4a(c - t) = hMh + m.h + l^2 + 4at.
    *head_rows, last = gram_int
    a, g, l = last[-1], last[:-1], linear[-1]
    disc_quad = tuple(tuple(4 * (gi * gj - a * row[j]) for j, gj in enumerate(g))
                      for gi, row in zip(g, head_rows))
    disc_linear = tuple(4 * (l * gi - a * li) for gi, li in zip(g, linear))
    box = tuple((dual[i][i].numerator, d * dual[i][i].denominator,
                 i not in root_data.simple_coords) for i in range(len(g)))
    return CasimirContext(root_data, tuple(map(tuple, dual)), d, gram_int, linear,
                          box, disc_quad, disc_linear)


def casimir_eigenvalue(ctx, hw):
    """Exact Casimir eigenvalue B(hw, hw) + 2 B(hw, delta) on the irreducible
    with highest weight ``hw``."""
    ctx.root_data.require_dominant(hw)
    return _F(ctx.scaled_casimir(hw), ctx.denominator)


def irreps_with_casimir(ctx, value):
    """All dominant weights whose Casimir eigenvalue equals ``value``, an
    ``int`` or a ``Fraction``, sorted; any other type raises ``TypeError``.

    Completeness: -Cas(w) = q(w) + l(w) with q the positive definite form
    -B and l(w) = -2B(w, delta) >= 0 on dominant weights (delta has no
    charge components), so any solution satisfies q(w) <= |value|, hence
    w_i^2 <= |value| * (q^-1)_ii exactly.  The box's first n - 1
    coordinates h are enumerated; D * Cas(h, x) = a x^2 + b(h) x + c(h) is
    an integer quadratic in the last coordinate x, with a = gram_int[-1][-1],
    whose integer roots are solved for exactly: its discriminant
    b(h)^2 - 4a(c(h) - t), t = D * value, is the integer quadratic form of
    ``ctx.disc_quad`` and ``ctx.disc_linear`` in h, and only where it is a
    perfect square is b(h) formed, divided exactly by 2a and kept if
    x >= 0 or x is a U(1) charge.  Every dominant solution lies in the box,
    so these are exactly the box's solutions.
    """
    if type(value) is bool or not isinstance(value, (int, _F)):
        raise TypeError("Casimir value %r is not an int or a Fraction" % (value,))
    target, rest = divmod(value.numerator * ctx.denominator, value.denominator)
    if target > 0 or rest:
        return []
    ranges = []
    for p, r, charge in ctx.box:
        # w_i^2 <= target * p / r; floor(sqrt(x)) = isqrt(floor(x)) for x >= 0
        bound = math.isqrt(target * p // r)
        ranges.append(range(-bound, bound + 1) if charge else range(bound + 1))
    g, l = ctx.gram_int[-1], ctx.linear[-1]
    two_a = 2 * g[-1]
    const = l * l + 2 * two_a * target
    charge_last = ctx.root_data.num_coords - 1 not in ctx.root_data.simple_coords
    quad, lin = ctx.disc_quad, ctx.disc_linear
    found = []
    for head in itertools.product(*ranges):
        disc = const + sum(h * (sum(q * k for q, k in zip(row, head)) + m)
                           for h, row, m in zip(head, quad, lin))
        if disc < 0:
            continue
        root = math.isqrt(disc)
        if root * root != disc:
            continue
        b = 2 * sum(gi * h for gi, h in zip(g, head)) + l
        for num in {-b - root, -b + root}:
            x, rest = divmod(num, two_a)
            if not rest and (x >= 0 or charge_last):
                found.append(head + (x,))
    return sorted(found)
