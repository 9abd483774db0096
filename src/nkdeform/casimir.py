"""Invariant bilinear forms and quadratic Casimir eigenvalues.

The normalized invariant form B(X, Y) = -(1/12) Tr_g(ad X ad Y) depends on
the *ambient* algebra g over which the trace runs, not just on the abstract
algebra carrying the representation: su(3) as a subalgebra of g2 and su(3)
as an isometry algebra differ by a factor 4/3.  Each supported (algebra,
ambient) pair therefore gets its own tag, and the tag selects the Gram
matrix of B on fundamental-weight coordinates.

For every tag the Gram matrix can be recomputed from first principles by
tracing the squared Cartan action over the stored decomposition of g into
irreducibles of the subalgebra (:func:`verify_form_by_trace`); disagreement
with the stored matrix is a fixture bug and raises ``ConsistencyError``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import lie, ratlinalg
from .errors import ConsistencyError, UnknownTagError

_F = Fraction


@dataclass(frozen=True)
class BilinearForm:
    """Gram matrix of the invariant form on fundamental-weight coordinates."""

    gram: tuple
    ambient: str

    def __post_init__(self):
        n = len(self.gram)
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ConsistencyError("form Gram matrix is not symmetric")
        for k, minor in enumerate(
            ratlinalg.leading_principal_minors([list(r) for r in self.gram])
        ):
            if (minor > 0) != (k % 2 == 1) or minor == 0:
                raise ConsistencyError(
                    "form Gram matrix is not negative definite"
                )


@dataclass(frozen=True)
class CasimirContext:
    """A form on a root datum, with its integer form: ``denominator`` is the
    common denominator D of the Gram matrix, ``gram_int`` is D * gram and
    ``linear`` is 2D * gram * delta, so that D * Cas(w) = q(w) =
    w.gram_int.w + linear.w.  ``box_diagonal`` is the diagonal of (-gram)^-1,
    which bounds :func:`irreps_with_casimir`."""

    root_data: lie.RootData
    form: BilinearForm
    denominator: int
    gram_int: tuple
    linear: tuple
    box_diagonal: tuple

    def scaled_casimir(self, w):
        """q(w) = D * Cas(w), in integers."""
        return sum(
            a * (sum(g * b for g, b in zip(row, w)) + c)
            for a, row, c in zip(w, self.gram_int, self.linear)
        )


def _gram(rows):
    return tuple(tuple(_F(x) for x in row) for row in rows)


@dataclass(frozen=True)
class _PairData:
    root_data: lie.RootData
    gram: tuple
    ambient: str
    # decomposition of the ambient algebra as a representation of this one
    ambient_branching: tuple
    # scale from the weight-trace matrix T to the Gram matrix on the basis
    # the fixture's source uses (negative for a dual Cartan basis, positive
    # for a compact real basis, with an extra 1/4 for su(2) rotation bases)
    basis_scale: Fraction


_PAIRS = {
    "su3-in-g2": _PairData(
        lie.A2,
        _gram([[-1, _F(-1, 2)], [_F(-1, 2), -1]]),
        "g2",
        (((1, 1), 1), ((1, 0), 1), ((0, 1), 1)),
        _F(-1, 12),
    ),
    "g2": _PairData(
        lie.G2,
        _gram([[-1, _F(-3, 2)], [_F(-3, 2), -3]]),
        "g2",
        (((0, 1), 1),),
        _F(-1, 12),
    ),
    "su2-diagonal-in-su2cubed": _PairData(
        lie.A1,
        _gram([[_F(-1, 2)]]),
        "su2cubed",
        (((2,), 3),),
        _F(1, 48),
    ),
    "su2cubed": _PairData(
        lie.A1_CUBED,
        _gram(
            [
                [_F(-3, 2), 0, 0],
                [0, _F(-3, 2), 0],
                [0, 0, _F(-3, 2)],
            ]
        ),
        "su2cubed",
        (((2, 0, 0), 1), ((0, 2, 0), 1), ((0, 0, 2), 1)),
        _F(1, 48),
    ),
    "sp1u1-in-sp2": _PairData(
        lie.A1_U1,
        _gram([[-1, 0], [0, -1]]),
        "sp2",
        (
            ((2, 0), 1),
            ((0, 0), 1),
            ((1, 1), 1),
            ((1, -1), 1),
            ((0, 2), 1),
            ((0, -2), 1),
        ),
        _F(1, 12),
    ),
    "sp2": _PairData(
        lie.C2,
        _gram([[-2, -1], [-1, -1]]),
        "sp2",
        (((0, 2), 1),),
        _F(-1, 12),
    ),
    "u1u1-in-su3": _PairData(
        lie.U1_U1,
        _gram([[_F(-4, 3), _F(-2, 3)], [_F(-2, 3), _F(-4, 3)]]),
        "su3",
        (
            ((0, 0), 2),
            ((2, -1), 1),
            ((-1, 2), 1),
            ((-1, -1), 1),
            ((-2, 1), 1),
            ((1, -2), 1),
            ((1, 1), 1),
        ),
        _F(1, 12),
    ),
    "su3-ambient": _PairData(
        lie.A2,
        _gram([[_F(-4, 3), _F(-2, 3)], [_F(-2, 3), _F(-4, 3)]]),
        "su3",
        (((1, 1), 1),),
        _F(-1, 12),
    ),
}

PAIR_TAGS = tuple(sorted(_PAIRS))


def _pair_record(pair):
    try:
        return _PAIRS[pair]
    except KeyError:
        raise UnknownTagError(
            "unknown algebra pair %r (known: %s)" % (pair, ", ".join(PAIR_TAGS))
        ) from None


def bilinear_form(pair):
    rec = _pair_record(pair)
    return BilinearForm(rec.gram, rec.ambient)


@lru_cache(maxsize=None)
def context(pair):
    rec = _pair_record(pair)
    delta = rec.root_data.delta()
    d, gram_int = ratlinalg.integer_scaled(rec.gram)
    gram_int = tuple(map(tuple, gram_int))
    linear = tuple(2 * sum(g * c for g, c in zip(row, delta)) for row in gram_int)
    minv = ratlinalg.inverse([[-x for x in row] for row in rec.gram])
    return CasimirContext(
        rec.root_data, bilinear_form(pair), d, gram_int, linear,
        tuple(minv[i][i] for i in range(len(minv))),
    )


def casimir_eigenvalue(ctx, hw):
    """Exact Casimir eigenvalue B(hw, hw) + 2 B(hw, delta) on the irreducible
    with highest weight ``hw``."""
    ctx.root_data.require_dominant(hw)
    return _F(ctx.scaled_casimir(hw), ctx.denominator)


def _weight_trace_matrix(pair):
    """T_ij = sum of w_i * w_j over all weights of g viewed through the pair."""
    rec = _pair_record(pair)
    n = rec.root_data.num_coords
    t = [[_F(0)] * n for _ in range(n)]
    for hw, mult in rec.ambient_branching:
        char = lie.weight_multiplicities(rec.root_data, hw)
        for w, m in char.weights.items():
            for i in range(n):
                for j in range(n):
                    t[i][j] += mult * m * w[i] * w[j]
    return t


@dataclass(frozen=True)
class GeneratorBasisForm:
    """Gram matrix of B on a generator basis of the subalgebra.

    Unlike :class:`BilinearForm` this carries no definiteness constraint:
    on a compact real basis B is positive definite, on a dual Cartan basis
    negative definite.
    """

    gram: tuple
    ambient: str


def verify_form_by_trace(pair):
    """Recompute the form from the trace over the stored branching of g.

    Returns the Gram matrix on the generator basis the fixture's source
    states it in (dual Cartan basis or compact real basis).  Before
    returning, checks that the trace-derived form agrees with
    :func:`bilinear_form` after the change to fundamental-weight
    coordinates, i.e. that gram == -12 * T^(-1).
    """
    rec = _pair_record(pair)
    t = _weight_trace_matrix(pair)
    recovered = ratlinalg.mat_scale(ratlinalg.inverse(t), -12)
    stored = [list(row) for row in rec.gram]
    if recovered != stored:
        raise ConsistencyError(
            "trace-recomputed form for %r is %s, fixture stores %s"
            % (pair, recovered, stored)
        )
    return GeneratorBasisForm(
        _gram(ratlinalg.mat_scale(t, rec.basis_scale)), rec.ambient
    )


def irreps_with_casimir(ctx, value):
    """All dominant weights whose Casimir eigenvalue equals ``value``.

    Completeness: -Cas(w) = q(w) + l(w) with q the positive definite form
    -B and l(w) = -2B(w, delta) >= 0 on dominant weights (delta has no
    charge components), so any solution satisfies q(w) <= |value|, hence
    w_i^2 <= |value| * (q^-1)_ii exactly.  The box cut out by these bounds
    is enumerated and filtered.
    """
    value = _F(value)
    target = value * ctx.denominator
    if value > 0 or target.denominator != 1:
        return []
    n = ctx.root_data.num_coords
    simple = set(ctx.root_data.simple_coords)
    bounds = []
    for i in range(n):
        # floor(sqrt(x)) = isqrt(floor(x)) for rational x >= 0
        limit = -value * ctx.box_diagonal[i]
        bounds.append(math.isqrt(limit.numerator // limit.denominator))
    ranges = [
        range(0, bounds[i] + 1) if i in simple else range(-bounds[i], bounds[i] + 1)
        for i in range(n)
    ]
    target = int(target)
    return sorted(
        w
        for w in itertools.product(*ranges)
        if ctx.scaled_casimir(w) == target
    )
