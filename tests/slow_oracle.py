"""The package's former slow routes and hand-entered tables, kept as
references for what it now computes or derives.

* :func:`peel_off_by_subtraction` strips the character of the irreducible
  of a highest remaining weight until nothing is left; the package reads
  every coefficient off one signed Weyl sum.
* :func:`tensor_by_characters` multiplies the two characters and peels off
  irreducibles by subtraction; the package uses the Brauer-Klimyk rule.
* :func:`casimir` is B(hw, hw) + 2 B(hw, delta) in ``Fraction`` arithmetic
  on the hand-entered Gram matrix of :data:`PAIRS`; the package derives the
  Gram matrix from the Cartan matrices and uses the integer form D * Cas.
* :func:`irreps_with_casimir` scans the whole definiteness box and keeps
  the weights whose :func:`casimir` is the value; the package enumerates
  all coordinates but the last and solves for that one.
* :func:`weyl_dimension` is the Weyl product formula in ``Fraction``
  arithmetic on the hand-entered positive roots and weight Gram matrices of
  :data:`ROOT_TABLES`; the package derives the roots and uses integer
  pairings (w, alpha) of the form it derives.
* :func:`character_by_alpha_strings` closes the whole weight set under
  alpha-strings and runs Freudenthal's recursion on every weight, on the
  hand-entered Gram matrices of :data:`ROOT_TABLES`; the
  package closes only the dominant weights and spreads their
  multiplicities over the Weyl orbits.
* :func:`verify_form_by_trace` recomputes each pair's form as a trace over
  the hand-entered decomposition of the ambient algebra.
* :func:`dominant_weights_in_box` lists every dominant weight of a box,
  for tests that sweep small highest weights.
* :func:`det` and :func:`leading_principal_minors`, by Fraction
  elimination, are the references for ``clifford_oracle.charpoly`` and
  for the definiteness of the derived forms.
* :func:`rref`, Fraction Gauss-Jordan elimination, is the reference for
  the integer elimination of ``ratlinalg.integer_nullspace`` and
  ``inverse``, and its pivots give the ranks the tests check;
  :func:`nullspace` reads the kernel basis off it.
* :func:`abelian_rigidity_check` is the abstract's "abelian instantons
  are rigid": the deformation count on the trivial-charge summands of the
  H gauge, which the package does not single out.

The tests compare each pair exactly.
"""

import itertools
import math
from fractions import Fraction as F

from nkdeform import casimir as _casimir, decompose, deform, lie, ratlinalg
from nkdeform.errors import ConsistencyError, NotACharacterError

from weyl_oracle import CARTAN


def _gram(rows):
    return tuple(tuple(F(x) for x in row) for row in rows)


def package_gram(tag):
    """The Gram matrix the package derives for a pair, read off its integer
    form: ``gram_int`` over ``denominator``."""
    ctx = _casimir.context(tag)
    return tuple(tuple(F(x, ctx.denominator) for x in row) for row in ctx.gram_int)


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
    return list(itertools.product(*ranges))


# Simple type -> (positive roots in simple-root coordinates, a Weyl-invariant
# positive definite form on fundamental-weight coordinates).
ROOT_TABLES = {
    "A1": (((1,),), _gram([[1]])),
    "A2": (((1, 0), (0, 1), (1, 1)), _gram([[1, F(1, 2)], [F(1, 2), 1]])),
    "C2": (((1, 0), (0, 1), (1, 1), (1, 2)), _gram([[2, 1], [1, 1]])),
    "G2": (
        ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)),
        _gram([[1, F(3, 2)], [F(3, 2), 3]]),
    ),
}

# Pair tag -> (factors, Gram matrix of B on fundamental-weight coordinates,
# decomposition of the ambient algebra as a representation of the pair's
# algebra, scale from the weight-trace matrix T to the Gram matrix on the
# generator basis the form is stated in: negative for a dual Cartan basis,
# positive for a compact real basis, with an extra 1/4 for su(2) rotation
# bases).
PAIRS = {
    "su3-in-g2": (
        ("A2",),
        _gram([[-1, F(-1, 2)], [F(-1, 2), -1]]),
        (((1, 1), 1), ((1, 0), 1), ((0, 1), 1)),
        F(-1, 12),
    ),
    "g2": (
        ("G2",),
        _gram([[-1, F(-3, 2)], [F(-3, 2), -3]]),
        (((0, 1), 1),),
        F(-1, 12),
    ),
    "su2-diagonal-in-su2cubed": (
        ("A1",),
        _gram([[F(-1, 2)]]),
        (((2,), 3),),
        F(1, 48),
    ),
    "su2cubed": (
        ("A1", "A1", "A1"),
        _gram([[F(-3, 2), 0, 0], [0, F(-3, 2), 0], [0, 0, F(-3, 2)]]),
        (((2, 0, 0), 1), ((0, 2, 0), 1), ((0, 0, 2), 1)),
        F(1, 48),
    ),
    "sp1u1-in-sp2": (
        ("A1", lie.U1),
        _gram([[-1, 0], [0, -1]]),
        (
            ((2, 0), 1),
            ((0, 0), 1),
            ((1, 1), 1),
            ((1, -1), 1),
            ((0, 2), 1),
            ((0, -2), 1),
        ),
        F(1, 12),
    ),
    "sp2": (
        ("C2",),
        _gram([[-2, -1], [-1, -1]]),
        (((0, 2), 1),),
        F(-1, 12),
    ),
    "u1u1-in-su3": (
        (lie.U1, lie.U1),
        _gram([[F(-4, 3), F(-2, 3)], [F(-2, 3), F(-4, 3)]]),
        (
            ((0, 0), 2),
            ((2, -1), 1),
            ((-1, 2), 1),
            ((-1, -1), 1),
            ((-2, 1), 1),
            ((1, -2), 1),
            ((1, 1), 1),
        ),
        F(1, 12),
    ),
    "su3-ambient": (
        ("A2",),
        _gram([[F(-4, 3), F(-2, 3)], [F(-2, 3), F(-4, 3)]]),
        (((1, 1), 1),),
        F(-1, 12),
    ),
}


def ip(gram, u, v):
    """u.gram.v in Fraction arithmetic."""
    return sum(a * sum(g * b for g, b in zip(row, v)) for a, row in zip(u, gram))


def root_fund(tag, root):
    """A root in simple-root coordinates, in fundamental coordinates."""
    cartan = CARTAN[tag]
    return tuple(
        sum(root[i] * cartan[i][j] for i in range(len(root)))
        for j in range(len(root))
    )


def casimir(tag, hw):
    """B(hw, hw) + 2 B(hw, delta) on the pair's hand-entered Gram matrix."""
    factors, gram, _, _ = PAIRS[tag]
    delta = []
    for f in factors:
        delta += [0] if f == lie.U1 else [1] * len(CARTAN[f])
    return ip(gram, hw, [a + 2 * d for a, d in zip(hw, delta)])


def irreps_with_casimir(tag, value):
    """All dominant weights whose :func:`casimir` is ``value``, sorted: every
    weight of the box w_i^2 <= |value| * (-gram^-1)_ii, which holds every
    dominant solution (see ``casimir.irreps_with_casimir``), is tried."""
    value = F(value)
    if value > 0:
        return []
    factors, gram, _, _ = PAIRS[tag]
    root_data = lie.RootData(factors)
    dual = ratlinalg.inverse(gram)
    simple = root_data.simple_coords
    ranges = []
    for i in range(root_data.num_coords):
        limit = value * dual[i][i]
        bound = math.isqrt(limit.numerator // limit.denominator)
        ranges.append(range(0, bound + 1) if i in simple else range(-bound, bound + 1))
    return sorted(w for w in itertools.product(*ranges) if casimir(tag, w) == value)


def weyl_dimension(root_data, hw):
    """prod (hw + delta, alpha) / (delta, alpha) over the positive roots of
    every simple factor, as a Fraction."""
    dim = F(1)
    for tag, start, stop in root_data.blocks:
        if tag == lie.U1:
            continue
        roots, gram = ROOT_TABLES[tag]
        delta = (1,) * len(roots[0])
        shifted = tuple(a + 1 for a in hw[start:stop])
        for r in roots:
            a = root_fund(tag, r)
            dim *= ip(gram, shifted, a) / ip(gram, delta, a)
    return dim


def character_by_alpha_strings(tag, hw):
    """Weight multiplicities of V(hw) of one simple factor.  The weights are
    the smallest set holding hw and every alpha-string w, w - alpha, ...,
    w - <w, alpha^vee> alpha through its members (Humphreys, section 13.4,
    Lemma B), with <w, alpha^vee> = 2 (w, alpha) / (alpha, alpha) on the
    table's Gram matrix; Freudenthal's recursion then runs on them all, in
    decreasing height.  The Gram matrix is scaled to integers first, which
    changes neither ratio."""
    roots, gram = ROOT_TABLES[tag]
    scale = ratlinalg.common_denominator(x for row in gram for x in row)
    gram = [[int(x * scale) for x in row] for row in gram]
    fund = [(r, root_fund(tag, r)) for r in roots]
    dim = weyl_dimension(lie.RootData((tag,)), hw)
    offsets = {hw: (0,) * len(hw)}
    frontier = [hw]
    while frontier:
        if len(offsets) > dim:
            raise ConsistencyError("%s %s: more than %s weights" % (tag, hw, dim))
        nxt = []
        for w in frontier:
            for r, a in fund:
                p, rest = divmod(2 * ip(gram, w, a), ip(gram, a, a))
                if rest:
                    raise ConsistencyError("<%s, %s^vee> is not an integer" % (w, r))
                for i in range(1, p + 1) if p > 0 else range(p, 0):
                    w2 = tuple(x - i * y for x, y in zip(w, a))
                    if w2 not in offsets:
                        offsets[w2] = tuple(x + i * y for x, y in zip(offsets[w], r))
                        nxt.append(w2)
        frontier = nxt

    def norm(w):
        shifted = [x + 1 for x in w]
        return ip(gram, shifted, shifted)

    mults = {}
    for mu in sorted(offsets, key=lambda w: sum(offsets[w])):
        acc = 0
        for _, a in fund:
            w2 = tuple(x + y for x, y in zip(mu, a))
            while w2 in mults:  # alpha-strings are unbroken
                acc += mults[w2] * ip(gram, w2, a)
                w2 = tuple(x + y for x, y in zip(w2, a))
        m, rest = (1, 0) if mu == hw else divmod(2 * acc, norm(hw) - norm(mu))
        if rest or m <= 0:
            raise ConsistencyError("multiplicity %d/%d at %s"
                                   % (2 * acc, norm(hw) - norm(mu), mu))
        mults[mu] = m
    return mults


def _weight_trace_matrix(tag):
    """T_ij = sum of w_i * w_j over all weights of g viewed through the pair."""
    factors, _, branching, _ = PAIRS[tag]
    root_data = lie.RootData(factors)
    n = root_data.num_coords
    t = [[F(0)] * n for _ in range(n)]
    for hw, mult in branching:
        char = lie.weight_multiplicities(root_data, hw)
        for w, m in char.weights.items():
            for i in range(n):
                for j in range(n):
                    t[i][j] += mult * m * w[i] * w[j]
    return t


def verify_form_by_trace(tag):
    """Recompute the pair's form from the trace over the branching of g.

    Returns the Gram matrix on the generator basis the form is stated in
    (dual Cartan basis or compact real basis).  Before returning, checks
    that the trace-derived form -12 T^-1 on fundamental-weight coordinates
    equals both the hand-entered matrix and the package's derived one.
    """
    t = _weight_trace_matrix(tag)
    recovered = _gram(ratlinalg.inverse([[-x / 12 for x in row] for row in t]))
    for name, gram in (
        ("the hand-entered table", PAIRS[tag][1]),
        ("the package's form", package_gram(tag)),
    ):
        if recovered != gram:
            raise ConsistencyError(
                "trace-recomputed form for %r is %s, %s has %s"
                % (tag, recovered, name, gram)
            )
    return _gram([[PAIRS[tag][3] * x for x in row] for row in t])


def rref(mat):
    """Reduced row echelon form by Fraction Gauss-Jordan elimination;
    returns (rows, pivot column indices)."""
    a = [[F(x) for x in row] for row in mat]
    if not a:
        return a, []
    nrows, ncols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = F(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def nullspace(mat):
    """The kernel basis read off the Fraction :func:`rref`, one vector per
    free column c: e_c minus column c of the reduced rows."""
    a, pivots = rref(mat)
    ncols = len(mat[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for row, pc in zip(a, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def det(mat):
    a = [[F(x) for x in row] for row in mat]
    n = len(a)
    sign = F(1)
    result = F(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        result *= a[c][c]
        inv = F(1) / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return sign * result


def leading_principal_minors(mat):
    return [det([row[: k + 1] for row in mat[: k + 1]]) for k in range(len(mat))]


def peel_off_by_subtraction(char):
    """Decompose a genuine character into irreducibles by subtraction.

    The remaining weights are taken in decreasing height (the sum of their
    simple-root coordinates, w . u with C u = 1 for each block's Cartan
    matrix C, solved by :func:`rref`; charges count 0), ties broken by the
    lexicographically larger weight.  Subtraction only removes weights, so
    the first of this order still left is maximal: it must be dominant, and
    subtracting its irreducible character must drive no multiplicity
    negative, or :class:`NotACharacterError` is raised.
    """
    rd = char.root_data
    remaining = {w: m for w, m in char.weights.items() if m != 0}
    if any(m < 0 for m in remaining.values()):
        raise NotACharacterError("negative multiplicity in input multiset")
    u = []
    for tag, _, _ in rd.blocks:
        if tag == lie.U1:
            u.append(0)
        else:
            rows, _ = rref([list(row) + [1] for row in CARTAN[tag]])
            u.extend(row[-1] for row in rows)
    order = sorted(
        remaining,
        key=lambda w: (sum(a * b for a, b in zip(u, w)), w),
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
        entries[top] = mult
    return decompose.RepDecomposition(rd, entries)


def tensor_by_characters(root_data, hw1, hw2):
    """(decomposition, dimension of the product character) of V(hw1) x V(hw2),
    from the product of the two characters, peeled off by subtraction."""
    c1 = lie.weight_multiplicities(root_data, hw1)
    c2 = lie.weight_multiplicities(root_data, hw2)
    prod = {}
    for w1, m1 in c1.weights.items():
        for w2, m2 in c2.weights.items():
            w = tuple(a + b for a, b in zip(w1, w2))
            prod[w] = prod.get(w, 0) + m1 * m2
    char = lie.WeightCharacter(root_data, prod)
    return peel_off_by_subtraction(char), sum(char.weights.values())


def abelian_rigidity_check(c):
    """True iff the trivial-charge part of the H-gauge bundle is rigid.

    Runs the package's deformation count on the stored trivial-weight
    summands of the adjoint of H (all of it for an abelian H; vacuously
    true when there are none); the expected result for every coset is an
    empty solution space.
    """
    zero = (0,) * c.h_data.num_coords
    summands = c.gauges[deform.GAUGE_H][1]
    return not deform._complexified_solutions([s for s in summands if s.hw == zero])
