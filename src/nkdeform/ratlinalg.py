"""Exact linear algebra over the rationals.

Matrices are sequences of sequences of ``Fraction`` (or int); every routine
returns fresh ``list`` structures and never mutates its input.  Sizes in this
package never exceed 15x15, so plain Gauss-Jordan elimination and
Faddeev-LeVerrier are entirely adequate.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ConsistencyError, SpectrumError


def _rows(mat):
    return [[Fraction(x) for x in row] for row in mat]


def common_denominator(values):
    """Least common multiple of the denominators of rationals or ints."""
    return math.lcm(*(x.denominator for x in values))


def integer_scaled(mat):
    """(d, d * mat) for the common denominator d of the entries, so that
    d * mat is an integer matrix."""
    d = common_denominator(x for row in mat for x in row)
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in mat]


def _frac_json(x):
    """The package's one JSON form of a rational: {"num": int, "den": int}."""
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def rref(mat):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    a = _rows(mat)
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
        inv = Fraction(1) / a[r][c]
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


def rank(mat):
    """Rank, by row reduction of the integer matrix d * mat; every reduced
    row is divided by the gcd of its entries to keep them small."""
    _, a = integer_scaled(mat)
    r = 0
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r][c]
        for i in range(r + 1, len(a)):
            f = a[i][c]
            if f:
                row = [p * x - f * y for x, y in zip(a[i], a[r])]
                g = math.gcd(*row) or 1
                a[i] = [x // g for x in row]
        r += 1
    return r


def nullspace(mat):
    """Basis of the right kernel, one vector per free column."""
    a, pivots = rref(mat)
    ncols = len(mat[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def inverse(mat):
    n = len(mat)
    a = [row + ident_row for row, ident_row in zip(_rows(mat), identity(n))]
    a, pivots = rref(a)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in a]


def charpoly(mat):
    """Monic characteristic polynomial coefficients [1, c1, ..., cn].

    Faddeev-LeVerrier recursion: p(t) = t^n + c1 t^(n-1) + ... + cn.  It
    runs on the integer matrix A = d M, d the common denominator of the
    entries, whose coefficients are d^k c_k and whose divisions by k are
    exact.
    """
    n = len(mat)
    d, a = integer_scaled(mat)
    coeffs = [Fraction(1)]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        tr = trace(m)
        ck, remainder = divmod(-tr, k)
        if remainder:
            raise ConsistencyError(
                "Faddeev-LeVerrier trace %d is not divisible by %d" % (tr, k)
            )
        coeffs.append(Fraction(ck, d**k))
        for i in range(n):
            m[i][i] += ck
    return coeffs


def _divisors(n):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def rational_roots(coeffs):
    """All roots (with multiplicity) of a rational polynomial.

    Returns a dict ``{root: multiplicity}``.  Raises ``SpectrumError`` when
    the polynomial does not split over the rationals.
    """
    coeffs = [Fraction(c) for c in coeffs]
    denom_lcm = common_denominator(coeffs)
    ipoly = [int(c * denom_lcm) for c in coeffs]

    roots = {}
    # Peel zero roots first so the rational-root candidates stay finite.
    while len(ipoly) > 1 and ipoly[-1] == 0:
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
        ipoly = ipoly[:-1]

    def synth_div(poly, r):
        out = [Fraction(poly[0])]
        for c in poly[1:]:
            out.append(c + out[-1] * r)
        return out[:-1], out[-1]

    while len(ipoly) > 1:
        candidates = (
            Fraction(sign * p, q)
            for p in _divisors(ipoly[-1])
            for q in _divisors(ipoly[0])
            for sign in (1, -1)
        )
        root = next((r for r in candidates if synth_div(ipoly, r)[1] == 0), None)
        if root is None:
            raise SpectrumError(
                "polynomial has an irrational factor of degree %d" % (len(ipoly) - 1)
            )
        roots[root] = roots.get(root, 0) + 1
        quot = synth_div(ipoly, root)[0]
        scale = common_denominator(quot)
        ipoly = [int(c * scale) for c in quot]
    return roots
