"""Exact linear algebra over the rationals.

Matrices are sequences of sequences of ``Fraction`` (or int); every routine
returns fresh ``list`` structures and never mutates its input.  Sizes in this
package never exceed 15x15, so plain Gauss-Jordan elimination, fraction-free
on integer matrices, is entirely adequate.  Eigenvalues come from minimal
polynomials of basis vectors (:func:`eigenspace_dimensions`); no
characteristic polynomial is formed.
"""

import math
from fractions import Fraction

from .errors import SpectrumError


def common_denominator(values):
    """Least common multiple of the denominators of rationals or ints."""
    return math.lcm(*(x.denominator for x in values))


def integer_scaled(mat):
    """(d, d * mat) for the common denominator d of the entries, so that
    d * mat is an integer matrix."""
    d = common_denominator(x for row in mat for x in row)
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in mat]


def primitive(v):
    """The primitive integer vector on the ray of a nonzero rational v."""
    _, (ints,) = integer_scaled([v])
    g = math.gcd(*ints)
    return [x // g for x in ints]


def _frac_json(x):
    """The package's one JSON form of a rational: {"num": int, "den": int}."""
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def minus_scalar(a, c):
    """a - c * 1 for a square matrix a."""
    return [[x - c if i == k else x for k, x in enumerate(row)]
            for i, row in enumerate(a)]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _integer_echelon(mat, full):
    """(rows, pivot columns) of fraction-free row reduction of the integer
    matrix d * mat, every combined row divided by the gcd of its entries to
    keep them small.  With ``full`` the entries above each pivot are
    cleared too, so that nonzero row r divided by its pivot entry is row r
    of the reduced row echelon form of mat."""
    _, a = integer_scaled(mat)
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r][c]
        for i in range(0 if full else r + 1, len(a)):
            f = a[i][c]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(a[i], a[r])]
                g = math.gcd(*row) or 1
                a[i] = [x // g for x in row]
        pivots.append(c)
        if len(pivots) == len(a):
            break
    return a[:len(pivots)], pivots


def rank(mat):
    """Rank, by integer row reduction."""
    return len(_integer_echelon(mat, full=False)[1])


def nullspace(mat):
    """Basis of the right kernel, one vector per free column c: e_c minus
    column c of the reduced row echelon form on the pivot coordinates.
    Integer Gauss-Jordan elimination gives that form's rows over their
    pivot entries."""
    rows, pivots = _integer_echelon(mat, full=True)
    ncols = len(mat[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(v)
    return basis


def inverse(mat):
    n = len(mat)
    rows, pivots = _integer_echelon(
        [list(row) + [int(i == k) for k in range(n)] for i, row in enumerate(mat)],
        full=True,
    )
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(rows)]


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


def _krylov_polynomial(a, v):
    """Coefficients, lowest first, of the monic minimal polynomial of the
    vector v under a: the first linear relation among v, a v, a^2 v, ...,
    read off the kernel of the matrix with those columns."""
    powers = [v]
    while True:
        powers.append(mat_vec(a, powers[-1]))
        kernel = nullspace(transpose(powers))
        if kernel:
            return kernel[0]


def eigenspace_dimensions(a, d=1):
    """{eigenvalue: eigenspace dimension} of the rational matrix a / d, for a
    square integer matrix a and an integer d > 0, when it is diagonalizable
    over the rationals; raises ``SpectrumError`` when not.

    The minimal polynomial of e_i under a divides that of a, so its roots
    over d are eigenvalues: an irrational one refuses the matrix, and each
    new one lam gets its dimension from the integer :func:`rank` of
    a - d lam.  The search over e_1, e_2, ... stops once the dimensions add
    up to n.  The e_i's polynomials have the minimal polynomial of a as
    least common multiple, so running out of basis vectors first means an
    irrational eigenvalue or a defective one: the verdict of comparing
    geometric with algebraic multiplicities, without a characteristic
    polynomial.
    """
    n = len(a)
    dims = {}
    for i in range(n):
        if sum(dims.values()) == n:
            break
        c = _krylov_polynomial(a, [int(k == i) for k in range(n)])
        # the polynomial in s = t / d, with coprime integer coefficients
        poly = primitive([x * d**j for j, x in enumerate(c)])
        for lam in rational_roots(poly[::-1]):
            if lam not in dims:
                # d lam, a rational root of a monic integer polynomial, is an int
                dims[lam] = n - rank(minus_scalar(a, (d * lam).numerator))
    if sum(dims.values()) != n:
        raise SpectrumError("not diagonalizable over the rationals: eigenspace"
                            " dimensions %s" % sorted(dims.items()))
    return dims
