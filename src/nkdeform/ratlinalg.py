"""Exact linear algebra over the rationals.

Matrices are sequences of sequences of ``Fraction`` (or int); every routine
returns fresh ``list`` structures and never mutates its input.  Sizes in this
package never exceed 15x15, so plain Gauss-Jordan elimination, fraction-free
on integer matrices, is entirely adequate.  No eigenvalue search is needed:
the one spectrum the package reads, of contraction with Q on two-forms, is
read off known invariant subspaces (``clifford.q_contraction_spectrum``).
"""

import math
import operator
from fractions import Fraction


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


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(map(operator.mul, row, v)) for row in a]


def dot(u, v):
    return sum(map(operator.mul, u, v))


def _integer_echelon(mat):
    """(rows, pivot columns) of fraction-free Gauss-Jordan elimination of
    the integer matrix d * mat, every combined row divided by the gcd of its
    entries to keep them small: nonzero row r divided by its pivot entry is
    row r of the reduced row echelon form of mat."""
    _, a = integer_scaled(mat)
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r][c]
        for i in range(len(a)):
            f = a[i][c]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(a[i], a[r])]
                g = math.gcd(*row) or 1
                a[i] = [x // g for x in row]
        pivots.append(c)
        if len(pivots) == len(a):
            break
    return a[:len(pivots)], pivots


def integer_nullspace(mat):
    """Basis of the right kernel as pairs (c, w), one per free column c: w
    is the primitive integer vector, with w[c] > 0, on the ray of e_c minus
    column c of the reduced row echelon form on the pivot coordinates.
    Integer Gauss-Jordan elimination gives that form's rows over their
    pivot entries, which their least common multiple clears.  w / w[c] is
    the kernel basis that Fraction elimination reads off."""
    rows, pivots = _integer_echelon(mat)
    den = math.lcm(*(row[pc] for row, pc in zip(rows, pivots)))
    basis = []
    for fc in (c for c in range(len(mat[0])) if c not in pivots):
        w = [0] * len(mat[0])
        w[fc] = den
        for row, pc in zip(rows, pivots):
            w[pc] = -row[fc] * (den // row[pc])
        g = math.gcd(*w)
        basis.append((fc, [x // g for x in w]))
    return basis


def inverse(mat):
    n = len(mat)
    rows, pivots = _integer_echelon(
        [list(row) + [int(i == k) for k in range(n)] for i, row in enumerate(mat)]
    )
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(rows)]
