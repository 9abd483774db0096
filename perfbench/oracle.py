"""Independent answers the benchmark checks the program's outputs against.

Nothing here imports nkdeform.  Root systems, dimensions and Casimir
eigenvalues are derived from the four Cartan matrices alone; the invariant
forms of the eight algebra pairs come from the Killing normalization
B = -(1/12) Tr(ad ad) and the weight-lattice restriction of each embedding.
The paper's tables (Prop 4.2, Thm 5.2) are transcribed as published.

Conventions match the program's public surface: weights are integer tuples
in fundamental-weight coordinates, row i of a Cartan matrix is the simple
root alpha_i in those coordinates, and each U(1) factor is one charge.
"""

from fractions import Fraction as F
from functools import lru_cache
import math

CARTAN = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "C2": ((2, -2), (-1, 2)),
    "G2": ((2, -1), (-3, 2)),
}
U1 = "U1"

# Factor tags of every algebra the CLI's `tensor --algebra` accepts.
TENSOR_FACTORS = {
    "su2": ("A1",),
    "a1": ("A1",),
    "su3": ("A2",),
    "a2": ("A2",),
    "sp2": ("C2",),
    "c2": ("C2",),
    "g2": ("G2",),
    "su2cubed": ("A1", "A1", "A1"),
    "sp1u1": ("A1", U1),
    "u1u1": (U1, U1),
}

# Ambient algebra tag -> factors; its form is -(1/12) Killing per factor.
AMBIENT = {"g2": ("G2",), "su2cubed": ("A1", "A1", "A1"), "sp2": ("C2",),
           "su3-ambient": ("A2",)}

# Coset alias -> (ambient tag of G, H factors, restriction matrix).  Rows
# of the matrix give the H coordinates of a restricted G weight.
COSETS = {
    "g2su3": ("g2", ("A2",), ((1, 1), (0, 1))),
    "su2cubed": ("su2cubed", ("A1",), ((1, 1, 1),)),
    "sp2": ("sp2", ("A1", U1), ((1, 1), (1, 0))),
    "su3t2": ("su3-ambient", (U1, U1), ((1, 0), (0, 1))),
}
COSET_NAMES = {
    "g2su3": "G2/SU(3)",
    "su2cubed": "SU(2)^3/SU(2)",
    "sp2": "Sp(2)/Sp(1)xU(1)",
    "su3t2": "SU(3)/U(1)^2",
}

# Casimir pair tag -> ambient tag and restriction matrix (None: the
# ambient algebra itself).
PAIRS = {
    "g2": ("g2", None),
    "su3-in-g2": ("g2", ((1, 1), (0, 1))),
    "su2cubed": ("su2cubed", None),
    "su2-diagonal-in-su2cubed": ("su2cubed", ((1, 1, 1),)),
    "sp2": ("sp2", None),
    "sp1u1-in-sp2": ("sp2", ((1, 1), (1, 0))),
    "su3-ambient": ("su3-ambient", None),
    "u1u1-in-su3": ("su3-ambient", ((1, 0), (0, 1))),
}
PAIR_FACTORS = {
    "g2": ("G2",),
    "su3-in-g2": ("A2",),
    "su2cubed": ("A1", "A1", "A1"),
    "su2-diagonal-in-su2cubed": ("A1",),
    "sp2": ("C2",),
    "sp1u1-in-sp2": ("A1", U1),
    "su3-ambient": ("A2",),
    "u1u1-in-su3": (U1, U1),
}

# Prop 4.2: spectrum of the curvature operator on m* (x) h.
PROP_4_2 = {
    "G2/SU(3)": {F(-9): 6, F(-3): 12, F(3): 30},
    "SU(2)^3/SU(2)": {F(-8): 2, F(-4): 6, F(4): 10},
    "Sp(2)/Sp(1)xU(1)": {F(-8): 4, F(0): 12, F(4): 8},
}
# Thm 5.2: halved deformation space {hw: mult} and its real dimension.
THM_5_2 = {
    "H": {
        "G2/SU(3)": ({}, 0),
        "SU(2)^3/SU(2)": ({}, 0),
        "Sp(2)/Sp(1)xU(1)": ({(1, 0): 1}, 5),
        "SU(3)/U(1)^2": ({}, 0),
    },
    "SU3": {
        "G2/SU(3)": ({}, 0),
        "SU(2)^3/SU(2)": ({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}, 9),
        "Sp(2)/Sp(1)xU(1)": ({(1, 0): 1, (0, 2): 2}, 25),
        "SU(3)/U(1)^2": ({(1, 1): 6}, 48),
    },
}
# dim E for the two gauge groups: the adjoint of H, or su(3).
GAUGE_DIM = {
    "H": {"G2/SU(3)": 8, "SU(2)^3/SU(2)": 3, "Sp(2)/Sp(1)xU(1)": 4,
          "SU(3)/U(1)^2": 2},
    "SU3": {name: 8 for name in COSET_NAMES.values()},
}


def _inverse(m):
    n = len(m)
    a = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _quad(g, u, v):
    return sum(u[i] * g[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


@lru_cache(maxsize=None)
def _simple(kind):
    """(positive roots in fundamental coordinates by height, weight Gram)."""
    c = CARTAN[kind]
    n = len(c)
    # Symmetrize: (alpha_i, alpha_j) = c[i][j] * d[j] must be symmetric.
    d = [None] * n
    d[0] = F(1)
    for _ in range(n):
        for i in range(n):
            for j in range(n):
                if d[i] is not None and d[j] is None and c[i][j] != 0:
                    d[j] = F(c[j][i]) * d[i] / c[i][j]
    cinv = _inverse(c)
    gram = [[cinv[i][j] * d[j] for j in range(n)] for i in range(n)]

    def reflect(w, i):
        return tuple(w[j] - w[i] * c[i][j] for j in range(n))

    roots = {tuple(row) for row in c}
    frontier = list(roots)
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(n):
                r2 = reflect(r, i)
                if r2 not in roots:
                    roots.add(r2)
                    nxt.append(r2)
        frontier = nxt
    # A root is positive when its simple-root coordinates (r C^-1) are;
    # sorting by height puts the highest root, the adjoint's weight, last.
    coords = {r: [sum(r[j] * cinv[j][i] for j in range(n)) for i in range(n)]
              for r in roots}
    positive = tuple(sorted((r for r in roots if min(coords[r]) >= 0),
                            key=lambda r: (sum(coords[r]), r)))
    return positive, gram


def blocks(factors):
    """(tag, start, stop) coordinate block of each factor."""
    pos = 0
    for tag in factors:
        width = 1 if tag == U1 else len(CARTAN[tag])
        yield tag, pos, pos + width
        pos += width


def dim(factors, hw):
    """Weyl dimension formula, factor by factor (U(1) irreducibles: 1)."""
    total = F(1)
    for tag, a, b in blocks(factors):
        if tag == U1:
            continue
        roots, gram = _simple(tag)
        shifted = [x + 1 for x in hw[a:b]]
        delta = [1] * (b - a)
        for r in roots:
            total *= _quad(gram, shifted, r) / _quad(gram, delta, r)
    if total.denominator != 1:
        raise ArithmeticError("Weyl formula gave %s for %s" % (total, hw))
    return int(total)


def casimir_ss(factors, hw):
    """(lambda, lambda + 2 delta) on the simple factors, any invariant form."""
    total = F(0)
    for tag, a, b in blocks(factors):
        if tag == U1:
            continue
        _, gram = _simple(tag)
        lam = hw[a:b]
        total += _quad(gram, lam, [x + 2 for x in lam])
    return total


@lru_cache(maxsize=None)
def _ambient_gram(tag):
    """-(1/12) Killing form on weights of an ambient algebra."""
    factors = AMBIENT[tag]
    n = sum(b - a for _, a, b in blocks(factors))
    g = [[F(0)] * n for _ in range(n)]
    for kind, a, b in blocks(factors):
        roots, gram = _simple(kind)
        theta = roots[-1]
        # The Killing Casimir of the adjoint is 1; B = -K/12 scales it to -12.
        scale = F(-12) / _cas(gram, (kind,), theta)
        for i in range(b - a):
            for j in range(b - a):
                g[a + i][a + j] = scale * gram[i][j]
    return g


@lru_cache(maxsize=None)
def pair_gram(pair):
    """Gram matrix of the pair's form on fundamental-weight coordinates."""
    ambient, restriction = PAIRS[pair]
    g = _ambient_gram(ambient)
    if restriction is None:
        return tuple(tuple(row) for row in g)
    return tuple(tuple(row) for row in restricted_gram(g, restriction))


def restricted_gram(gram_g, restriction):
    """Form on the subalgebra's weights: gram_h^-1 = R gram_g^-1 R^T."""
    ginv = _inverse(gram_g)
    r = restriction
    m = [[sum(r[a][i] * ginv[i][j] * r[b][j]
              for i in range(len(ginv)) for j in range(len(ginv)))
          for b in range(len(r))] for a in range(len(r))]
    return _inverse(m)


def weyl_vector(factors):
    """delta: 1 on simple-factor coordinates, 0 on U(1) charges."""
    return tuple(0 if tag == U1 else 1
                 for tag, a, b in blocks(factors) for _ in range(a, b))


def _cas(gram, factors, hw):
    """B(hw, hw + 2 delta) for the form with weight Gram matrix ``gram``."""
    return _quad(gram, hw, [x + 2 * d for x, d in zip(hw, weyl_vector(factors))])


def casimir(pair, hw):
    """Casimir eigenvalue in the pair's normalization."""
    return _cas(pair_gram(pair), PAIR_FACTORS[pair], hw)


def is_dominant(factors, hw):
    return all(x >= 0 for x, d in zip(hw, weyl_vector(factors)) if d)


@lru_cache(maxsize=None)
def irreps_with_casimir(pair, value):
    """Brute-force scan of a box two wider than the definiteness bound.

    On dominant weights -Cas(w) = q(w) + l(w) with q = -B positive definite
    and l >= 0, so a solution has w_i^2 <= |value| (q^-1)_ii.
    """
    factors = PAIR_FACTORS[pair]
    gram = pair_gram(pair)
    qinv = _inverse([[-x for x in row] for row in gram])
    delta = weyl_vector(factors)
    ranges = []
    for i, d in enumerate(delta):
        k = math.isqrt(math.floor(-value * qinv[i][i])) + 2 if value <= 0 else 2
        ranges.append(range(0, k + 1) if d else range(-k, k + 1))
    out = []

    def scan(prefix, i):
        if i == len(ranges):
            if casimir(pair, prefix) == value:
                out.append(prefix)
            return
        for x in ranges[i]:
            scan(prefix + (x,), i + 1)

    scan((), 0)
    return tuple(out)


def tensor_problems(factors, a, b, entries):
    """Why {hw: mult} is not the decomposition of V(a) (x) V(b), or None.

    Checks dimension, U(1) charge conservation and the quadratic-Casimir
    trace identity sum m_i dim V_i Cas V_i = dim A dim B (Cas A + Cas B),
    which holds on the simple factors because their generators are
    traceless.
    """
    delta = weyl_vector(factors)
    for hw in entries:
        if len(hw) != len(delta) or not is_dominant(factors, hw):
            return "non-dominant summand %r" % (hw,)
        for x, y, z, d in zip(hw, a, b, delta):
            if not d and x != y + z:
                return "summand %r breaks U(1) charge conservation" % (hw,)
    total = sum(m * dim(factors, hw) for hw, m in entries.items())
    da, db = dim(factors, a), dim(factors, b)
    if total != da * db:
        return "dimension %d != %d x %d" % (total, da, db)
    lhs = sum(m * dim(factors, hw) * casimir_ss(factors, hw)
              for hw, m in entries.items())
    rhs = da * db * (casimir_ss(factors, a) + casimir_ss(factors, b))
    if lhs != rhs:
        return "Casimir trace %s != %s" % (lhs, rhs)
    return None


def branch_problems(alias, hw, entries):
    """Why {hw: mult} is not the restriction of W = V(hw) to H, or None.

    Checks the dimension and, where G is simple, the trace identity
    sum m_i dim V_i Cas_h V_i = (dim h / dim g) dim W Cas_g W, both
    Casimirs taken in the form of g restricted to h.
    """
    ambient, h_factors, restriction = COSETS[alias]
    g_factors = AMBIENT[ambient]
    for v in entries:
        if len(v) != len(restriction) or not is_dominant(h_factors, v):
            return "non-dominant summand %r" % (v,)
    dim_w = dim(g_factors, hw)
    total = sum(m * dim(h_factors, v) for v, m in entries.items())
    if total != dim_w:
        return "dimension %d != dim W %d" % (total, dim_w)
    if len(g_factors) != 1:
        return None
    gram_g = _ambient_gram(ambient)
    gram_h = restricted_gram(gram_g, restriction)
    cas_g = _cas(gram_g, g_factors, hw)
    lhs = sum(m * dim(h_factors, v) * _cas(gram_h, h_factors, v)
              for v, m in entries.items())
    dim_g = dim(g_factors, _simple(g_factors[0])[0][-1])
    dim_h = sum(1 if t == U1 else len(CARTAN[t]) + 2 * len(_simple(t)[0])
                for t in h_factors)
    if lhs * dim_g != dim_h * dim_w * cas_g:
        return "Casimir trace %s != (%d/%d) %d %s" % (lhs, dim_h, dim_g, dim_w, cas_g)
    return None


def spectrum_problems(entries, gauge_dim, expected=None):
    """Why [(eigenvalue, dim)] is not a curvature spectrum, or None."""
    if sum(d for _, d in entries) != 6 * gauge_dim:
        return "spectrum covers %d dimensions, not 6 x %d" % (
            sum(d for _, d in entries), gauge_dim)
    if sum(e * d for e, d in entries) != 0:
        return "spectrum is not traceless"
    if expected is not None and dict(entries) != expected:
        return "spectrum %s differs from the paper's %s" % (entries, expected)
    return None
