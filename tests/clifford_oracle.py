"""Dense-matrix oracle for the Clifford layer.

A deliberately separate route used only by the tests: the six generators
are built as dense 8x8 matrices straight from the octonion structure table,
every blade as the ordered matrix product of its generators, and the
identities, P and Q, J and the spectrum of contraction with Q are computed
by matrix products, traces and Faddeev-LeVerrier (:func:`charpoly` and
:func:`rational_roots`, the package's former route to the eigenvalues).
It shares with the package only the octonion table, the exterior-algebra
operations of ``Multivector`` (contraction by a vector, Hodge star; the
wedge product is :func:`wedge`, from :func:`merge_sign`) and the exact
linear algebra of ``ratlinalg``; it never uses the geometric product or the
signed-permutation blades, except in :func:`dense_blades`, which checks the
latter against the dense ones, in :func:`act`, the blade-by-blade action
that the package's 8x8 matrices of P and Q are checked against, and in
:func:`sampled_brackets` and :func:`sampled_sandwich`, the sampled route
of the two algebra identities the package proves on basis blades; :func:`sampled_form_identities` checks
the three it proves for all forms on seeded random forms.
:func:`check_bracket_closure` checks that a (-1)-eigenspace of the
contraction with Q is closed under the commutator bracket, which the
package's J-type split makes true by construction, :func:`lambda_six`
reads Lambda^2_6 as the contractions e_a -| P and as the (-1)-eigenspace
of J on two-forms, which the package's contractions are checked against,
and :func:`lambda_eight` reads Lambda^2_8 as the kernel of [K - 1; omega]
for the action K of J on two-forms, the package's former route to it.
:func:`merge_sign` is the closed formula that the package's table of
blade-product signs is checked against, and :func:`contract` the
contraction by a form that the package's operator of contraction with Q
(as a matrix, :func:`q_contraction_operator`) is checked against.
"""

import random
from fractions import Fraction
from functools import lru_cache, reduce

from nkdeform import clifford, ratlinalg
from nkdeform.clifford import DIM, N_BLADES, VOL_MASK, Multivector
from nkdeform.errors import ConsistencyError, SpectrumError

from slow_oracle import nullspace, rref

PSI_B = (Fraction(3, 5), Fraction(4, 5)) + (Fraction(0),) * 6


@lru_cache(maxsize=None)
def _gammas():
    table = clifford._octonion_table()
    gammas = []
    for a in range(1, DIM + 1):
        mat = [[0] * 8 for _ in range(8)]
        for col in range(8):
            sign, row = table[(a, col)]
            mat[row][col] = sign
        gammas.append(mat)
    return gammas


@lru_cache(maxsize=None)
def _blades():
    """Integer blade matrices: products of generators in increasing order."""
    gammas = _gammas()
    ident = [[int(i == j) for j in range(8)] for i in range(8)]
    return tuple(
        reduce(
            ratlinalg.mat_mul,
            [gammas[i] for i in range(DIM) if mask >> i & 1],
            ident,
        )
        for mask in range(N_BLADES)
    )


def contract(alpha, beta):
    """Interior product alpha -| beta, extending the metric pairing: on
    basis blades (e_{i1} ^ ... ^ e_{ik}) -| w applies the contraction by
    e_{i1} first, so that e_I -| e_I = +1."""
    out = zero()
    for mask, a in enumerate(alpha.coeffs):
        if a:
            term = beta
            for i in (i for i in range(DIM) if mask >> i & 1):
                term = term.contract_vector(i + 1)
            out = out + term.scale(a)
    return out


def merge_sign(a, b):
    """Sign of reordering the generators of e_a followed by those of e_b into
    increasing order (a transposition per pair i in a, j in b with i > j)."""
    sign = 1
    for i in range(DIM):
        if b >> i & 1 and bin(a >> (i + 1)).count("1") % 2:
            sign = -sign
    return sign


def product_sign(a, b):
    """s(a, b) of e_a e_b = s(a, b) e_{a xor b}: the reordering sign, and
    e_i e_i = -1 for each generator the blades share."""
    return merge_sign(a, b) * (-1 if bin(a & b).count("1") % 2 else 1)


def zero():
    return Multivector((0,) * N_BLADES)


def is_zero(mv):
    return all(a == 0 for a in mv.coeffs)


def wedge(alpha, beta):
    """alpha ^ beta, on blades e_A ^ e_B = merge_sign(A, B) e_{A xor B} for
    disjoint A, B and 0 otherwise."""
    out = [0] * N_BLADES
    for m1, a in enumerate(alpha.coeffs):
        for m2, b in enumerate(beta.coeffs):
            if a and b and not m1 & m2:
                out[m1 ^ m2] += merge_sign(m1, m2) * (a * b)
    return Multivector(tuple(out))


def perm_matrix(perm):
    """Dense matrix of a signed permutation ``((row, sign), ...)`` by column."""
    mat = [[0] * 8 for _ in range(8)]
    for col, (row, sign) in enumerate(perm):
        mat[row][col] = sign
    return mat


def dense_blades(rep):
    """The rep's 64 blades as dense matrices, asserting that each equals the
    ordered product of the dense generators."""
    out = []
    for mask, perm in enumerate(rep.blades):
        mat = perm_matrix(perm)
        assert mat == _blades()[mask], "blade %#x" % mask
        out.append(mat)
    return out


def matrix(mv):
    out = [[Fraction(0)] * 8 for _ in range(8)]
    for mask, a in enumerate(mv.coeffs):
        if a == 0:
            continue
        blade = _blades()[mask]
        for i in range(8):
            for j in range(8):
                if blade[i][j]:
                    out[i][j] += a * blade[i][j]
    return out


def multivector(mat):
    """Inverse of :func:`matrix` via coefficient = Tr(blade^T M)/8."""
    coeffs = []
    for blade in _blades():
        acc = Fraction(0)
        for i in range(8):
            for j in range(8):
                if blade[i][j]:
                    acc += blade[i][j] * mat[i][j]
        coeffs.append(acc / 8)
    return Multivector(tuple(coeffs))


def act_matrix(mat, spinor):
    return tuple(sum(row[j] * spinor[j] for j in range(8)) for row in mat)


def act(rep, terms, spinor):
    """Clifford multiplication of a spinor by the multivector with the
    nonzero (mask, coefficient) ``terms`` (``Multivector.terms``), through
    the rep's signed permutations, blade by blade."""
    out = [0] * 8
    for mask, a in terms:
        for (row, sign), x in zip(rep.blades[mask], spinor):
            out[row] += sign * (a * x)
    return tuple(out)


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def grades(mv):
    """The sorted grades of the nonzero blades of a multivector."""
    return sorted({bin(mask).count("1") for mask, a in enumerate(mv.coeffs) if a})


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    c = Fraction(c)
    return [[c * x for x in row] for row in a]


def _commutator(a, b):
    return mat_sub(ratlinalg.mat_mul(a, b), ratlinalg.mat_mul(b, a))


def _anticommutator(a, b):
    return mat_add(ratlinalg.mat_mul(a, b), ratlinalg.mat_mul(b, a))


def random_form(rng, grade):
    """A form of the given grade with seeded rational coefficients on every
    blade of that grade."""
    mv = zero()
    for mask in range(N_BLADES):
        if bin(mask).count("1") == grade:
            mv = mv + Multivector.blade(
                mask, Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            )
    return mv


def _bracket_expectations(alpha, beta, grade):
    """The commutator and anticommutator that grade-brackets predicts for a
    one-form alpha and a form beta of the given grade."""
    wedged = wedge(alpha, beta).scale(2)
    contr = contract(alpha, beta).scale(-2)
    return (wedged, contr) if grade % 2 == 1 else (contr, wedged)


def sampled_brackets(rng):
    """Grade-brackets on 4 seeded one-forms against seeded forms of grades
    1-3, with the geometric product of ``Multivector``."""
    for _ in range(4):
        alpha = random_form(rng, 1)
        for grade in (1, 2, 3):
            beta = random_form(rng, grade)
            comm_expect, anti_expect = _bracket_expectations(alpha, beta, grade)
            ab, ba = alpha * beta, beta * alpha
            if ab - ba != comm_expect or ab + ba != anti_expect:
                return False
    return True


def sampled_sandwich(rng):
    """Vector-sandwich on the six basis vectors and one seeded one-form,
    with the geometric product of ``Multivector``."""
    vectors = [Multivector.vector(a) for a in range(1, DIM + 1)]
    for eps in vectors + [random_form(rng, 1)]:
        acc = zero()
        for e in vectors:
            acc = acc + e * eps * e
        if acc != eps.scale(4):
            return False
    return True


def degree_identities(p, q):
    """Degree-identities for a three-form p and four-form q, by wedge and
    contraction."""
    star_p, star_q = p.star(), q.star()
    lhs1 = lhs2 = zero()
    for a in range(1, DIM + 1):
        e = Multivector.vector(a)
        lhs1 = lhs1 + wedge(e, wedge(e, p) + q.contract_vector(a))
        lhs2 = lhs2 + wedge(e, -star_p.contract_vector(a) - wedge(e, star_q))
    return is_zero(lhs1 - q.scale(4)) and is_zero(lhs2 + star_p.scale(3))


def three_form_square(p):
    """Three-form-square for p, with P . P as a product of dense matrices."""
    correction = zero()
    for a in range(1, DIM + 1):
        pa = p.contract_vector(a)
        correction = correction + wedge(pa, pa)
    rhs = Multivector.scalar(p.norm_sq()) - correction
    return ratlinalg.mat_mul(matrix(p), matrix(p)) == matrix(rhs)


def contraction_norm(p):
    total = sum(p.contract_vector(a).norm_sq() for a in range(1, DIM + 1))
    return total == 3 * p.norm_sq()


def sampled_form_identities(rng):
    """(degree-identities, three-form-square, contraction-norm) on three
    seeded random rational three-forms P and four-forms Q."""
    forms = [(random_form(rng, 3), random_form(rng, 4)) for _ in range(3)]
    return (
        all(degree_identities(p, q) for p, q in forms),
        all(three_form_square(p) for p, _ in forms),
        all(contraction_norm(p) for p, _ in forms),
    )


def grade_part(mv, k):
    return Multivector(
        tuple(
            a if bin(mask).count("1") == k else Fraction(0)
            for mask, a in enumerate(mv.coeffs)
        )
    )


def extract_PQ(psi):
    """P and Q from the blade expansion of the matrix 8 psi psi^T."""
    mv = multivector([[8 * psi[i] * psi[j] for j in range(8)] for i in range(8)])
    assert mv.coeffs[0] == 1
    residue = mv - Multivector.scalar(1) - grade_part(mv, 3) - grade_part(mv, 4)
    assert is_zero(residue)
    return grade_part(mv, 3), -grade_part(mv, 4)


def kahler_form(psi):
    """The two-form omega = *Q of the SU(3)-structure defined by psi."""
    return extract_PQ(psi)[1].star()


def _solve(mat, rhs):
    """The unique solution of a consistent system of full column rank."""
    ncols = len(mat[0])
    a, pivots = rref([list(row) + [b] for row, b in zip(mat, rhs)])
    assert pivots == list(range(ncols))
    return [a[r][ncols] for r in range(ncols)]


def complex_structure(psi):
    """J from (J u) . psi = Vol . u . psi with dense matrices, checking the
    Kahler-form trace Tr(omega . e_a . e_b)/8 = -J_ab by a matrix trace."""
    _, q = extract_PQ(psi)
    gammas = _gammas()
    vol = _blades()[VOL_MASK]
    columns = ratlinalg.transpose([list(act_matrix(g, psi)) for g in gammas])
    j = ratlinalg.transpose(
        [_solve(columns, act_matrix(ratlinalg.mat_mul(vol, g), psi)) for g in gammas]
    )
    omega = matrix(q.star())
    for a in range(DIM):
        for b in range(DIM):
            # Tr(omega g_a g_b) = sum_ik omega_ik (g_a g_b)_ki
            gab = ratlinalg.mat_mul(gammas[a], gammas[b])
            trace = sum(omega[i][k] * gab[k][i] for i in range(8) for k in range(8))
            assert trace / 8 == -j[a][b]
    return j


def block_spectra(psi):
    """Eigenvalues of the dense matrices of P and Q on psi, the e_a psi and
    Vol psi, as ((P on the three blocks), (Q on the three blocks))."""
    p, q = extract_PQ(psi)
    basis = [tuple(psi)] + [act_matrix(g, psi) for g in _gammas()]
    basis.append(act_matrix(_blades()[VOL_MASK], psi))
    assert [[ratlinalg.dot(u, v) for v in basis] for u in basis] == identity(8)

    def values(mat):
        out = []
        for v in basis:
            image = act_matrix(mat, v)
            pivot = next(i for i in range(8) if v[i])
            lam = image[pivot] / v[pivot]
            assert image == tuple(lam * x for x in v)
            out.append(lam)
        assert len(set(out[1:7])) == 1
        return out[0], out[1], out[7]

    return values(matrix(p)), values(matrix(q))


def identity_suite(psi):
    """The eight identities of ``clifford.verify_identity_suite`` with every
    Clifford product taken as a matrix product; returns (name, passed)."""
    p, q = extract_PQ(psi)
    star_p, star_q = p.star(), q.star()
    j = complex_structure(psi)
    rng = random.Random(1729)
    gammas = _gammas()
    vectors = [Multivector.vector(a) for a in range(1, DIM + 1)]

    def grade_brackets():
        for _ in range(4):
            alpha = random_form(rng, 1)
            for grade in (1, 2, 3):
                beta = random_form(rng, grade)
                ma, mb = matrix(alpha), matrix(beta)
                comm_expect, anti_expect = _bracket_expectations(alpha, beta, grade)
                if _commutator(ma, mb) != matrix(comm_expect):
                    return False
                if _anticommutator(ma, mb) != matrix(anti_expect):
                    return False
        return True

    def kahler_square():
        lhs = ratlinalg.mat_mul(matrix(star_q), matrix(star_q))
        return lhs == matrix(Multivector.scalar(-3) + q.scale(2))

    def holomorphic_contraction():
        for a, v in enumerate(vectors):
            jv = zero()
            for b, e in enumerate(vectors):
                jv = jv + e.scale(j[b][a])
            real = contract(v, p) + contract(jv, star_p)
            imag = contract(v, star_p) - contract(jv, p)
            if not is_zero(real) or not is_zero(imag):
                return False
        return True

    def torsion_metric_trace():
        pm = matrix(p)
        anti = [_anticommutator(g, pm) for g in gammas]
        for a in range(DIM):
            for b in range(DIM):
                value = -trace(ratlinalg.mat_mul(anti[a], anti[b])) / 32
                if value != (2 if a == b else 0):
                    return False
        return True

    def vector_sandwich():
        forms = vectors + [random_form(rng, 1)]
        for eps in forms:
            me = matrix(eps)
            acc = [[Fraction(0)] * 8 for _ in range(8)]
            for g in gammas:
                acc = mat_add(
                    acc, ratlinalg.mat_mul(g, ratlinalg.mat_mul(me, g))
                )
            if acc != mat_scale(me, 4):
                return False
        return True

    checks = [
        ("grade-brackets", grade_brackets),
        ("degree-identities", lambda: degree_identities(p, q)),
        ("kahler-square", kahler_square),
        ("holomorphic-contraction", holomorphic_contraction),
        ("torsion-metric-trace", torsion_metric_trace),
        ("vector-sandwich", vector_sandwich),
        ("three-form-square", lambda: three_form_square(p)),
        ("contraction-norm", lambda: contraction_norm(p)),
    ]
    return [(name, bool(fn())) for name, fn in checks]


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
    denom_lcm = ratlinalg.common_denominator(coeffs)
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
        scale = ratlinalg.common_denominator(quot)
        ipoly = [int(c * scale) for c in quot]
    return roots


def charpoly(mat):
    """Monic characteristic polynomial coefficients [1, c1, ..., cn].

    Faddeev-LeVerrier recursion: p(t) = t^n + c1 t^(n-1) + ... + cn.  It
    runs on the integer matrix A = d M, d the common denominator of the
    entries, whose coefficients are d^k c_k and whose divisions by k are
    exact.
    """
    n = len(mat)
    d, a = ratlinalg.integer_scaled(mat)
    coeffs = [Fraction(1)]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = ratlinalg.mat_mul(a, m)
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


def charpoly_spectrum(mat):
    """{eigenvalue: eigenspace dimension} of a rational matrix by the
    package's former route: the rational roots of :func:`charpoly`, each
    root's geometric multiplicity by ``rref`` pivots, and ``SpectrumError``
    unless it equals the algebraic one."""
    n = len(mat)
    out = {}
    for lam, mult in rational_roots(charpoly(mat)).items():
        shifted = [[x - lam if i == k else x for k, x in enumerate(row)]
                   for i, row in enumerate(mat)]
        dim = n - len(rref(shifted)[1])
        if dim != mult:
            raise SpectrumError(
                "eigenvalue %s: geometric %d != algebraic %d" % (lam, dim, mult))
        out[lam] = dim
    return out


_PAIRS_2FORM = [(a, b) for a in range(DIM) for b in range(a + 1, DIM)]
_MASKS_2FORM = [(1 << a) | (1 << b) for a, b in _PAIRS_2FORM]


def q_operator(psi):
    """Matrix of beta -> beta -| Q on the basis e_ab (a < b), Q from
    :func:`extract_PQ`, by ``Multivector.contract``."""
    _, q = extract_PQ(psi)
    images = [contract(Multivector.blade(m), q) for m in _MASKS_2FORM]
    return ratlinalg.transpose(
        [[image.coeffs[k] for k in _MASKS_2FORM] for image in images])


def q_contraction_operator(rep, psi):
    """The package's matrix of beta -> beta -| Q on the basis e_ab (a < b):
    its integer operator of :func:`clifford._q_operator` over its
    denominator, which :func:`q_operator` checks."""
    _, e, _, q = clifford._integer_forms(rep, psi)
    d, a = clifford._q_operator(q, e)
    return clifford._fraction_matrix(a, d)


def q_spectrum(psi, eigenvalues=None):
    """Eigenvalues with eigenspace dimensions, the omega eigenvalue, a basis
    of the (-1)-eigenspace (the fields of ``clifford.TwoFormSpectrum``) and
    the projector onto that eigenspace, for beta -> beta -| Q on two-forms
    with Q from :func:`extract_PQ`.  The basis is the kernel of op + 1 and
    the projector prod (op - lam) / (-1 - lam) over lam != -1, both on the
    dense ``Fraction`` matrix op.

    The eigenvalues are the rational roots of the Fraction characteristic
    polynomial.  Given candidate ``eigenvalues`` instead, the charpoly is
    skipped: their eigenspace dimensions, by ``rref`` pivots, must then add
    up to 15, which proves that they are all the eigenvalues."""
    _, q = extract_PQ(psi)
    op = q_operator(psi)
    n = len(op)
    ident = identity(n)
    if eigenvalues is None:
        eigenvalues = rational_roots(charpoly(op))
    entries = []
    projector = ident
    for lam in sorted(eigenvalues):
        shifted = mat_sub(op, mat_scale(ident, lam))
        entries.append((lam, n - len(rref(shifted)[1])))
        if lam != -1:
            projector = ratlinalg.mat_mul(
                projector, mat_scale(shifted, Fraction(1, -1 - lam))
            )
    assert sum(dim for _, dim in entries) == n
    basis = nullspace(mat_add(op, ident))
    omega = [q.star().coeffs[k] for k in _MASKS_2FORM]
    image = ratlinalg.mat_vec(op, omega)
    pivot = next(i for i in range(n) if omega[i] != 0)
    omega_eig = image[pivot] / omega[pivot]
    assert image == [omega_eig * c for c in omega]
    return (
        tuple(entries),
        omega_eig,
        tuple(tuple(v) for v in basis),
        tuple(tuple(row) for row in projector),
    )


def j_action(psi):
    """The matrix K of S -> J^T S J on the coordinates of two-forms on the
    basis e_ab (a < b), with J from :func:`complex_structure` and J^T S J a
    product of dense 6x6 matrices."""
    j = complex_structure(psi)
    images = []
    for k in range(len(_PAIRS_2FORM)):
        s = skew_matrix([int(i == k) for i in range(len(_PAIRS_2FORM))])
        image = ratlinalg.mat_mul(ratlinalg.mat_mul(ratlinalg.transpose(j), s), j)
        images.append([image[a][b] for a, b in _PAIRS_2FORM])
    return ratlinalg.transpose(images)


def lambda_six(psi):
    """The six contractions e_a -| P and a basis of the (-1)-eigenspace of
    :func:`j_action`, both as coordinates on the basis e_ab (a < b), with P
    from :func:`extract_PQ`; and the rank of that action plus the identity,
    read by ``rref``.  Lambda^2_6 = {X -| P} says that the two spans agree
    and that the rank is 15 - 6."""
    p, _ = extract_PQ(psi)
    contractions = [[contract(Multivector.vector(a), p).coeffs[k] for k in _MASKS_2FORM]
                    for a in range(1, DIM + 1)]
    shifted = mat_add(j_action(psi), identity(len(_PAIRS_2FORM)))
    return contractions, nullspace(shifted), len(rref(shifted)[1])


def lambda_eight(psi):
    """The kernel basis of [K - 1; omega] (:func:`nullspace`), for K of
    :func:`j_action` and omega of :func:`kahler_form`: the J-invariant
    two-forms orthogonal to omega, Lambda^2_8."""
    omega = [kahler_form(psi).coeffs[k] for k in _MASKS_2FORM]
    shifted = mat_sub(j_action(psi), identity(len(_PAIRS_2FORM)))
    return nullspace(shifted + [omega])


def skew_matrix(coords):
    """The 6x6 skew matrix of a two-form on the basis e_ab (a < b)."""
    m = [[0] * DIM for _ in range(DIM)]
    for (a, b), c in zip(_PAIRS_2FORM, coords):
        m[a][b] = c
        m[b][a] = -c
    return m


def check_bracket_closure(a_int, d, skews):
    """Raise ``SpectrumError`` unless the commutator of every pair of the
    integer skew matrices is a (-1)-eigenvector of op = a_int / d, i.e.
    a_int c = -d c for its upper coordinates c.  Only the pairs u < v are
    formed: [u, u] = 0 and [v, u] = -[u, v] add no constraint."""
    for i, su in enumerate(skews):
        for sv in skews[i + 1:]:
            bracket = [
                sum(su[a][k] * sv[k][b] - sv[a][k] * su[k][b] for k in range(DIM))
                for a, b in _PAIRS_2FORM
            ]
            if ratlinalg.mat_vec(a_int, bracket) != [-d * c for c in bracket]:
                raise SpectrumError("(-1)-eigenspace is not bracket-closed")
