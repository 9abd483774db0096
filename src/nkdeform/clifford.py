"""Exact real Clifford algebra of a negative-definite six-dimensional space,
its eight-dimensional spinor representation, and the SU(3)-structure data a
unit spinor determines.

Multivectors are indexed by bitmasks over the six generators, with ``int``
or ``Fraction`` coefficients, and multiply by the sparse geometric product
e_A e_B = s(A, B) e_{A xor B} of bitmap blades (Dorst, Fontijne and Mann,
*Geometric Algebra for Computer Science*).  The generators act on spinors
as left multiplications by imaginary octonion units, so every blade is a
signed permutation of the eight spinor slots.  ``build_rep`` checks the
Clifford relations on the generators and nothing else, as the rest
follows: a generator g with g^2 = -1 is a bijection of the slots, so
orthogonal, so skew (g^T = g^-1 = -g); a blade of grade k, an ordered
product of generators, has transpose (-1)^(k(k+1)/2) times itself; and a
blade other than 1 anticommutes with some generator, so it is traceless.
The blades are therefore a basis of the real 8x8 matrices: identities are
checked in the algebra, and the trace of a product is 8 times its scalar
part.  A unit spinor psi determines the three-form P and four-form Q
through 8 psi psi^T = 1 + P - Q, where the skew blades of grades 1, 2, 5
and 6 contribute nothing (x^T M x = 0 for skew M); from these follow the
almost complex structure J, checked against the two-form omega = *Q, and
the eigenspace structure of contraction with Q on two-forms, checked
block by block.  The representation is built once per process, and every
call admits only a representation equal to it, as the checks left per
spinor rely on its relations.  P, Q and J are derived once per spinor, in
integers: psi = psi~ / d for the integer spinor psi~, which must have
eight entries, |psi~|^2 = d^2 is checked exactly, d^2 P, d^2 Q and d^2 J
are integral, and ``Fraction`` values are built only for what is
returned.  The public functions share these through a one-entry memo of
the last spinor asked about, so the calls a ``clifford-verify`` run makes
on one spinor derive each once.  Of the eight identities of the suite,
five hold for the algebra or for every three-form P and four-form Q and
are proved once per process on basis blades, a spinor adding only a scan
of the grades of P and Q; the other three run per spinor on the integer
multivectors d^2 P and d^2 Q and on d^2 J, each right-hand side carrying
its power of d^2, torsion-metric-trace by grade-brackets on the
contractions e_a -| d^2 P.  P and Q act on spinors
as the integer 8x8 matrices of d^2 P and d^2 Q, summed from the blade
permutations.  Contraction with Q, read off d^2 Q by signed lookups as an
integer matrix over its common denominator, is applied through its nonzero
entries.  Its spectrum is read off the J-type split R omega + Lambda^2_6 +
Lambda^2_8 of two-forms, with Lambda^2_6 spanned by those contractions and
Lambda^2_8 the integer kernel of the contractions and omega: the operator
must be one scalar on each block, these scalars are its whole spectrum,
and every check is homogeneous.
The dense-matrix route, the sampled route and the characteristic
polynomial are kept as a test oracle (``tests/clifford_oracle.py``).
"""

import collections
import functools
import math
import operator
from fractions import Fraction

from . import ratlinalg
from .errors import (
    ConsistencyError,
    ConventionError,
    IdentityViolationError,
    SpectrumError,
)

_F = Fraction

DIM = 6
N_BLADES = 1 << DIM
VOL_MASK = N_BLADES - 1


def _popcount(mask):
    return bin(mask).count("1")


_GRADES = tuple(_popcount(mask) for mask in range(N_BLADES))


def _contraction_sign(bit, mask):
    """Sign of e_i -| e_mask = +-e_{mask xor bit} for bit = 1 << i in mask:
    a transposition per generator of e_mask below e_i."""
    return -1 if _popcount(mask & (bit - 1)) % 2 else 1


@functools.cache
def _product_signs():
    """Table s[A][B] of e_A e_B = s[A][B] e_{A xor B}, built on first use
    row by row: for the lowest generator e_i of A and A' = A xor e_i,
    e_A e_B = e_i (e_A' e_B), so s[A][B] = s[A'][B] s[e_i][A' xor B], and
    e_i e_C has a transposition per generator of e_C below e_i and
    e_i e_i = -1."""
    generators = {
        bit: [-1 if (_popcount(c & (bit - 1)) + bool(c & bit)) % 2 else 1
              for c in range(N_BLADES)]
        for bit in (1 << i for i in range(DIM))
    }
    rows = [(1,) * N_BLADES]
    for a in range(1, N_BLADES):
        low = a & -a
        rest, gen = rows[a ^ low], generators[low]
        rows.append(tuple(s * gen[a ^ low ^ b] for b, s in enumerate(rest)))
    return tuple(rows)


class Multivector:
    """Element of the 64-dimensional Clifford algebra with exact ``int``
    or ``Fraction`` coefficients; zeros are ``0``.  Immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    def __eq__(self, other):
        if type(other) is not Multivector:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "Multivector(coeffs=%r)" % (self.coeffs,)

    @staticmethod
    def scalar(value):
        return Multivector.blade(0, value)

    @staticmethod
    def blade(mask, value=1):
        c = [0] * N_BLADES
        c[mask] = value
        return Multivector(tuple(c))

    @staticmethod
    def vector(index):
        """Basis one-form e_index, 1-based."""
        return Multivector.blade(1 << (index - 1))

    def __add__(self, other):
        return Multivector(
            tuple(a + b if b else a for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        return Multivector(
            tuple(a - b if b else a for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return Multivector(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        """Geometric (Clifford) product: the sum of a_A b_B s(A, B)
        e_{A xor B} over the nonzero coefficients."""
        if not isinstance(other, Multivector):
            return NotImplemented
        signs = _product_signs()
        right = other.terms()
        out = [0] * N_BLADES
        for m1, a in self.terms():
            row = signs[m1]
            for m2, b in right:
                out[m1 ^ m2] += row[m2] * (a * b)
        return Multivector(tuple(out))

    def terms(self):
        """The nonzero coefficients as (mask, coefficient) pairs."""
        return [(m, a) for m, a in enumerate(self.coeffs) if a]

    def scale(self, k):
        return Multivector(tuple(k * a if a else a for a in self.coeffs))

    def contract_vector(self, index):
        """Interior product e_index -| self (1-based index, orthonormal)."""
        bit = 1 << (index - 1)
        out = [0] * N_BLADES
        for mask, a in enumerate(self.coeffs):
            if a and mask & bit:
                out[mask ^ bit] = _contraction_sign(bit, mask) * a
        return Multivector(tuple(out))

    def star(self):
        """Hodge star with *1 = e_123456 (orthonormal, positive orientation):
        *e_A = s(A, A') e_A' for the complement A' of A, as e_A e_A' is then
        the wedge e_A ^ e_A'."""
        signs = _product_signs()
        out = [0] * N_BLADES
        for mask, a in enumerate(self.coeffs):
            if a:
                comp = VOL_MASK ^ mask
                out[comp] = a * signs[mask][comp]
        return Multivector(tuple(out))

    def norm_sq(self):
        return sum(a * a for a in self.coeffs)


# ---------------------------------------------------------------------------
# Octonion model of the generators


def _cayley_dickson_sign(p, q, n):
    """Sign s with e_p e_q = s e_{p xor q} among the n = 2^k units of the
    Cayley-Dickson algebra built by (a, b)(c, d) = (ac - conj(d) b,
    d a + b conj(c)); units below n/2 sit in the first slot."""
    if n == 1:
        return 1
    h = n // 2

    def conj(x):
        return 1 if x == 0 else -1

    if p < h and q < h:
        return _cayley_dickson_sign(p, q, h)
    if p < h:
        return _cayley_dickson_sign(q - h, p, h)
    if q < h:
        return conj(q) * _cayley_dickson_sign(p - h, q, h)
    return -conj(q - h) * _cayley_dickson_sign(q - h, p - h, h)


def _octonion_table():
    """Structure table o[p][q] = (sign, index) for e_p * e_q: the doubling of
    the quaternions 1, i, j, k (units 0..3, first slot; 4..7 second)."""
    return {
        (p, q): (_cayley_dickson_sign(p, q, 8), p ^ q)
        for p in range(8)
        for q in range(8)
    }


# A signed permutation of the spinor slots is a tuple of eight (i, s) pairs:
# entry j says that basis spinor j goes to s times basis spinor i, i.e. the
# matrix has the single nonzero entry s in column j, at row i.

_IDENTITY = tuple((j, 1) for j in range(8))
_MINUS_IDENTITY = tuple((j, -1) for j in range(8))


def _compose(outer, inner):
    """The signed permutation ``outer . inner``."""
    out = []
    for row, sign in inner:
        target, sign2 = outer[row]
        out.append((target, sign * sign2))
    return tuple(out)


def _negate(perm):
    return tuple((row, -sign) for row, sign in perm)


def _apply(perm, spinor):
    out = [None] * 8
    for (row, sign), x in zip(perm, spinor):
        out[row] = x if sign > 0 else -x
    return tuple(out)


class CliffordRep(collections.namedtuple("CliffordRep", "blades")):
    """The 64 blades (products of generators in increasing index order) as
    signed permutations of the spinor slots, indexed by bitmask."""

    __slots__ = ()


@functools.cache
def build_rep():
    """Construct the spinor representation and check the Clifford relations
    e_a e_b + e_b e_a = -2 delta_ab on its generators, once per process.

    The rest follows from those relations, exactly, on the signed
    permutations.  e_a e_a = -1 makes each generator a bijection of the
    slots, so orthogonal, and an orthogonal g with g^2 = -1 is skew.  A
    blade e_A = e_a1 ... e_ak (a1 < ... < ak) has transpose
    (-1)^k e_ak ... e_a1 = (-1)^(k(k+1)/2) e_A: symmetric for grades 0, 3
    and 4, skew otherwise, and the volume element (k = 6) squares to
    (-1)^(k(k-1)/2) (-1)^k = -1.  For A != 0 some generator anticommutes
    with e_A (one outside A for odd k, one inside for even k), so e_A is
    traceless, and the blades are a basis of the 8x8 real matrices.
    Every caller shares the one result, an immutable tuple of tuples.
    """
    table = _octonion_table()
    gammas = [
        tuple((row, sign) for sign, row in (table[(a, col)] for col in range(8)))
        for a in range(1, DIM + 1)
    ]
    blades = [_IDENTITY]
    for mask in range(1, N_BLADES):
        low = mask & -mask
        blades.append(_compose(gammas[low.bit_length() - 1], blades[mask ^ low]))
    for a, ga in enumerate(gammas):
        for b, gb in enumerate(gammas):
            # A sum of two signed permutations vanishes iff they are negatives.
            ab, ba = _compose(ga, gb), _compose(gb, ga)
            if ab != (_MINUS_IDENTITY if a == b else _negate(ba)):
                raise ConsistencyError(
                    "generators %d, %d violate the Clifford relation"
                    % (a + 1, b + 1)
                )
    return CliffordRep(tuple(blades))


# ---------------------------------------------------------------------------
# Spinor-derived structure


STANDARD_SPINOR = (_F(1), _F(0), _F(0), _F(0), _F(0), _F(0), _F(0), _F(0))


_FORM_MASKS = tuple(m for m in range(N_BLADES) if _GRADES[m] in (3, 4))


def _integer_forms(rep, psi):
    """(psi~, d^2, d^2 P, d^2 Q), all integral, for psi~ = d psi and d the
    common denominator of psi: the blade-A coefficient of 8 psi psi^T is
    <e_A psi, psi> = <e_A psi~, psi~> / d^2, which is 1 for A = 0 once
    |psi~|^2 = d^2 is checked and 0 for the skew blades of grades 1, 2, 5
    and 6, so only the 35 of grades 3 and 4 are computed.  Raises
    :class:`ConsistencyError` unless rep equals :func:`build_rep`'s, whose
    relations those facts need, and :class:`ConventionError` as
    :func:`extract_PQ` does."""
    if rep != build_rep():
        raise ConsistencyError("rep is not the one build_rep() gives")
    if len(psi) != 8:
        raise ConventionError("spinor has %d entries, not 8" % len(psi))
    for x in psi:
        if type(x) not in (int, _F):
            raise ConventionError(
                "spinor entry %r is not an int or a Fraction" % (x,))
    d, (spinor,) = ratlinalg.integer_scaled([psi])
    d2 = d * d
    if sum(x * x for x in spinor) != d2:
        raise ConventionError("spinor is not of unit length")
    p, q = [0] * N_BLADES, [0] * N_BLADES
    for mask in _FORM_MASKS:
        c = sum(map(operator.mul, spinor,
                    [sign * spinor[row] for row, sign in rep.blades[mask]]))
        if _GRADES[mask] == 3:
            p[mask] = c
        else:
            q[mask] = -c
    return spinor, d2, Multivector(tuple(p)), Multivector(tuple(q))


class _Spinor:
    """What a unit spinor psi determines under ``rep``: psi~, d^2, d^2 P
    and d^2 Q from :func:`_integer_forms`, and on first need d^2 J
    (:meth:`j`) and the contractions e_a -| d^2 P (:meth:`contractions`),
    so a call that needs neither builds nor checks them."""

    __slots__ = ("rep", "key", "spinor", "d2", "p", "q", "_j", "_contractions")

    def __init__(self, rep, key, forms):
        self.rep, self.key = rep, key
        self.spinor, self.d2, self.p, self.q = forms
        self._j = self._contractions = None

    def j(self):
        if self._j is None:
            self._j = _complex_structure(self.rep, self.spinor, self.q)
        return self._j

    def contractions(self):
        """(u, G): the two-form coordinates u_a of e_a -| d^2 P, a = 1..6,
        and their Gram matrix G."""
        if self._contractions is None:
            u = [_two_form_coords(self.p.contract_vector(a)) for a in range(1, DIM + 1)]
            self._contractions = u, [[ratlinalg.dot(x, y) for y in u] for x in u]
        return self._contractions


_last_spinor = None


def _spinor(rep, psi):
    """The :class:`_Spinor` of psi under rep, from a one-entry memo.  Its
    key is the identity of rep, which is immutable and held by the record,
    and the entries of psi with their types: a ``float`` entry raises
    where an equal ``int`` does not.  A derivation that raises is not
    stored.  Racing threads may derive a record twice, never a wrong one."""
    global _last_spinor
    values = tuple(psi)
    key = (values, tuple(map(type, values)))
    last = _last_spinor
    if last is not None and last.rep is rep and last.key == key:
        return last
    _last_spinor = record = _Spinor(rep, key, _integer_forms(rep, values))
    return record


def _over(mv, d2):
    """The multivector mv / d^2 with ``Fraction`` coefficients."""
    zero = _F(0)
    return Multivector(tuple(_F(c, d2) if c else zero for c in mv.coeffs))


def extract_PQ(rep, psi):
    """The unique three-form P and four-form Q with 8 psi psi^T = 1 + P - Q.

    The blade-A coefficient of 8 psi psi^T is <e_A psi, psi>: 1 for A = 0
    on a unit spinor, 0 for the skew blades of grades 1, 2, 5 and 6.  Raises
    :class:`ConventionError` when psi does not have eight entries, an entry
    is not an ``int`` or a ``Fraction``, or psi is not a unit spinor, and
    :class:`ConsistencyError` when rep is not equal to :func:`build_rep`'s.
    """
    rec = _spinor(rep, psi)
    return _over(rec.p, rec.d2), _over(rec.q, rec.d2)


def _matrix_of(rep, mv):
    """The 8x8 matrix of Clifford multiplication by mv, summed from the
    signed permutations of its blades."""
    mat = [[0] * 8 for _ in range(8)]
    for mask, a in mv.terms():
        for col, (row, sign) in enumerate(rep.blades[mask]):
            mat[row][col] += sign * a
    return mat


def _block_value(images, block, d):
    """The one eigenvalue of op = A / d on the nonzero integer vectors of
    ``block``, given their ``images`` under the integer matrix A, read off
    the first by cross-multiplication; None unless every vector is an
    eigenvector with it."""
    pivot = next(i for i, x in enumerate(block[0]) if x)
    num, den = images[0][pivot], block[0][pivot]
    for v, image in zip(block, images):
        if [den * x for x in image] != [num * x for x in v]:
            return None
    return _F(num, d * den)


class SpinorBlockSpectra(collections.namedtuple(
        "SpinorBlockSpectra", "p_values q_values")):
    """Eigenvalues of P and Q on span(psi), {u.psi}, span(Vol.psi)."""

    __slots__ = ()


def spinor_decomposition_spectra(rep, psi):
    """Eigenvalues of Clifford multiplication by P and Q on the three blocks
    of S = span(psi) + {u.psi} + span(Vol.psi).  The eight vectors spanning
    those blocks are orthonormal: <e_A psi, e_B psi> = psi^T e_A^T e_B psi,
    and e_A^T e_B is 1 for A = B and otherwise +-e_{A xor B}, a skew blade
    of grade 1, 2, 5 or 6.  Runs on psi~ = d psi and the integer 8x8
    matrices of d^2 P and d^2 Q, so eigenvalues carry d^2."""
    rec = _spinor(rep, psi)
    spinor, d2 = rec.spinor, rec.d2
    basis = [tuple(spinor)]
    basis += [_apply(rep.blades[1 << a], spinor) for a in range(DIM)]
    basis.append(_apply(rep.blades[VOL_MASK], spinor))
    blocks = (basis[:1], basis[1:7], basis[7:])
    spectra = [tuple(_block_value([ratlinalg.mat_vec(mat, v) for v in b], b, d2)
                     for b in blocks)
               for mat in (_matrix_of(rep, rec.p), _matrix_of(rep, rec.q))]
    if None in spectra[0] + spectra[1]:
        raise ConsistencyError("P or Q is not scalar on a spinor block")
    return SpinorBlockSpectra(*spectra)


def complex_structure(rep, psi):
    """The almost complex structure J with (J u) . psi = Vol . u . psi.

    Returns J as a 6x6 exact matrix (columns are images of the basis
    vectors).  Vol . e_a . psi lies in the span of the orthonormal e_b . psi,
    as psi^T Vol e_a psi = 0 (a skew blade of grade 5) and
    <Vol psi, Vol e_a psi> = psi^T e_a psi = 0; J is the matrix of the
    orthogonal Vol with Vol^2 = -1 on that span, so J^2 = -1 and J^T = -J.
    Verifies that the two-form omega defined by Tr(omega . u . v)/8 =
    -g(u, J v) equals *Q, the trace being 8 times the scalar part of
    omega u v.
    """
    rec = _spinor(rep, psi)
    return _fraction_matrix(rec.j(), rec.d2)


def _fraction_matrix(mat, d2):
    return [[_F(x, d2) for x in row] for row in mat]


def _scalar_matrix(c, n):
    return [[c * (a == b) for b in range(n)] for a in range(n)]


def _complex_structure(rep, spinor, q):
    """d^2 J, an integer matrix, from psi~ = d psi and d^2 Q.  The e_a psi~
    are orthogonal of norm d^2 and span Vol e_a psi~
    (:func:`complex_structure`), so d^2 J_ba = <e_b psi~, Vol e_a psi~>."""
    images = [_apply(rep.blades[1 << a], spinor) for a in range(DIM)]
    targets = [_apply(rep.blades[VOL_MASK], v) for v in images]
    j = [[ratlinalg.dot(u, t) for t in targets] for u in images]
    # With e_a e_b = s(a, b) e_m for m = a xor b, the scalar part of
    # omega e_a e_b is s(m, m) s(a, b) omega_m.
    omega = q.star().coeffs
    signs = _product_signs()
    for a in range(DIM):
        for b in range(DIM):
            m = (1 << a) ^ (1 << b)
            if signs[m][m] * signs[1 << a][1 << b] * omega[m] != -j[a][b]:
                raise IdentityViolationError("kahler-form-trace")
    return j


# ---------------------------------------------------------------------------
# Identity suite


class CheckResult(collections.namedtuple(
        "CheckResult", "name description passed")):
    """One named identity of the suite and its verdict."""

    __slots__ = ()


@functools.cache
def _algebra_identities():
    """Verdicts (grade-brackets, vector-sandwich, degree-identities,
    three-form-square, contraction-norm), proved on basis blades.

    Grade-brackets and vector-sandwich involve only the algebra, and both
    sides are bilinear in (alpha, beta), respectively linear in eps.  So
    checking alpha = e_i against every blade beta of grade 1-3, and
    eps = e_i, is a proof.  On blades e_i e_B = s(i, B) e_{i xor B};
    e_i ^ e_B is that product when i is not in B and 0 otherwise;
    e_i -| e_B is the contraction sign times e_{i xor B} when i is in B and
    0 otherwise.

    The other three hold for every three-form P and four-form Q.  The
    degree identities are linear: sum_a e_a ^ (e_a -| e_K) = k e_K is
    checked on the four-blades and, as * maps three-blades to three-blades
    up to sign, on the three-blades for *P (e_a ^ e_a ^ P and
    e_a ^ e_a ^ *Q vanish).  Three-form-square and contraction-norm are
    quadratic in P, so they are checked in polarised form on the unordered
    pairs (x, y) of three-blades, where every term lies on e_{x xor y}.
    """
    signs = _product_signs()

    def bits(mask):
        return [1 << i for i in range(DIM) if mask >> i & 1]

    def inner(x, y):
        # <e_x, e_y> is the scalar part of e_x^T e_y: the blades are
        # orthonormal, and e_x^T = (-1)^(k(k+1)/2) e_x for grade k, as the
        # blades are ordered products of skew generators (build_rep)
        if x != y:
            return 0
        return (1 if _GRADES[x] in (0, 3, 4) else -1) * signs[x][x]

    brackets = True
    for bit in (1 << i for i in range(DIM)):
        for mask in (m for m in range(1, N_BLADES) if _GRADES[m] <= 3):
            ab, ba = signs[bit][mask], signs[mask][bit]
            wedge, contr = (0, _contraction_sign(bit, mask)) if mask & bit else (ab, 0)
            # odd grade: [a, b] = 2 a ^ b, {a, b} = -2 a -| b; even: swapped
            comm, anti = (wedge, -contr) if _GRADES[mask] % 2 else (-contr, wedge)
            brackets &= ab - ba == 2 * comm and ab + ba == 2 * anti
    # e_a e_i e_a = s(a, i) s(a xor i, a) e_i
    sandwich = all(
        sum(signs[1 << a][1 << i] * signs[(1 << a) ^ (1 << i)][1 << a]
            for a in range(DIM)) == 4
        for i in range(DIM)
    )
    # e_a ^ (e_a -| e_K) = c(a, K) s(a, K xor a) e_K for a in K
    degree = all(
        sum(_contraction_sign(bit, k) * signs[bit][k ^ bit] for bit in bits(k))
        == _GRADES[k]
        for k in range(N_BLADES) if _GRADES[k] in (3, 4)
    )
    # e_x e_y + e_y e_x - 2 <x, y> + sum_a ((e_a -| e_x) ^ (e_a -| e_y) + the
    # same with x, y swapped) = 0 and sum_a <e_a -| e_x, e_a -| e_y> = 3 <x, y>
    threes = [m for m in range(N_BLADES) if _GRADES[m] == 3]
    square = norm = True
    for i, x in enumerate(threes):
        for y in threes[i:]:
            lhs = signs[x][y] + signs[y][x] - 2 * inner(x, y)
            contracted = 0
            for bit in bits(x & y):
                sign = _contraction_sign(bit, x) * _contraction_sign(bit, y)
                u, v = x ^ bit, y ^ bit
                if not u & v:
                    lhs += sign * (signs[u][v] + signs[v][u])
                contracted += sign * inner(u, v)
            square &= lhs == 0
            norm &= contracted == 3 * inner(x, y)
    return brackets, sandwich, degree, square, norm


def verify_identity_suite(rep, psi, raise_on_failure=True):
    """Run the eight named pointwise identities; each must hold exactly.

    Five are proved once per process on basis blades
    (:func:`_algebra_identities`): grade-brackets and vector-sandwich
    involve only the algebra, and degree-identities, three-form-square and
    contraction-norm hold for every three-form P and four-form Q, and
    :func:`_integer_forms` writes d^2 P only at grade-3 blades and d^2 Q
    only at grade-4 ones.  The other three run per spinor,
    with the geometric product, which the representation matches blade for
    blade as its blades are ordered products of generators obeying the
    Clifford relations (:func:`build_rep`), on the integer p, q and d^2 J
    of psi~ = d psi.  Kahler-square reads (*q)^2 = -3 d^4 + 2 d^2 q,
    holomorphic-contraction d^2 v -| (p, *p) = (d^2 J v) -| (-*p, p), and
    torsion-metric-trace scalar({X, p}{Y, p}) = -8 g(X, Y) d^4, which by
    grade-brackets ({e_a, p} = -2 e_a -| p) and scalar(uv) = -<u, v> on
    two-forms is <e_a -| p, e_b -| p> = 2 d^4 delta_ab, the last two on
    the three-form p's contractions (:meth:`_Spinor.contractions`).
    Holomorphic-contraction is checked on its real part R(v) =
    d^2 v -| p + (d^2 J v) -| *p alone: as (d^2 J)^2 = -d^4
    (:func:`complex_structure`), R(d^2 J v) = -d^2 I(v) for the imaginary
    part I(v) = d^2 v -| *p - (d^2 J v) -| p, so R = 0 gives I = 0.
    Returns the list of :class:`CheckResult`; with ``raise_on_failure`` an
    :class:`IdentityViolationError` naming the failed checks is raised at
    the end instead of returning a partially failing report silently.
    """
    rec = _spinor(rep, psi)
    d2, p, q = rec.d2, rec.p, rec.q
    star_p = p.star()
    star_q = q.star()
    j = rec.j()
    brackets, sandwich, degree, square, norm = _algebra_identities()

    def check_kahler_square():
        rhs = Multivector.scalar(-3 * d2 * d2) + q.scale(2 * d2)
        return star_q * star_q == rhs

    def check_holomorphic_contraction():
        # (Jv) -| x = sum_b J_ba (e_b -| x) for v = e_a: the real part on the
        # rows U of the e_a -| p and S of the e_a -| *p is J^T S = -d^2 U
        u = rec.contractions()[0]
        s = [_two_form_coords(star_p.contract_vector(a)) for a in range(1, DIM + 1)]
        return (ratlinalg.mat_mul(ratlinalg.transpose(j), s)
                == [[-d2 * x for x in row] for row in u])

    checks = [
        (
            "grade-brackets",
            "Clifford (anti)commutators of a one-form against odd/even forms "
            "reduce to wedge and contraction",
            lambda: brackets,
        ),
        (
            "degree-identities",
            "sum_a e^a ^ (e^a ^ P + e^a -| Q) = 4Q and "
            "sum_a e^a ^ (-e^a -| *P - e^a ^ *Q) = -3*P",
            lambda: degree,
        ),
        (
            "kahler-square",
            "*Q . *Q = -3 + 2Q",
            check_kahler_square,
        ),
        (
            "holomorphic-contraction",
            "(v - i Jv) -| (P + i *P) = 0 for every basis vector",
            check_holomorphic_contraction,
        ),
        (
            "torsion-metric-trace",
            "-(1/32) Tr({X, P}{Y, P}) = 2 g(X, Y)",
            lambda: brackets
            and rec.contractions()[1] == _scalar_matrix(2 * d2 * d2, DIM),
        ),
        (
            "vector-sandwich",
            "sum_a e^a . eps . e^a = 4 eps for one-forms",
            lambda: sandwich,
        ),
        (
            "three-form-square",
            "P . P = |P|^2 - sum_a (e^a -| P) ^ (e^a -| P)",
            lambda: square,
        ),
        (
            "contraction-norm",
            "sum_a |e^a -| P|^2 = 3 |P|^2",
            lambda: norm,
        ),
    ]
    report = [
        CheckResult(name, description, bool(fn()))
        for name, description, fn in checks
    ]
    failed = [r.name for r in report if not r.passed]
    if failed and raise_on_failure:
        raise IdentityViolationError("failed checks: %s" % ", ".join(failed))
    return report


# ---------------------------------------------------------------------------
# Contraction with Q on two-forms


_PAIRS_2FORM = [(a, b) for a in range(DIM) for b in range(a + 1, DIM)]
_MASKS_2FORM = [(1 << a) | (1 << b) for a, b in _PAIRS_2FORM]


def _two_form_coords(mv):
    return [mv.coeffs[mask] for mask in _MASKS_2FORM]


class TwoFormSpectrum(collections.namedtuple(
        "TwoFormSpectrum",
        "entries omega_eigenvalue minus_one_basis")):
    """Exact spectrum of beta -> beta -| Q on the 15-dimensional space of
    two-forms, the eigenvalue carried by omega, and a basis of the
    (-1)-eigenspace (the su(3) fibre of the instanton condition)."""

    __slots__ = ()


# (four-form blade K, row, column, sign) for each two-form blade M = e_ij
# (i < j) in K: e_M -| e_K = sign e_{K xor M}, contracting by e_i first;
# M is the column and K xor M the row.
_Q_LOOKUP = tuple(
    (k, _MASKS_2FORM.index(k ^ m), col,
     _contraction_sign(1 << i, k) * _contraction_sign(1 << j, k ^ (1 << i)))
    for k in range(N_BLADES) if _popcount(k) == 4
    for col, ((i, j), m) in enumerate(zip(_PAIRS_2FORM, _MASKS_2FORM))
    if k & m == m
)


def _q_operator(q, e):
    """(d, A) with A / d the matrix of beta -> beta -| (q / e) in lowest
    terms, for an integer form q and e > 0: A is the integer matrix of
    contraction with q, read off q's four-form coefficients by signed
    lookups, divided by its common factor with e."""
    n = len(_MASKS_2FORM)
    a = [[0] * n for _ in range(n)]
    for k, row, col, sign in _Q_LOOKUP:
        a[row][col] = sign * q.coeffs[k]
    g = math.gcd(e, *(x for r in a for x in r))
    return e // g, [[x // g for x in r] for r in a]


def q_contraction_spectrum(rep, psi):
    """Classify contraction with Q on two-forms, exactly.

    J acts on two-forms by S -> J^T S J on their skew matrices S, with
    eigenvalue +1 on the J-invariant forms and -1 on the rest.  That
    splits the two-forms into the J-type blocks R omega + Lambda^2_6 +
    Lambda^2_8: Lambda^2_6 = {X -| P} is the (-1)-eigenspace (Chiossi and
    Salamon, "The intrinsic torsion of SU(3) and G2 structures", 2002),
    so the e_a -| P must lie in it, orthogonal of norm 2, and Lambda^2_8 is
    the J-invariant forms orthogonal to omega, the su(3) fibre of the
    instanton condition.  The blocks lie in different eigenspaces of that
    action, or in the orthogonal complement of omega, so their sum is
    direct; with dimensions 1, 6 and 8 it is all 15 dimensions, and an
    operator that is one scalar on each block is diagonalizable with those
    scalars as its whole spectrum.  Anything else raises
    ``SpectrumError``, as does a (-1)-eigenspace that is not
    eight-dimensional (so not Lambda^2_8).  Lambda^2_8 is then su(3), the
    skew endomorphisms commuting with J and orthogonal to it, which is
    closed under the commutator bracket; the tests check that closure on
    the returned basis.

    The checks run on integers: A = d op for the common denominator d of
    op (:func:`_q_operator`), applied through its nonzero entries; K =
    e^2 (S -> J^T S J), read off e J for e = d^2 of psi~ = d psi; omega,
    whose skew matrix is e J entry for entry (kahler-form-trace,
    :func:`_complex_structure`), so K omega = e^2 omega as J^T J J = J; the
    record's u_a = e_a -| d^2 P, with K u_a = -e^2 u_a and Gram matrix
    2 e^2; the integer kernel of the u_a and omega, which gives Lambda^2_8
    and the returned basis; and each scalar read by cross-multiplication
    (:func:`_block_value`).  J is skew with J^2 = -1, being the matrix of
    Vol on the orthonormal e_a psi (:func:`complex_structure`), so K is
    symmetric with K^2 = e^4 and trace 3 e^2: its (-1)-eigenspace has
    dimension 6 and is spanned by the orthogonal u_a, and the kernel of
    the u_a and omega is the J-invariant forms orthogonal to omega, with
    the reduced row echelon basis that the kernel of [K - e^2; omega] has.
    """
    rec = _spinor(rep, psi)
    e, q_int = rec.d2, rec.q
    d, a_int = _q_operator(q_int, e)
    rows = [([c for c, x in enumerate(r) if x], [x for x in r if x]) for r in a_int]
    j = rec.j()
    e2 = e * e
    # (J^T S J)_ab = sum over c < f of S_cf (J_ca J_fb - J_fa J_cb)
    k = [[j[c][a] * j[f][b] - j[f][a] * j[c][b] for c, f in _PAIRS_2FORM]
         for a, b in _PAIRS_2FORM]
    omega = _two_form_coords(q_int.star())
    six, gram = rec.contractions()
    if any(ratlinalg.mat_vec(k, u) != [-e2 * x for x in u] for u in six):
        raise SpectrumError("some e_a -| P is not J-anti-invariant")
    if gram != _scalar_matrix(2 * e2, DIM):
        raise SpectrumError("the e_a -| P are not orthogonal of norm 2")
    su3 = ratlinalg.integer_nullspace(six + [omega])
    if len(su3) != 8:
        raise SpectrumError("Lambda^2_8 has dimension %d, not 8" % len(su3))
    blocks = [[omega], six, [w for _, w in su3]]
    values = [_block_value([[sum(map(operator.mul, xs, map(v.__getitem__, cs)))
                             for cs, xs in rows] for v in b], b, d) for b in blocks]
    for value, name in zip(values, ("omega", "Lambda^2_6", "Lambda^2_8")):
        if value is None:
            raise SpectrumError("contraction by Q is not scalar on %s" % name)
    dims = collections.Counter()
    for value, b in zip(values, blocks):
        dims[value] += len(b)
    if dims[-1] != 8:
        raise SpectrumError("(-1)-eigenspace has dimension %d, not 8" % dims[-1])
    zero = _F(0)
    return TwoFormSpectrum(
        entries=tuple(sorted(dims.items())),
        omega_eigenvalue=values[0],
        minus_one_basis=tuple(tuple(_F(x, w[c]) if x else zero for x in w)
                              for c, w in su3),
    )
