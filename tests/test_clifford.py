import os
import pathlib
import random
import re
import subprocess
import sys
import types
from fractions import Fraction as F

import pytest

from nkdeform import clifford, ratlinalg
from nkdeform.clifford import Multivector
from nkdeform.errors import (
    ConsistencyError,
    ConventionError,
    IdentityViolationError,
    SpectrumError,
)

import clifford_oracle as oracle

PSI = clifford.STANDARD_SPINOR
# further exact unit spinors for invariance spot checks
PSI_B = oracle.PSI_B
PSI_C = (F(1, 2), F(1, 2), F(1, 2), F(0), F(0), F(0), F(1, 2), F(0))


@pytest.fixture(autouse=True)
def empty_spinor_memo():
    """Each test starts with an empty per-spinor memo, and no record a test
    derived under its patches outlives it."""
    clifford._last_spinor = None
    yield
    clifford._last_spinor = None


def test_generator_relations(rep):
    ident = oracle.identity(8)
    blades = oracle.dense_blades(rep)
    for a in range(6):
        ga = blades[1 << a]
        assert ratlinalg.mat_mul(ga, ga) == oracle.mat_scale(ident, -1)
        assert ratlinalg.transpose(ga) == oracle.mat_scale(ga, -1)
        for b in range(a + 1, 6):
            gb = blades[1 << b]
            assert ratlinalg.mat_mul(ga, gb) == oracle.mat_scale(
                ratlinalg.mat_mul(gb, ga), -1
            )


def test_blade_transpose_symmetry_by_grade(rep):
    blades = oracle.dense_blades(rep)
    for mask in range(64):
        blade = blades[mask]
        grade = bin(mask).count("1")
        symmetric = ratlinalg.transpose(blade) == blade
        assert symmetric == (grade in (0, 3, 4))


def test_volume_squares_to_minus_one(rep):
    vol = oracle.dense_blades(rep)[0b111111]
    assert ratlinalg.mat_mul(vol, vol) == oracle.mat_scale(
        oracle.identity(8), -1
    )


def test_example_blade_symmetry(rep):
    e123 = oracle.dense_blades(rep)[0b000111]
    assert ratlinalg.transpose(e123) == e123


def test_matrix_multivector_round_trip():
    import random

    rng = random.Random(3)
    coeffs = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(64)]
    mv = Multivector(tuple(coeffs))
    assert oracle.multivector(oracle.matrix(mv)) == mv


def test_hodge_star_involution_signs():
    for mask in range(64):
        k = bin(mask).count("1")
        mv = Multivector.blade(mask)
        twice = mv.star().star()
        sign = -1 if (k * (6 - k)) % 2 else 1
        assert twice == mv.scale(sign)


def test_wedge_grading():
    # wedge of a k-form and l-form is pure grade k+l
    import random

    rng = random.Random(9)
    for _ in range(10):
        k = rng.randint(0, 3)
        l = rng.randint(0, 3)
        a = oracle.random_form(rng, k)
        b = oracle.random_form(rng, l)
        w = oracle.wedge(a, b)
        assert oracle.is_zero(w) or oracle.grades(w) == [k + l]


def test_extract_pq(rep):
    p, q = clifford.extract_PQ(rep, PSI)
    assert oracle.grades(p) == [3]
    assert oracle.grades(q) == [4]
    assert p.norm_sq() == 4
    assert q.norm_sq() == 3


def test_extract_pq_grade_zero_is_one():
    m = [[8 * PSI[i] * PSI[j] for j in range(8)] for i in range(8)]
    mv = oracle.multivector(m)
    assert mv.coeffs[0] == 1
    for mask in range(1, 64):
        if bin(mask).count("1") in (1, 2, 5, 6):
            assert mv.coeffs[mask] == 0


def test_extract_pq_rejects_non_unit(rep):
    with pytest.raises(ConventionError):
        clifford.extract_PQ(rep, (F(1), F(1)) + (F(0),) * 6)


def test_spinor_block_eigenvalue_table(rep):
    spectra = clifford.spinor_decomposition_spectra(rep, PSI)
    assert spectra.p_values == (4, 0, -4)
    assert spectra.q_values == (-3, 1, -3)


def test_p_acts_with_eigenvalue_four_on_psi(rep):
    p, q = clifford.extract_PQ(rep, PSI)
    assert rep.act(p, PSI) == tuple(4 * x for x in PSI)
    assert rep.act(q, PSI) == tuple(-3 * x for x in PSI)


def test_one_form_block_is_six_dimensional(rep):
    vectors = [rep.act(Multivector.vector(a), PSI) for a in range(1, 7)]
    assert len(oracle.rref([list(v) for v in vectors])[1]) == 6


def test_complex_structure(rep):
    j = clifford.complex_structure(rep, PSI)
    assert ratlinalg.mat_mul(j, j) == oracle.mat_scale(
        oracle.identity(6), -1
    )
    assert ratlinalg.mat_mul(ratlinalg.transpose(j), j) == oracle.identity(6)


def test_identity_suite_all_pass(rep):
    report = clifford.verify_identity_suite(rep, PSI)
    assert len(report) == 8
    assert all(r.passed for r in report)
    names = {r.name for r in report}
    assert names == {
        "grade-brackets",
        "degree-identities",
        "kahler-square",
        "holomorphic-contraction",
        "torsion-metric-trace",
        "vector-sandwich",
        "three-form-square",
        "contraction-norm",
    }


def test_kahler_square_exact_matrices(rep):
    _, q = clifford.extract_PQ(rep, PSI)
    lhs = ratlinalg.mat_mul(oracle.matrix(q.star()), oracle.matrix(q.star()))
    rhs = oracle.matrix(Multivector.scalar(-3) + q.scale(2))
    assert lhs == rhs


def test_torsion_metric_trace_diagonal_value(rep):
    p, _ = clifford.extract_PQ(rep, PSI)
    pm = oracle.matrix(p)
    x = oracle.matrix(Multivector.vector(1))
    anti = oracle.mat_add(ratlinalg.mat_mul(x, pm), ratlinalg.mat_mul(pm, x))
    assert -oracle.trace(ratlinalg.mat_mul(anti, anti)) / 32 == 2


def test_vector_sandwich_on_basis(rep):
    blades = oracle.dense_blades(rep)
    g3 = blades[1 << 2]
    acc = [[F(0)] * 8 for _ in range(8)]
    for a in range(6):
        ga = blades[1 << a]
        acc = oracle.mat_add(acc, ratlinalg.mat_mul(ga, ratlinalg.mat_mul(g3, ga)))
    assert acc == oracle.mat_scale(g3, 4)


def test_q_contraction_spectrum(rep):
    spectrum = clifford.q_contraction_spectrum(rep, PSI)
    assert spectrum.entries == ((F(-1), 8), (F(1), 6), (F(2), 1))
    assert sum(d for _, d in spectrum.entries) == 15
    assert spectrum.omega_eigenvalue == 2
    assert len(spectrum.minus_one_basis) == 8


def test_su3_eigenspace_dimension_by_independent_elimination(rep):
    # independent route: raw fraction Gaussian elimination on (op + 1)
    op = oracle.q_contraction_operator(rep, PSI)
    m = [[op[i][j] + (1 if i == j else 0) for j in range(15)] for i in range(15)]
    pivots = 0
    for col in range(15):
        row = next((r for r in range(pivots, 15) if m[r][col] != 0), None)
        if row is None:
            continue
        m[pivots], m[row] = m[row], m[pivots]
        m[pivots] = [x / m[pivots][col] for x in m[pivots]]
        for r in range(15):
            if r != pivots and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[pivots])]
        pivots += 1
    assert 15 - pivots == 8


def _projector(spectrum):
    """The projector onto the (-1)-eigenspace, built from its basis B as
    the orthogonal projector B (B^T B)^-1 B^T: contraction with a four-form
    is symmetric on two-forms, so its eigenspaces are orthogonal."""
    b = ratlinalg.transpose(spectrum.minus_one_basis)
    gram_inverse = ratlinalg.inverse(ratlinalg.mat_mul(ratlinalg.transpose(b), b))
    return ratlinalg.mat_mul(ratlinalg.mat_mul(b, gram_inverse), ratlinalg.transpose(b))


def test_q_contraction_projector(rep):
    spectrum = clifford.q_contraction_spectrum(rep, PSI)
    proj = _projector(spectrum)
    assert tuple(map(tuple, proj)) == oracle.q_spectrum(PSI)[3]
    assert ratlinalg.mat_mul(proj, proj) == proj
    assert len(oracle.rref(proj)[1]) == 8
    op = oracle.q_contraction_operator(rep, PSI)
    # projector annihilates omega
    omega = oracle.kahler_form(PSI)
    coords = clifford._two_form_coords(omega)
    assert ratlinalg.mat_vec(proj, coords) == [F(0)] * 15
    # images are (-1)-eigenvectors
    for col in range(15):
        v = [proj[r][col] for r in range(15)]
        assert ratlinalg.mat_vec(op, v) == [-x for x in v]


@pytest.mark.parametrize("psi", [PSI_B, PSI_C])
def test_invariants_do_not_depend_on_the_unit_spinor(rep, psi):
    p, _ = clifford.extract_PQ(rep, psi)
    assert p.norm_sq() == 4
    spectra = clifford.spinor_decomposition_spectra(rep, psi)
    assert spectra.p_values == (4, 0, -4)
    assert spectra.q_values == (-3, 1, -3)
    spectrum = clifford.q_contraction_spectrum(rep, psi)
    assert spectrum.entries == ((F(-1), 8), (F(1), 6), (F(2), 1))
    report = clifford.verify_identity_suite(rep, psi)
    assert all(r.passed for r in report)


def test_contraction_convention():
    # u -| (a ^ b) = (u -| a) ^ b + (-1)^|a| a ^ (u -| b)
    import random

    rng = random.Random(31)
    for _ in range(6):
        ka = rng.randint(1, 3)
        kb = rng.randint(1, 3)
        a = oracle.random_form(rng, ka)
        b = oracle.random_form(rng, kb)
        for u in range(1, 7):
            lhs = oracle.wedge(a, b).contract_vector(u)
            rhs = oracle.wedge(a.contract_vector(u), b) + oracle.wedge(
                a, b.contract_vector(u)
            ).scale((-1) ** ka)
            assert oracle.is_zero(lhs - rhs)


def test_star_normalization():
    assert Multivector.scalar(1).star() == Multivector.blade(0b111111)
    assert Multivector.blade(0b111111).star() == Multivector.scalar(1)


def test_rep_blades_are_ordered_products_of_dense_generators(rep):
    assert len(oracle.dense_blades(rep)) == 64


def test_geometric_product_matches_blade_matrices(rep):
    blades = oracle.dense_blades(rep)
    for a in range(64):
        for b in range(64):
            prod = Multivector.blade(a) * Multivector.blade(b)
            sign = prod.coeffs[a ^ b]
            assert prod == Multivector.blade(a ^ b, sign)
            assert ratlinalg.mat_mul(blades[a], blades[b]) == [
                [sign * x for x in row] for row in blades[a ^ b]
            ]


@pytest.mark.parametrize("psi", [PSI, PSI_B])
def test_fast_path_matches_matrix_route(rep, psi):
    p, q = clifford.extract_PQ(rep, psi)
    assert (p, q) == oracle.extract_PQ(psi)
    report = clifford.verify_identity_suite(rep, psi, raise_on_failure=False)
    assert [(r.name, r.passed) for r in report] == oracle.identity_suite(psi)
    assert clifford.complex_structure(rep, psi) == oracle.complex_structure(psi)
    spectrum = clifford.q_contraction_spectrum(rep, psi)
    assert _spectrum_fields(spectrum) == oracle.q_spectrum(psi)
    spinors = [oracle.act_matrix(b, psi) for b in oracle.dense_blades(rep)]
    for mv in (p, q, p.star() + q):
        mat = oracle.matrix(mv)
        for spinor in spinors:
            assert rep.act(mv, spinor) == oracle.act_matrix(mat, spinor)


def _corrupt_sign(table):
    sign, row = table[(1, 0)]
    table[(1, 0)] = (-sign, row)


def _corrupt_row(table):
    table[(1, 0)] = table[(1, 1)]


@pytest.mark.parametrize("corrupt", [_corrupt_sign, _corrupt_row])
def test_build_rep_rejects_a_corrupt_octonion_table(monkeypatch, corrupt):
    # build_rep is cached per process: cleared before the patch so that the
    # corrupt table is read, and after it so that no later call sees it.
    table = clifford._octonion_table()
    corrupt(table)
    clifford.build_rep.cache_clear()
    monkeypatch.setattr(clifford, "_octonion_table", lambda: table)
    try:
        with pytest.raises(ConsistencyError):
            clifford.build_rep()
    finally:
        monkeypatch.undo()
        clifford.build_rep.cache_clear()


def test_build_rep_runs_once_per_process():
    code = (
        "from nkdeform import clifford\n"
        "table, calls = clifford._octonion_table, []\n"
        "clifford._octonion_table = lambda: calls.append(1) or table()\n"
        "reps = [clifford.build_rep() for _ in range(3)]\n"
        "print(all(r is reps[0] for r in reps), len(calls))\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert (proc.returncode, proc.stdout) == (0, "True 1\n"), proc.stderr


# Patterns (numerators, denominator) of dense rational unit spinors, each
# taken with a seeded permutation and seeded signs.
DENSE_SPINOR_PATTERNS = (
    ((2, 3, 6, 0, 0, 0, 0, 0), 7),
    ((1, 1, 1, 1, 0, 0, 0, 0), 2),
    ((1, 1, 1, 1, 1, 1, 1, 3), 4),
)


def _seeded_spinor(pattern, seed):
    import random

    numerators, den = pattern
    rng = random.Random(seed)
    v = list(numerators)
    rng.shuffle(v)
    return tuple(F(x * rng.choice((1, -1)), den) for x in v)


def _spectrum_fields(spectrum):
    """The spectrum's fields with the projector built from its basis, in
    the order of ``oracle.q_spectrum``."""
    return (
        spectrum.entries,
        spectrum.omega_eigenvalue,
        spectrum.minus_one_basis,
        tuple(map(tuple, _projector(spectrum))),
    )


@pytest.mark.parametrize("pattern", DENSE_SPINOR_PATTERNS)
def test_q_spectrum_matches_dense_oracle_on_dense_spinors(rep, pattern):
    psi = _seeded_spinor(pattern, 101)
    spectrum = clifford.q_contraction_spectrum(rep, psi)
    fields = _spectrum_fields(spectrum)
    assert fields == oracle.q_spectrum(psi)
    assert type(spectrum.omega_eigenvalue) is F
    for mat in fields[2:]:
        assert all(type(x) is F for row in mat for x in row)


def _spectrum_operator(rep, psi):
    op = oracle.q_contraction_operator(rep, psi)
    d, a_int = ratlinalg.integer_scaled(op)
    return op, d, a_int


def _integer_skews(vectors):
    return [oracle.skew_matrix(ratlinalg.primitive(v)) for v in vectors]


def test_bracket_closure_accepts_the_minus_one_eigenspace(rep):
    _, d, a_int = _spectrum_operator(rep, PSI_B)
    basis = clifford.q_contraction_spectrum(rep, PSI_B).minus_one_basis
    oracle.check_bracket_closure(a_int, d, _integer_skews(basis))


@pytest.mark.parametrize(
    "psi", [PSI] + [_seeded_spinor(p, 101) for p in DENSE_SPINOR_PATTERNS],
    ids=["standard", "dense-2-3-6", "dense-1111", "dense-1111111-3"])
def test_minus_one_basis_is_bracket_closed(rep, psi):
    # Lambda^2_8 is su(3), so the brackets of the returned basis stay in the
    # (-1)-eigenspace of the dense oracle's operator.
    d, a_int = ratlinalg.integer_scaled(oracle.q_operator(psi))
    basis = clifford.q_contraction_spectrum(rep, psi).minus_one_basis
    assert len(basis) == 8
    oracle.check_bracket_closure(a_int, d, _integer_skews(basis))


def test_bracket_closure_rejects_a_subspace_that_is_not_closed(rep):
    # Seven su(3) vectors and one (+1)-eigenvector: [su(3), m] lies in the
    # (+1)-eigenspace m, so this eight-dimensional subspace is not closed.
    op, d, a_int = _spectrum_operator(rep, PSI_B)
    basis = clifford.q_contraction_spectrum(rep, PSI_B).minus_one_basis
    plus_one = ratlinalg.nullspace(
        oracle.mat_sub(op, oracle.identity(len(op)))
    )
    subspace = list(basis[:7]) + [plus_one[0]]
    assert len(oracle.rref(subspace)[1]) == 8
    with pytest.raises(SpectrumError, match="bracket-closed"):
        oracle.check_bracket_closure(a_int, d, _integer_skews(subspace))


def test_complex_structure_refuses_a_volume_element_off_the_span(rep):
    # With e_1 in place of Vol, Vol . e_1 . psi = -psi, which is orthogonal
    # to every e_b . psi.
    blades = list(rep.blades)
    blades[clifford.VOL_MASK] = blades[1]
    broken = rep._replace(blades=tuple(blades))
    with pytest.raises(ConsistencyError, match="span"):
        clifford.complex_structure(broken, PSI)


def _operator_on_blocks(rep, psi, values):
    """A replacement ``_q_operator`` for the matrix with the 15 eigenvalues
    ``values`` on omega, then the basis of the (+1)-eigenspace of the true
    operator (Lambda^2_6), then that of its (-1)-eigenspace (Lambda^2_8)."""
    op = oracle.q_contraction_operator(rep, psi)
    blocks = [
        [clifford._two_form_coords(oracle.kahler_form(psi))],
        ratlinalg.nullspace(oracle.mat_sub(op, oracle.identity(len(op)))),
        list(clifford.q_contraction_spectrum(rep, psi).minus_one_basis),
    ]
    basis = ratlinalg.transpose([v for block in blocks for v in block])
    scaled = [[x * lam for x, lam in zip(row, values)] for row in basis]
    moved = ratlinalg.mat_mul(scaled, ratlinalg.inverse(basis))
    return lambda q, e: ratlinalg.integer_scaled(moved)


def test_q_spectrum_refuses_a_one_dimensional_minus_one_eigenspace(
    rep, monkeypatch
):
    # -1 on omega only, and one scalar on each J-type block: the blocks
    # give the whole spectrum, and only the dimension check can refuse it.
    values = [-1] + [1] * 6 + [2] * 8
    monkeypatch.setattr(clifford, "_q_operator", _operator_on_blocks(rep, PSI, values))
    with pytest.raises(SpectrumError, match="dimension 1, not 8"):
        clifford.q_contraction_spectrum(rep, PSI)


@pytest.mark.parametrize(
    "values,block",
    [
        # seven of the eight su(3) directions moved to eigenvalue +1
        ([2] + [1] * 6 + [-1] + [1] * 7, "Lambda^2_8"),
        ([2] + [1] * 5 + [3] + [-1] * 8, "Lambda^2_6"),
    ],
    ids=["Lambda^2_8", "Lambda^2_6"],
)
def test_q_spectrum_refuses_an_operator_not_scalar_on_a_j_type_block(
    rep, monkeypatch, values, block
):
    # Diagonalizable with rational eigenvalues, but an eigenspace cuts
    # across a J-type block.
    monkeypatch.setattr(clifford, "_q_operator", _operator_on_blocks(rep, PSI, values))
    with pytest.raises(SpectrumError, match=re.escape("not scalar on " + block)):
        clifford.q_contraction_spectrum(rep, PSI)


@pytest.mark.parametrize(
    "diagonal,match",
    [
        # J = 1: every two-form is J-invariant, so Lambda^2_6 is empty
        ([1] * 6, r"dimensions \[1, 0, 14\]"),
        # J = diag(-1, 1, ..., 1) flips the e_12 part of omega
        ([-1] + [1] * 5, "omega is not J-invariant"),
    ],
    ids=["identity", "one-sign-flipped"],
)
def test_q_spectrum_refuses_a_complex_structure_that_does_not_split_two_forms(
    rep, monkeypatch, diagonal, match
):
    monkeypatch.setattr(
        clifford, "_complex_structure",
        lambda rep, spinor, e, q: [[e * x if a == b else 0 for b in range(6)]
                                   for a, x in enumerate(diagonal)],
    )
    with pytest.raises(SpectrumError, match=match):
        clifford.q_contraction_spectrum(rep, PSI)


def _benchmark_spinors(seed):
    """The three seeded spinors of a clifford-spinors benchmark round of
    that seed: one generator draws all three, pattern by pattern."""
    rng = random.Random(seed)
    out = []
    for numerators, den in DENSE_SPINOR_PATTERNS:
        v = list(numerators)
        rng.shuffle(v)
        out.append(tuple(F(x * rng.choice((1, -1)), den) for x in v))
    return out


ORACLE_SPINORS = [PSI, PSI_B, PSI_C] + [
    psi for seed in range(101, 111) for psi in _benchmark_spinors(seed)
]

REPORT = [
    (
        "grade-brackets",
        "Clifford (anti)commutators of a one-form against odd/even forms "
        "reduce to wedge and contraction",
    ),
    (
        "degree-identities",
        "sum_a e^a ^ (e^a ^ P + e^a -| Q) = 4Q and "
        "sum_a e^a ^ (-e^a -| *P - e^a ^ *Q) = -3*P",
    ),
    ("kahler-square", "*Q . *Q = -3 + 2Q"),
    (
        "holomorphic-contraction",
        "(v - i Jv) -| (P + i *P) = 0 for every basis vector",
    ),
    ("torsion-metric-trace", "-(1/32) Tr({X, P}{Y, P}) = 2 g(X, Y)"),
    ("vector-sandwich", "sum_a e^a . eps . e^a = 4 eps for one-forms"),
    ("three-form-square", "P . P = |P|^2 - sum_a (e^a -| P) ^ (e^a -| P)"),
    ("contraction-norm", "sum_a |e^a -| P|^2 = 3 |P|^2"),
]


def _all_fractions(values):
    return all(type(x) is F for x in values)


@pytest.mark.parametrize("index", range(len(ORACLE_SPINORS)))
def test_integer_route_matches_the_oracle(rep, index):
    psi = ORACLE_SPINORS[index]
    p, q = clifford.extract_PQ(rep, psi)
    assert (p, q) == oracle.extract_PQ(psi)
    assert _all_fractions(p.coeffs + q.coeffs)

    blocks = clifford.spinor_decomposition_spectra(rep, psi)
    assert (blocks.p_values, blocks.q_values) == oracle.block_spectra(psi)
    assert _all_fractions(blocks.p_values + blocks.q_values)

    j = clifford.complex_structure(rep, psi)
    assert j == oracle.complex_structure(psi)
    assert _all_fractions(x for row in j for x in row)

    spectrum = clifford.q_contraction_spectrum(rep, psi)
    eigenvalues = [lam for lam, _ in spectrum.entries]
    assert _spectrum_fields(spectrum) == oracle.q_spectrum(psi, eigenvalues)
    assert _all_fractions(eigenvalues + [spectrum.omega_eigenvalue])
    assert all(type(dim) is int for _, dim in spectrum.entries)
    for mat in _spectrum_fields(spectrum)[2:]:
        assert _all_fractions(x for row in mat for x in row)

    report = clifford.verify_identity_suite(rep, psi)
    assert all(type(r) is clifford.CheckResult for r in report)
    assert [(r.name, r.description) for r in report] == REPORT
    assert [r.passed for r in report] == [True] * 8
    assert all(type(r.passed) is bool for r in report)


@pytest.mark.parametrize("index", range(len(ORACLE_SPINORS)))
def test_eigenspace_dimensions_match_the_charpoly_route(rep, index):
    psi = ORACLE_SPINORS[index]
    op = oracle.q_contraction_operator(rep, psi)
    assert op == oracle.q_operator(psi)
    assert _all_fractions(x for row in op for x in row)
    _, e, _, q = clifford._integer_forms(rep, psi)
    assert clifford._q_operator(q, e) == ratlinalg.integer_scaled(op)
    entries = clifford.q_contraction_spectrum(rep, psi).entries
    assert dict(entries) == oracle.charpoly_spectrum(op) == {F(-1): 8, F(1): 6, F(2): 1}
    assert all(type(lam) is F and type(dim) is int for lam, dim in entries)


@pytest.mark.parametrize(
    "name,form,mask",
    [
        # Degree-identities, three-form-square and contraction-norm hold for
        # every three-form P and four-form Q, so only a coefficient off those
        # grades breaks them; a changed four-form coefficient of Q changes
        # omega = *Q too, which the complex structure refuses first, but a
        # three-form coefficient of Q leaves omega alone.
        ("degree-identities", "p", 0b000011),
        ("degree-identities", "q", 0b000111),
        ("kahler-square", "q", 0b000011),
        ("holomorphic-contraction", "p", 0b000111),
        ("torsion-metric-trace", "p", 0b000111),
        ("three-form-square", "p", 0b000011),
        ("contraction-norm", "p", 0b000011),
    ],
)
def test_a_changed_integer_form_fails_its_identity(rep, monkeypatch, name, form, mask):
    true_forms = clifford._integer_forms

    def changed_forms(rep, psi):
        spinor, d2, p, q = true_forms(rep, psi)
        mv = p if form == "p" else q
        coeffs = list(mv.coeffs)
        coeffs[mask] += 1
        mv = Multivector(tuple(coeffs))
        return (spinor, d2, mv, q) if form == "p" else (spinor, d2, p, mv)

    monkeypatch.setattr(clifford, "_integer_forms", changed_forms)
    report = clifford.verify_identity_suite(rep, PSI_B, raise_on_failure=False)
    assert {r.name: r.passed for r in report}[name] is False


def test_a_changed_four_form_fails_the_kahler_form_trace(rep, monkeypatch):
    # J is read off the spinor alone, omega = *Q off the forms: a changed
    # four-form coefficient of Q moves omega off J's Kahler form.
    true_forms = clifford._integer_forms

    def changed_forms(rep, psi):
        spinor, d2, p, q = true_forms(rep, psi)
        coeffs = list(q.coeffs)
        coeffs[0b001111] += 1
        return spinor, d2, p, Multivector(tuple(coeffs))

    monkeypatch.setattr(clifford, "_integer_forms", changed_forms)
    with pytest.raises(IdentityViolationError, match="kahler-form-trace"):
        clifford.complex_structure(rep, PSI_B)


def test_product_sign_table_matches_the_closed_formula():
    table = clifford._product_signs.__wrapped__()
    assert table == tuple(
        tuple(oracle.product_sign(a, b) for b in range(64)) for a in range(64)
    )


def test_basis_proof_agrees_with_the_sampled_route():
    rng = random.Random(1729)
    sampled = (oracle.sampled_brackets(rng), oracle.sampled_sandwich(rng))
    sampled += oracle.sampled_form_identities(rng)
    assert clifford._algebra_identities() == sampled == (True,) * 5


def test_basis_proof_is_lazy_and_runs_once_per_process(rep):
    code = (
        "from nkdeform import clifford\n"
        "clifford.build_rep()\n"
        "print(clifford._algebra_identities.cache_info().misses)\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr
    clifford._algebra_identities.cache_clear()
    for psi in (PSI, PSI_B, PSI_C):
        clifford.verify_identity_suite(rep, psi)
    info = clifford._algebra_identities.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.fixture
def flipped_sign(monkeypatch):
    """Flip s(a, b) of e_a e_b = s(a, b) e_{a xor b} in the product table,
    or with ``contraction`` the sign of e_a -| e_b for a = 1 << i in b;
    both caches are cleared before and after."""
    clifford._product_signs.cache_clear()
    clifford._algebra_identities.cache_clear()

    def flip(a, b, contraction=False):
        if contraction:
            true_sign = clifford._contraction_sign
            monkeypatch.setattr(
                clifford, "_contraction_sign",
                lambda bit, mask: (-1 if (bit, mask) == (a, b) else 1)
                * true_sign(bit, mask),
            )
            return
        table = [list(row) for row in clifford._product_signs()]
        table[a][b] = -table[a][b]
        flipped = tuple(tuple(row) for row in table)
        monkeypatch.setattr(clifford, "_product_signs", lambda: flipped)

    yield flip
    monkeypatch.undo()
    clifford._product_signs.cache_clear()
    clifford._algebra_identities.cache_clear()


@pytest.mark.parametrize(
    "a,b,sandwich",
    [
        (0b000001, 0b000110, True),  # e_1 e_23: vector-sandwich does not read it
        (0b000011, 0b000001, False),  # e_12 e_1: read by both
    ],
)
def test_a_flipped_product_sign_fails_the_basis_proof(rep, flipped_sign, a, b, sandwich):
    flipped_sign(a, b)
    report = clifford.verify_identity_suite(rep, PSI, raise_on_failure=False)
    passed = {r.name: r.passed for r in report}
    assert passed["grade-brackets"] is False
    assert passed["vector-sandwich"] is sandwich
    rng = random.Random(1729)
    assert (oracle.sampled_brackets(rng), oracle.sampled_sandwich(rng)) == (
        False, sandwich)


@pytest.mark.parametrize(
    "name,a,b,contraction",
    [
        # e_1 -| e_1234: the degree proof on four-blades
        ("degree-identities", 0b000001, 0b001111, True),
        # e_123 e_124 = s e_34: e_123 and e_124 must anticommute
        ("three-form-square", 0b000111, 0b001011, False),
        # e_123 e_123 = 1 in <e_123, e_123>; it cancels in three-form-square
        ("contraction-norm", 0b000111, 0b000111, False),
    ],
)
def test_a_flipped_sign_fails_the_form_identity_that_reads_it(
    rep, flipped_sign, name, a, b, contraction
):
    flipped_sign(a, b, contraction)
    report = clifford.verify_identity_suite(rep, PSI, raise_on_failure=False)
    assert [r.name for r in report if not r.passed] == [name]


def test_a_corrupted_minus_one_basis_vector_is_refused(rep, monkeypatch):
    # The first vector of each J-type block kernel with one coordinate
    # changed, as only clifford sees it: Lambda^2_6 is read first, and
    # its changed vector is no eigenvector.  PSI's record is warm first:
    # the kernels are taken per call, not stored with it.
    clifford.q_contraction_spectrum(rep, PSI)

    def corrupted(mat):
        first, *rest = ratlinalg.nullspace(mat)
        return [[first[0] + 1] + list(first[1:])] + rest

    seen = types.SimpleNamespace(**vars(ratlinalg))
    seen.nullspace = corrupted
    monkeypatch.setattr(clifford, "ratlinalg", seen)
    with pytest.raises(SpectrumError, match=r"not scalar on Lambda\^2_6"):
        clifford.q_contraction_spectrum(rep, PSI)


@pytest.mark.parametrize(
    "psi",
    [
        (F(2, 3), F(2, 3)) + (F(0),) * 6,  # |psi~|^2 = 8 = d^2 - 1
        (F(1), F(1, 3)) + (F(0),) * 6,  # |psi~|^2 = 10 = d^2 + 1
    ],
)
def test_integer_norm_off_by_one_from_d_squared_is_refused(rep, psi):
    assert sum((3 * x) ** 2 for x in psi) in (8, 10)
    for fn in (
        clifford.extract_PQ,
        clifford.spinor_decomposition_spectra,
        clifford.complex_structure,
        clifford.verify_identity_suite,
        oracle.q_contraction_operator,
        clifford.q_contraction_spectrum,
    ):
        with pytest.raises(ConventionError, match="unit length"):
            fn(rep, psi)


# ---------------------------------------------------------------------------
# The per-spinor record and its one-entry memo

PIPELINE = (
    clifford.extract_PQ,
    clifford.verify_identity_suite,
    clifford.spinor_decomposition_spectra,
    clifford.q_contraction_spectrum,
)


def _counted(monkeypatch, name):
    """Replace clifford.<name> by a wrapper; returns the list of its calls."""
    calls = []
    true_fn = getattr(clifford, name)

    def counted(*args):
        calls.append(args)
        return true_fn(*args)

    monkeypatch.setattr(clifford, name, counted)
    return calls


@pytest.mark.parametrize("psi", [PSI, PSI_B, PSI_C] + _benchmark_spinors(101))
def test_a_pipeline_derives_the_forms_and_j_once(rep, monkeypatch, psi):
    forms = _counted(monkeypatch, "_integer_forms")
    j = _counted(monkeypatch, "_complex_structure")
    for fn in PIPELINE:
        fn(rep, psi)
    clifford.complex_structure(rep, psi)
    assert (len(forms), len(j)) == (1, 1)


def test_p_q_and_the_spinor_blocks_build_no_j(rep, monkeypatch):
    j = _counted(monkeypatch, "_complex_structure")
    clifford.extract_PQ(rep, PSI_B)
    clifford.spinor_decomposition_spectra(rep, PSI_B)
    assert j == []


def _results(rep, psi):
    """Every public per-spinor result, as a repr, so that types count."""
    return repr((
        clifford.extract_PQ(rep, psi),
        clifford.verify_identity_suite(rep, psi),
        clifford.spinor_decomposition_spectra(rep, psi),
        clifford.complex_structure(rep, psi),
        clifford.q_contraction_spectrum(rep, psi),
    ))


def test_the_memo_answers_as_a_fresh_derivation(rep, monkeypatch):
    a_ints = [1, 0, 0, 0, 0, 0, 0, 0]
    # A, B, A: PSI as Fractions, then as ints (another key), list and tuple
    spinors = [PSI, list(PSI), PSI_B, list(PSI_B), a_ints, tuple(a_ints), PSI]
    fresh = []
    for psi in spinors:
        clifford._last_spinor = None
        fresh.append(_results(rep, psi))
    clifford._last_spinor = None
    forms = _counted(monkeypatch, "_integer_forms")
    assert [_results(rep, psi) for psi in spinors] == fresh
    assert len(forms) == 4
    assert fresh[0] == fresh[4]


def test_a_non_unit_spinor_is_refused_by_every_call_and_never_stored(
    rep, monkeypatch
):
    bad = (F(2, 3), F(2, 3)) + (F(0),) * 6
    clifford.extract_PQ(rep, PSI)
    forms = _counted(monkeypatch, "_integer_forms")
    for fn in PIPELINE:
        with pytest.raises(ConventionError, match="unit length"):
            fn(rep, bad)
        with pytest.raises(ConventionError, match="unit length"):
            fn(rep, list(bad))
    assert len(forms) == 2 * len(PIPELINE)
    # the refusals stored nothing, so PSI's record still answers
    clifford.extract_PQ(rep, PSI)
    assert len(forms) == 2 * len(PIPELINE)


def test_an_exact_record_does_not_answer_for_an_equal_float_spinor(rep):
    floats = tuple(float(x) for x in PSI)
    with pytest.raises(ConventionError, match="not an int or a Fraction"):
        clifford.extract_PQ(rep, floats)
    clifford.extract_PQ(rep, PSI)
    with pytest.raises(ConventionError, match="not an int or a Fraction"):
        clifford.extract_PQ(rep, floats)


@pytest.mark.parametrize("entry", [0.0, True, "0", None])
def test_a_spinor_entry_that_is_not_exact_is_refused_by_every_call(rep, entry):
    spinor = tuple(clifford.STANDARD_SPINOR[:-1]) + (entry,)
    for fn in PIPELINE + (clifford.complex_structure,):
        with pytest.raises(ConventionError, match=re.escape("entry %r " % (entry,))):
            fn(rep, spinor)


def test_a_complex_structure_that_raises_is_never_stored(rep, monkeypatch):
    # As in test_complex_structure_refuses_a_volume_element_off_the_span;
    # the broken representation is another object, so it has its own record.
    blades = list(rep.blades)
    blades[clifford.VOL_MASK] = blades[1]
    broken = rep._replace(blades=tuple(blades))
    clifford.complex_structure(rep, PSI)
    j = _counted(monkeypatch, "_complex_structure")
    assert clifford.extract_PQ(broken, PSI) == clifford.extract_PQ(rep, PSI)
    for fn in (clifford.complex_structure, clifford.verify_identity_suite,
               clifford.q_contraction_spectrum, clifford.complex_structure):
        with pytest.raises(ConsistencyError, match="span"):
            fn(broken, PSI)
    assert len(j) == 4
