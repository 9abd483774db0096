"""The two in-process workloads.  Both call the package's public functions
one at a time in this process, after a set-up (import and warm-up) that is
timed on its own as setup_s.

clifford-spinors: the `clifford-verify` pipeline on a seeded list of
rational unit spinors.  `clifford` and `ratlinalg` do nearly all the work,
`lie` and `decompose` none.  The list starts with STANDARD_SPINOR; the rest
are seeded signed permutations of dense patterns, so that a fast path tuned
to 0/+-1 entries cannot hide a cost.  Spin(6) = SU(4) is transitive on the
unit sphere, so every spinor must give the same invariants.

deform-warm: after a warm-up that fills the program's caches, passes of
`deformation_space` and `curvature_spectrum` over the four cosets and both
gauge groups, each step followed by one `irreps_with_casimir` on a seeded
Casimir value, attained or unattained, for one of the eight pair tags.
`casimir` and `deform` dominate; `lie` answers from warm caches.
"""

import time
from fractions import Fraction

import oracle

# Patterns (numerators, denominator) of the seeded spinors after the first.
SPINOR_PATTERNS = (
    ((2, 3, 6, 0, 0, 0, 0, 0), 7),
    ((1, 1, 1, 1, 0, 0, 0, 0), 2),
    ((1, 1, 1, 1, 1, 1, 1, 3), 4),
)
PASSES_PER_ROUND = 8
GAUGES = ("H", "SU3")


class Call:
    """One timed call of the package.  Every call of these workloads must
    succeed, so an exception is both a failed operation and a wrong
    outcome."""

    def __init__(self, fn, args, check):
        self.fn = fn
        self.args = args
        self.check_result = check

    def run(self):
        """(CPU seconds, result or exception) of one call."""
        start = time.process_time()
        try:
            result = self.fn(*self.args)
        except Exception as exc:  # counted and reported, not fatal
            return time.process_time() - start, exc
        return time.process_time() - start, result

    def check(self, outcome):
        if isinstance(outcome, Exception):
            return True, "%s raised %r" % (self.fn.__name__, outcome)
        return False, self.check_result(outcome)


# ---------------------------------------------------------------------------
# clifford-spinors


def seeded_spinors(rng):
    out = []
    for numerators, den in SPINOR_PATTERNS:
        v = list(numerators)
        rng.shuffle(v)
        out.append(tuple(Fraction(x * rng.choice((1, -1)), den) for x in v))
    return out


def clifford_pipeline(nk, psi):
    """What `nkdeform clifford-verify` computes, for the spinor psi."""
    clifford = nk.clifford
    rep = clifford.build_rep()
    p, _ = clifford.extract_PQ(rep, psi)
    report = clifford.verify_identity_suite(rep, psi, raise_on_failure=False)
    blocks = clifford.spinor_decomposition_spectra(rep, psi)
    spectrum = clifford.q_contraction_spectrum(rep, psi)
    return p, report, blocks, spectrum


def check_clifford(result):
    p, report, blocks, spectrum = result
    failed = [r.name for r in report if not r.passed]
    if len(report) != 8 or failed:
        return "identities failed: %s of %d" % (failed, len(report))
    if p.norm_sq() != 4:
        return "|P|^2 = %s" % p.norm_sq()
    if tuple(blocks.p_values) != (4, 0, -4) or tuple(blocks.q_values) != (-3, 1, -3):
        return "block eigenvalues P %s Q %s" % (blocks.p_values, blocks.q_values)
    if dict(spectrum.entries) != {-1: 8, 1: 6, 2: 1}:
        return "Q-contraction spectrum %s" % (spectrum.entries,)
    if spectrum.omega_eigenvalue != 2:
        return "omega eigenvalue %s" % spectrum.omega_eigenvalue
    return None


def clifford_warmup(nk):
    nk.clifford.build_rep()


def clifford_round(nk, rng):
    psis = [nk.clifford.STANDARD_SPINOR] + seeded_spinors(rng)
    return [Call(clifford_pipeline, (nk, psi), check_clifford) for psi in psis]


# ---------------------------------------------------------------------------
# deform-warm


def _deformation(nk, name, gauge):
    return nk.deform.deformation_space(nk.cosets.coset(name), gauge)


def _spectrum(nk, name, gauge):
    return nk.deform.curvature_spectrum(nk.cosets.coset(name), gauge)


def _irreps(nk, pair, value):
    return nk.casimir.irreps_with_casimir(nk.casimir.context(pair), value)


def _check_deformation(name, gauge):
    halved, real_dim = oracle.THM_5_2[gauge][name]

    def check(space):
        got = (dict(space.halved.entries), space.real_dimension)
        if got != (halved, real_dim):
            return "%s/%s deformations %s, the paper has %s" % (
                name, gauge, got, (halved, real_dim))
        doubled = {hw: 2 * m for hw, m in halved.items()}
        if dict(space.complexified.entries) != doubled:
            return "%s/%s complexified %s" % (name, gauge, space.complexified.entries)
        return None
    return check


def _check_spectrum(name, gauge):
    expected = oracle.PROP_4_2.get(name) if gauge == "H" else None

    def check(spectrum):
        problem = oracle.spectrum_problems(
            list(spectrum.entries), oracle.GAUGE_DIM[gauge][name], expected)
        return problem and "%s/%s: %s" % (name, gauge, problem)
    return check


def _check_irreps(pair, value):
    def check(found):
        expected = oracle.irreps_with_casimir(pair, value)
        if tuple(found) != expected:
            return "irreps_with_casimir(%s, %s) = %s, a scan finds %s" % (
                pair, value, found, expected)
        return None
    return check


def _small_weights(pair, count):
    """The ``count`` nonzero dominant weights of smallest |Casimir|."""
    factors = oracle.PAIR_FACTORS[pair]
    ranges = [range(0, 9) if d else range(-4, 5) for d in oracle.weyl_vector(factors)]
    weights = [()]
    for r in ranges:
        weights = [w + (x,) for w in weights for x in r]
    weights = [w for w in weights if any(w)]
    return sorted(weights, key=lambda w: (-oracle.casimir(pair, w), w))[:count]


def casimir_schedule(rng):
    """One (pair, value) list per pass of a round, one value per pair tag.

    Each tag gets the Casimirs of its PASSES_PER_ROUND smallest weights in
    seeded order, half of them as they are and half minus a seeded k/97,
    which no weight attains (every Casimir in these normalizations has a
    denominator dividing 12).  The values differ with the seed, but the
    sizes of the scans they cause do not, so neither does the round's cost.
    """
    columns = []
    for pair in sorted(oracle.PAIRS):
        weights = _small_weights(pair, PASSES_PER_ROUND)
        rng.shuffle(weights)
        attained = [i % 2 == 0 for i in range(PASSES_PER_ROUND)]
        rng.shuffle(attained)
        columns.append([
            (pair, oracle.casimir(pair, w) if hit
             else oracle.casimir(pair, w) - Fraction(rng.randint(1, 96), 97))
            for w, hit in zip(weights, attained)])
    passes = [list(values) for values in zip(*columns)]
    for values in passes:
        rng.shuffle(values)
    return passes


def deform_steps():
    return [(name, gauge) for name in oracle.COSET_NAMES.values() for gauge in GAUGES]


def deform_warmup(nk):
    for name, gauge in deform_steps():
        _deformation(nk, name, gauge)
        _spectrum(nk, name, gauge)


def deform_round(nk, rng):
    ops = []
    for values in casimir_schedule(rng):
        for (name, gauge), (pair, value) in zip(deform_steps(), values):
            ops.append(Call(_deformation, (nk, name, gauge),
                            _check_deformation(name, gauge)))
            ops.append(Call(_spectrum, (nk, name, gauge), _check_spectrum(name, gauge)))
            ops.append(Call(_irreps, (nk, pair, value), _check_irreps(pair, value)))
    return ops


def kostant_sample():
    """(kind, hw) whose full characters the deform-warm run compares with
    the Kostant oracle: the simple-factor summands of the Thm 5.2 answers."""
    return [("C2", (1, 0)), ("C2", (0, 2)), ("A2", (1, 1)), ("A1", (2,))]
