"""A catalogue of mutants: each breaks one check or one step of the program
on purpose, and the tests named with it must fail.

    python tests/mutants.py [NAME...]

The runner copies ``src/`` and ``tests/`` to a temporary directory and
checks that the unmutated copy passes every named test file.  Then it
applies one mutant at a time, runs
``python -m pytest -q -x -p no:cacheprovider FILES`` on the copy with
``PYTHONDONTWRITEBYTECODE=1``, and restores the file.  A mutant is killed
when pytest reports a failed test (exit code 1); any other outcome, a pass,
a collection error or a timeout, counts as a survivor.  It prints one line
per mutant and exits 1 if any survives.  One pytest process runs at a time.

Each entry gives a source file under ``src/nkdeform/``, an exact ``old``
string that occurs there once, its ``new`` string, the test files to run
and the reason the tests must notice.  pytest does not collect this file.
"""

import collections
import os
import shutil
import subprocess
import sys
import tempfile
import time

Mutant = collections.namedtuple("Mutant", "name path old new tests reason")

TIMEOUT_S = 120

CATALOGUE = (
    Mutant(
        "casimir-drop-l-squared", "casimir.py",
        "const = l * l + 2 * two_a * target",
        "const = 2 * two_a * target",
        ["test_casimir.py"],
        "the discriminant's constant term loses l^2, so irreps_with_casimir"
        " misses or invents solutions against the box scan",
    ),
    Mutant(
        "peel-off-no-invariance-check", "decompose.py",
        "if weights.get(image, 0) != m:",
        "if False:",
        ["test_decompose.py"],
        "a multiset that is not Weyl-invariant is peeled off instead of"
        " refused with NotACharacterError",
    ),
    Mutant(
        "peel-off-no-negative-coefficient-check", "decompose.py",
        "    if negative:\n",
        "    if False:\n",
        ["test_decompose.py"],
        "a signed Weyl sum with a negative coefficient is returned as a"
        " decomposition",
    ),
    Mutant(
        "freudenthal-no-divisibility-check", "lie.py",
        "if rest or m <= 0:",
        "if m <= 0:",
        ["test_lie.py"],
        "a Freudenthal step that does not divide exactly is truncated to a"
        " multiplicity instead of raising ConsistencyError",
    ),
    Mutant(
        "orbit-spread-skips-a-reflection", "lie.py",
        "for i in range(len(w)):",
        "for i in range(1, len(w)):",
        ["test_lie.py"],
        "a dominant multiplicity is spread without the first simple"
        " reflection, so the character misses weights and fails the weight"
        " count against the Weyl formula",
    ),
    Mutant(
        "weyl-dimension-without-delta", "lie.py",
        "shifted = [a + 1 for a in hw]",
        "shifted = list(hw)",
        ["test_lie.py"],
        "the Weyl formula pairs hw instead of hw + delta with the roots, so"
        " dimensions come out wrong and every character fails its check",
    ),
    Mutant(
        "deform-no-evenness-check", "deform.py",
        "        if mult % 2:\n",
        "        if False:\n",
        ["test_deform.py"],
        "an odd complexified multiplicity is halved by floor division"
        " instead of refused",
    ),
    Mutant(
        "clifford-no-kahler-trace-check", "clifford.py",
        "if signs[m][m] * signs[1 << a][1 << b] * omega[m] != -j[a][b]:",
        "if False:",
        ["test_clifford.py"],
        "J is returned without checking that omega is its Kahler form",
    ),
    Mutant(
        "lambda6-no-anti-invariance-check", "clifford.py",
        "    if any(ratlinalg.mat_vec(k, u) != [-e2 * x for x in u] for u in six):\n",
        "    if False:\n",
        ["test_clifford.py"],
        "the contractions e_a -| P are taken as Lambda^2_6 without checking"
        " that J reverses them, so J = 1 reaches the dimension check instead",
    ),
    Mutant(
        "lambda6-no-gram-check", "clifford.py",
        "    if gram != _scalar_matrix(2 * e2, DIM):\n",
        "    if False:\n",
        ["test_clifford.py"],
        "six contractions that are dependent or not of norm 2 are counted as"
        " a six-dimensional Lambda^2_6",
    ),
    Mutant(
        "torsion-trace-factor", "clifford.py",
        "rec.contractions()[1] == _scalar_matrix(2 * d2 * d2, DIM)",
        "rec.contractions()[1] == _scalar_matrix(4 * d2 * d2, DIM)",
        ["test_clifford.py"],
        "torsion-metric-trace compares the Gram matrix of the e_a -| P with"
        " 4 d^4 instead of 2 d^4, so it fails on every spinor",
    ),
    Mutant(
        "q-sparse-row-dropped", "clifford.py",
        "for r in a_int]",
        "for r in a_int[:-1]] + [([], [])]",
        ["test_clifford.py"],
        "the sparse contraction with Q loses its last row, so a block"
        " vector with an e_56 coordinate is no eigenvector",
    ),
    Mutant(
        "lambda8-kernel-drops-u1", "clifford.py",
        "su3 = ratlinalg.integer_nullspace(six + [omega])",
        "su3 = ratlinalg.integer_nullspace(six[1:] + [omega])",
        ["test_clifford.py"],
        "the kernel system loses e_1 -| P, so the kernel taken for"
        " Lambda^2_8 is nine-dimensional and the spectrum is refused",
    ),
    Mutant(
        "holomorphic-contraction-untransposed-j", "clifford.py",
        "ratlinalg.mat_mul(ratlinalg.transpose(j), s)",
        "ratlinalg.mat_mul(j, s)",
        ["test_clifford.py"],
        "J is skew, so J S = -J^T S and the real part of"
        " holomorphic-contraction fails on every spinor",
    ),
    Mutant(
        "matrix-of-drops-last-term", "clifford.py",
        "for mask, a in mv.terms():",
        "for mask, a in mv.terms()[:-1]:",
        ["test_clifford.py"],
        "the 8x8 matrices of d^2 P and d^2 Q lose their last blade, so the"
        " spinor blocks are no eigenvectors or give other eigenvalues than"
        " the dense route",
    ),
    Mutant(
        "adjoint-lowest-root", "cosets.py",
        "st.root_fund(st.positive_roots[-1])",
        "st.root_fund(st.positive_roots[0])",
        ["test_cosets.py"],
        "the adjoint is built on a simple root instead of the highest root",
    ),
    Mutant(
        "fixtures-compare-no-field", "cosets.py",
        "            if given != expected:\n",
        "            if False:\n",
        ["test_cli.py", "test_cosets.py"],
        "a fixture file that differs from the built-in descriptors is"
        " accepted",
    ),
    Mutant(
        "fixtures-no-zero-denominator-guard", "cosets.py",
        '            if x["den"] == 0:\n',
        "            if False:\n",
        ["test_cli.py"],
        "a zero denominator in a fixture file raises a bare"
        " ZeroDivisionError, a traceback, instead of a one-line refusal",
    ),
    Mutant(
        "fixtures-no-repeated-hw-check", "cosets.py",
        "        if len(entries) != len(obj[key]):\n",
        "        if False:\n",
        ["test_cli.py"],
        "a decomposition that lists a highest weight twice is read as the"
        " last entry, so a file that repeats one can pass the comparison",
    ),
    Mutant(
        "spinor-memo-key-without-types", "clifford.py",
        "key = (values, tuple(map(type, values)))",
        "key = (values,)",
        ["test_clifford.py"],
        "an exact spinor's record answers for an equal float spinor, which"
        " must be refused",
    ),
    Mutant(
        "build-rep-uncached", "clifford.py",
        "@functools.cache\ndef build_rep():",
        "def build_rep():",
        ["test_clifford.py"],
        "the spinor representation is built and checked on every call, and"
        " each call returns a new object, so no spinor record is reused",
    ),
    Mutant(
        "cli-no-required-check", "cli.py",
        "        if value is None and required:\n",
        "        if False:\n",
        ["test_cli.py"],
        "a command line without a required argument is parsed, and the"
        " command reads None for it",
    ),
    Mutant(
        "cli-no-choices-check", "cli.py",
        "        if choices and value not in choices:\n",
        "        if False:\n",
        ["test_cli.py"],
        "a value outside an argument's choices, such as --format xml, is"
        " accepted",
    ),
)


def _pytest(root, files):
    """pytest's exit code on ``files`` (under tests/) in the copy at
    ``root``, or None on a timeout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    argv += [os.path.join(root, "tests", f) for f in files]
    try:
        return subprocess.run(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main(names):
    by_name = {m.name: m for m in CATALOGUE}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        print("unknown mutant(s): %s" % ", ".join(unknown))
        return 2
    mutants = [by_name[n] for n in names] or list(CATALOGUE)
    here = os.path.dirname(os.path.abspath(__file__))
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", "*.pyc")
    with tempfile.TemporaryDirectory(prefix="nkdeform-mutants-") as root:
        shutil.copytree(os.path.join(here, os.pardir, "src"),
                        os.path.join(root, "src"), ignore=ignore)
        shutil.copytree(here, os.path.join(root, "tests"), ignore=ignore)
        files = sorted({f for m in mutants for f in m.tests})
        code = _pytest(root, files)
        if code != 0:
            print("the unmutated copy does not pass %s (exit %s)" % (" ".join(files), code))
            return 2
        survivors = 0
        for m in mutants:
            path = os.path.join(root, "src", "nkdeform", m.path)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if text.count(m.old) != 1:
                print("BROKEN   %s: the old string occurs %d times in %s"
                      % (m.name, text.count(m.old), m.path))
                survivors += 1
                continue
            start = time.monotonic()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(m.old, m.new))
            try:
                code = _pytest(root, m.tests)
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            killed = code == 1
            survivors += not killed
            print("%-8s %s (%s, %.1f s): %s" % (
                "killed" if killed else "SURVIVED", m.name,
                "timeout" if code is None else "exit %d" % code,
                time.monotonic() - start, m.reason))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
