"""Command-line surface of the engine.

Subcommands::

    tables prop-4.2 | thm-5.2-H | thm-5.2-SU3   curvature / deformation tables
    casimir --pair TAG --hw m1,m2,...           one Casimir eigenvalue
    branch --coset NAME --hw m1,m2,...          restriction to the isotropy algebra
    tensor --algebra TAG --a ... --b ...        tensor product decomposition
    clifford-verify                             run the exact identity suite

Every command accepts ``--format text|json``.  JSON output is deterministic
(sorted keys) and serializes every rational as {"num": int, "den": int}.
All output, text or JSON, is written by ``_emit``.

Exit codes: 0 success, 1 usage or parse error (a ``ValueError`` or
``OSError``), 2 internal invariant failure (a ``RuntimeError`` of
:mod:`errors`, or ``ConventionError``).
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from . import __version__
from .errors import (
    ConsistencyError,
    ConventionError,
    EvennessViolationError,
    FixtureError,
    IdentityViolationError,
    SpectrumError,
    UnknownTagError,
)

USAGE_ERROR = 1
INVARIANT_ERROR = 2

# Tried in this order: ConventionError is a ValueError, but an invariant failure.
_INVARIANT_ERRORS = (
    ConsistencyError,
    ConventionError,
    EvennessViolationError,
    FixtureError,
    IdentityViolationError,
    SpectrumError,
)
_USAGE_ERRORS = (ValueError, OSError)

TABLE_IDS = ("prop-4.2", "thm-5.2-H", "thm-5.2-SU3")

# Tag -> name of its lie.RootData, resolved in cmd_tensor so cli need not import lie.
TENSOR_ALGEBRAS = {
    "su2": "A1",
    "a1": "A1",
    "su3": "A2",
    "a2": "A2",
    "sp2": "C2",
    "c2": "C2",
    "g2": "G2",
    "su2cubed": "A1_CUBED",
    "sp1u1": "A1_U1",
    "u1u1": "U1_U1",
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only plain negative numbers for values; a weight
        # such as -6,6 would otherwise be read as an unknown option.
        self._negative_number_matcher = re.compile(
            r"^-\d+(,-?\d+)*$|^-\d*\.\d+$"
        )

    # argparse prints its usage text and exits with status 2 on usage
    # errors; here main reports the message alone, in one line, with 1.
    def error(self, message):
        raise ValueError(message)


def _parse_weight(text, root_data):
    """Coordinates in ASCII ``-?[0-9]+`` only: ``int`` would also take
    underscores, surrounding spaces and non-ASCII digits."""
    parts = text.split(",")
    if not all(re.fullmatch("-?[0-9]+", part) for part in parts):
        raise ValueError("weight %r is not a comma-separated integer list" % text)
    w = tuple(map(int, parts))
    root_data.check_weight(w)
    return w


def _emit(args, out, command, inputs, result, text):
    """Write ``text``, or the sorted-key JSON document of the command's
    inputs and result, as ``--format`` asks; return the document."""
    payload = {
        "command": command,
        "input": inputs,
        "result": result,
        "engine_version": __version__,
    }
    if args.format == "text":
        out.write(text)
    else:
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return payload


def _coset_lookup(args):
    from . import cosets

    if getattr(args, "fixtures", None):
        table = cosets.load_fixtures(args.fixtures)

        def lookup(name):
            return table[cosets.canonical_name(name)]

        return lookup
    return cosets.coset


# ---------------------------------------------------------------------------
# Commands


def cmd_tables(args, out):
    from . import cosets, deform
    from .decompose import _decomp_json
    from .ratlinalg import _frac_json

    lookup = _coset_lookup(args)
    which = args.which
    if which == "prop-4.2":
        names = ("G2/SU(3)", "SU(2)^3/SU(2)", "Sp(2)/Sp(1)xU(1)")
        rows = []
        text = "curvature operator spectrum on m* (x) h, canonical connection\n"
        for name in names:
            entries = deform.curvature_spectrum(lookup(name), deform.GAUGE_H).entries
            rows.append({
                "coset": name,
                "spectrum": [{"eigenvalue": _frac_json(e), "dimension": d}
                             for e, d in entries],
            })
            eigs = [str(e) for e, _ in entries]
            dims = [str(d) for _, d in entries]
            width = max(len(s) for s in eigs + dims) + 2
            text += "\n%s\n" % name
            text += "  eigenvalue" + "".join(s.rjust(width) for s in eigs) + "\n"
            text += "  dimension " + "".join(s.rjust(width) for s in dims) + "\n"
        return _emit(args, out, "tables", {"which": which}, rows, text)

    gauge = deform.GAUGE_H if which == "thm-5.2-H" else deform.GAUGE_SU3
    rows = []
    text = ("instanton deformations of the canonical connection "
            "(structure group %s)\n\n" % ("H" if gauge == deform.GAUGE_H else "SU(3)"))
    for name in cosets.COSET_NAMES:
        space = deform.deformation_space(lookup(name), gauge)
        rows.append({
            "coset": name,
            "deformations": _decomp_json(space.halved),
            "real_dimension": space.real_dimension,
        })
        text += "  %-18s %-30s real dimension %d\n" % (
            name + ":", space.halved, space.real_dimension)
    return _emit(args, out, "tables", {"which": which}, rows, text)


def cmd_casimir(args, out):
    from . import casimir
    from .ratlinalg import _frac_json

    ctx = casimir.context(args.pair)
    hw = _parse_weight(args.hw, ctx.root_data)
    value = casimir.casimir_eigenvalue(ctx, hw)
    return _emit(args, out, "casimir", {"pair": args.pair, "hw": list(hw)},
                 {"eigenvalue": _frac_json(value)}, "%s\n" % value)


def cmd_branch(args, out):
    from . import decompose

    c = _coset_lookup(args)(args.coset)
    hw = _parse_weight(args.hw, c.g_data)
    result = decompose.branch(c.restriction, c.g_data, c.h_data, hw)
    return _emit(args, out, "branch", {"coset": c.name, "hw": list(hw)},
                 decompose._decomp_json(result), "%s\n" % result)


def cmd_tensor(args, out):
    from . import decompose, lie

    try:
        root_data = getattr(lie, TENSOR_ALGEBRAS[args.algebra])
    except KeyError:
        raise UnknownTagError(
            "unknown algebra %r (known: %s)"
            % (args.algebra, ", ".join(sorted(TENSOR_ALGEBRAS)))
        )
    a = _parse_weight(args.a, root_data)
    b = _parse_weight(args.b, root_data)
    result = decompose.tensor_decompose(root_data, a, b)
    return _emit(args, out, "tensor",
                 {"algebra": args.algebra, "a": list(a), "b": list(b)},
                 decompose._decomp_json(result), "%s\n" % result)


def cmd_clifford_verify(args, out):
    from . import clifford
    from .ratlinalg import _frac_json

    rep = clifford.build_rep()
    psi = clifford.STANDARD_SPINOR
    p, _ = clifford.extract_PQ(rep, psi)
    report = clifford.verify_identity_suite(rep, psi, raise_on_failure=False)
    blocks = clifford.spinor_decomposition_spectra(rep, psi)
    spectrum = clifford.q_contraction_spectrum(rep, psi)
    minus_one_dim = dict(spectrum.entries).get(Fraction(-1), 0)
    all_passed = all(r.passed for r in report) and minus_one_dim == 8
    result = {
        "checks": [{"name": r.name, "passed": r.passed} for r in report],
        "p_norm_sq": _frac_json(p.norm_sq()),
        "block_eigenvalues": {
            "P": [_frac_json(v) for v in blocks.p_values],
            "Q": [_frac_json(v) for v in blocks.q_values],
        },
        "q_contraction_spectrum": [
            {"eigenvalue": _frac_json(e), "dimension": d}
            for e, d in spectrum.entries
        ],
        "su3_eigenspace_dimension": minus_one_dim,
        "omega_eigenvalue": _frac_json(spectrum.omega_eigenvalue),
        "all_passed": all_passed,
    }
    text = "".join(
        "%-26s %s\n" % (r.name + ":", "PASS" if r.passed else "FAIL") for r in report
    )
    text += "|P|^2 = %s\n" % p.norm_sq()
    text += "block eigenvalues on (scalars, one-forms, volume): P: %s; Q: %s\n" % (
        ", ".join(map(str, blocks.p_values)), ", ".join(map(str, blocks.q_values)))
    text += "contraction with Q on two-forms: %s\n" % "; ".join(
        "eigenvalue %s dim %d" % (e, d) for e, d in spectrum.entries)
    text += "su(3) eigenspace (-1) dimension = %d\n" % minus_one_dim
    text += "omega eigenvalue = %s\n" % spectrum.omega_eigenvalue
    payload = _emit(args, out, "clifford-verify", {}, result, text)
    if not all_passed:
        raise IdentityViolationError(
            "failed checks: %s"
            % ", ".join(r.name for r in report if not r.passed)
        )
    return payload


# ---------------------------------------------------------------------------


def build_parser():
    parser = _Parser(
        prog="nkdeform",
        description=(
            "Exact computations for instantons on the four homogeneous "
            "nearly Kahler six-manifolds: Casimir spectra, branching, "
            "curvature spectra, deformation counting and Clifford-algebra "
            "verification."
        ),
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + __version__
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, fixtures=False):
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format (default: text)",
        )
        if fixtures:
            p.add_argument(
                "--fixtures", metavar="PATH", default=None,
                help="load coset data from a JSON fixture file",
            )

    p = sub.add_parser("tables", help="emit a full result table")
    p.add_argument("which", choices=TABLE_IDS, help="table identifier")
    add_common(p, fixtures=True)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("casimir", help="Casimir eigenvalue of one irreducible")
    p.add_argument("--pair", required=True, help="algebra pair tag")
    p.add_argument("--hw", required=True, help="highest weight, e.g. 0,1")
    add_common(p)
    p.set_defaults(func=cmd_casimir)

    p = sub.add_parser("branch", help="restrict a G-irreducible to H")
    p.add_argument("--coset", required=True, help="coset name or alias")
    p.add_argument("--hw", required=True, help="highest weight, e.g. 1,0")
    add_common(p, fixtures=True)
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("tensor", help="decompose a tensor product")
    p.add_argument("--algebra", required=True, help="algebra tag, e.g. su3")
    p.add_argument("--a", required=True, help="first highest weight")
    p.add_argument("--b", required=True, help="second highest weight")
    add_common(p)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser(
        "clifford-verify", help="run the exact Clifford identity suite"
    )
    add_common(p)
    p.set_defaults(func=cmd_clifford_verify)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        args.func(args, sys.stdout)
    except _INVARIANT_ERRORS as exc:
        print("invariant failure: %s" % exc, file=sys.stderr)
        return INVARIANT_ERROR
    except _USAGE_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
