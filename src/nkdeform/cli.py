"""Command-line surface of the engine.

Grammar, parsed from the one table ``COMMANDS``::

    nkdeform --version | -h | --help
    nkdeform tables prop-4.2|thm-5.2-H|thm-5.2-SU3 [--fixtures PATH]
    nkdeform casimir --pair TAG --hw m1,m2,...
    nkdeform branch --coset NAME --hw m1,m2,... [--fixtures PATH]
    nkdeform tensor --algebra TAG --a m1,m2,... --b m1,m2,...
    nkdeform clifford-verify

Every subcommand also takes ``--format text|json``.  Options come in any
order as ``--opt VALUE`` or ``--opt=VALUE``, unabbreviated, the last one
counting; VALUE is the next argument unless that starts with ``--`` (so
``--a -2,3`` is a weight), and may not be empty.  JSON output is
deterministic (sorted keys) and serializes every rational as
{"num": int, "den": int}.  All output, text or JSON, is written by ``_emit``.

Exit codes: 0 success, 1 usage or parse error (a ``ValueError`` or
``OSError``), 2 internal invariant failure (a ``RuntimeError`` of
:mod:`errors`, or ``ConventionError``).
"""

import re
import sys
from types import SimpleNamespace

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


# Subcommand -> {argument: (choices or None, default, required)}: options
# start with "--", and the one positional, if any, does not.
_FORMAT = {"--format": (("text", "json"), "text", False)}
_FIXTURES = {"--fixtures": (None, None, False), **_FORMAT}
_REQUIRED = (None, None, True)
COMMANDS = {
    "tables": {"which": (("prop-4.2", "thm-5.2-H", "thm-5.2-SU3"), None, True),
               **_FIXTURES},
    "casimir": {"--pair": _REQUIRED, "--hw": _REQUIRED, **_FORMAT},
    "branch": {"--coset": _REQUIRED, "--hw": _REQUIRED, **_FIXTURES},
    "tensor": {"--algebra": _REQUIRED, "--a": _REQUIRED, "--b": _REQUIRED, **_FORMAT},
    "clifford-verify": _FORMAT,
}


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
    if args.format == "json":
        import json

        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    out.write(text)
    return payload


def _coset_lookup(args):
    from . import cosets

    if args.fixtures is not None:
        cosets.load_fixtures(args.fixtures)
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
    from fractions import Fraction

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


def _usage():
    lines = ["usage: nkdeform --version | -h | SUBCOMMAND ..."]
    for command, fields in COMMANDS.items():
        words = [command]
        for name, (choices, _, required) in fields.items():
            word = "|".join(choices) if choices else name.lstrip("-").upper()
            word = "%s %s" % (name, word) if name.startswith("--") else word
            words.append(word if required else "[%s]" % word)
        lines.append("  " + " ".join(words))
    return "\n".join(lines) + "\n"


def parse_args(argv):
    """The subcommand (``subcommand``) and the value of each of its
    arguments, default included, as attributes; a usage error raises
    ``ValueError``, and ``--version`` and ``--help`` exit with status 0."""
    if argv[:1] == ["--version"]:
        print("nkdeform " + __version__)
        raise SystemExit(0)
    if not argv or argv[0] not in COMMANDS and argv[0] not in ("-h", "--help"):
        raise ValueError("expected a subcommand (%s) or --help" % ", ".join(COMMANDS))
    fields, given, rest, tokens = COMMANDS.get(argv[0], {}), {}, [], iter(argv)
    for token in tokens:
        name, eq, value = token.partition("=")
        if token in ("-h", "--help"):
            sys.stdout.write(_usage())
            raise SystemExit(0)
        if token == "--":
            rest.extend(tokens)
        elif not token.startswith("--"):
            rest.append(token)
        elif name not in fields:
            raise ValueError("unrecognized argument %s" % token)
        else:
            value = value if eq else next(tokens, "")
            if not value or not eq and value.startswith("--"):
                raise ValueError("argument %s: expected one non-empty value" % name)
            given[name] = value
    values = {"subcommand": rest.pop(0)}
    for name, (choices, default, required) in fields.items():
        value = rest.pop(0) if rest and name[0] != "-" else given.get(name, default)
        if value is None and required:
            raise ValueError("the following arguments are required: %s" % name)
        if choices and value not in choices:
            raise ValueError("argument %s: invalid choice: %r (choose from %s)"
                             % (name, value, ", ".join(choices)))
        values[name.lstrip("-")] = value
    if rest:
        raise ValueError("unrecognized arguments: %s" % " ".join(rest))
    return SimpleNamespace(**values)


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        # Looked up at call time, so that a wrapped or patched command runs.
        globals()["cmd_" + args.subcommand.replace("-", "_")](args, sys.stdout)
    except _INVARIANT_ERRORS as exc:
        print("invariant failure: %s" % exc, file=sys.stderr)
        return INVARIANT_ERROR
    except _USAGE_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
