import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import argparse_oracle
import nkdeform
from nkdeform import cli, cosets, errors


def run(argv):
    import contextlib

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_casimir_text():
    code, out = run(["casimir", "--pair", "g2", "--hw", "0,1"])
    assert code == 0
    assert out.strip() == "-12"
    code, out = run(["casimir", "--pair", "sp2", "--hw", "0,1"])
    assert code == 0
    assert out.strip() == "-5"
    code, out = run(["casimir", "--pair", "g2", "--hw", "0,0"])
    assert code == 0
    assert out.strip() == "0"


def test_casimir_json_round_trip():
    code, out = run(["casimir", "--pair", "su2cubed", "--hw", "1,1,1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["eigenvalue"] == {"num": -27, "den": 2}
    assert doc["command"] == "casimir"
    assert doc["input"] == {"pair": "su2cubed", "hw": [1, 1, 1]}
    # parse + re-serialize is the identity
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out


def test_casimir_usage_errors():
    code, _ = run(["casimir", "--pair", "g2", "--hw", "0,x"])
    assert code == 1
    code, _ = run(["casimir", "--pair", "g2", "--hw", "0,-1"])
    assert code == 1
    code, _ = run(["casimir", "--pair", "nope", "--hw", "0,1"])
    assert code == 1
    code, _ = run(["casimir", "--pair", "g2", "--hw", "1"])
    assert code == 1


@pytest.mark.parametrize(
    "hw",
    ["1_0,2", " 1,2", "1,2 ", "\u0661,2", "+1,2", "1,,2"],
    ids=["underscore", "leading-space", "trailing-space", "non-ascii-digit",
         "plus-sign", "empty-coordinate"],
)
def test_malformed_weight_exits_one(hw, capsys):
    # int() alone would take the first five
    assert cli.main(["casimir", "--pair", "g2", "--hw", hw]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: weight %r is not a comma-separated integer list\n" % hw


def test_missing_argument_exits_one(capsys):
    # a malformed command line gets one error line, without the usage text
    for argv in (
        ["casimir", "--pair", "g2"], ["tables", "prop-9.9"], [],
        ["tabels", "prop-4.2"], ["tables"], ["--format", "json", "tables", "prop-4.2"],
        ["casimir", "--pair", "g2", "--hw", "0,1", "--nope", "1"],
        ["casimir", "--pair", "g2", "--hw", "0,1", "--fixtures", "f.json"],
        ["casimir", "--pair", "g2", "--hw", "0,1", "--version"],
        ["casimir", "--pair", "g2", "--hw", "0,1", "-x"],
        ["casimir", "--pair", "g2", "--hw", "0,1", "--format", "xml"],
        ["casimir", "--pair", "g2", "--hw"], ["casimir", "--pair", "--hw", "0,1"],
        ["tables", "prop-4.2", "extra"], ["clifford-verify", "extra"],
        # argparse took an abbreviation and an empty value; the CLI does not
        ["tables", "prop-4.2", "--form", "json"],
        ["tables", "thm-5.2-H", "--fixtures", ""], ["tables", "thm-5.2-H", "--fixtures="],
        ["branch", "--coset", "sp2", "--hw", "1,0", "--fixtures="],
    ):
        assert cli.main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["tables", "-h"], ["casimir", "--pair", "g2", "--help"],
])
def test_help_prints_the_usage_of_every_subcommand(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert out.startswith("usage: nkdeform ")
    for command in ("tables", "casimir", "branch", "tensor", "clifford-verify"):
        assert ("\n  %s " % command) in out, command
    assert "prop-4.2|thm-5.2-H|thm-5.2-SU3" in out and "--format text|json" in out


def test_branch_text():
    code, out = run(["branch", "--coset", "sp2", "--hw", "1,0"])
    assert code == 0
    assert out.strip() == "V(0,0) + V(1,-1) + V(1,1)"
    code, out = run(["branch", "--coset", "su3t2", "--hw", "1,1"])
    assert code == 0
    assert "2 V(0,0)" in out
    assert out.count("V(") == 7


def test_tensor_text():
    code, out = run(["tensor", "--algebra", "su3", "--a", "1,0", "--b", "1,1"])
    assert code == 0
    assert out.strip() == "V(0,2) + V(1,0) + V(2,1)"


def test_tables_prop42():
    code, out = run(["tables", "prop-4.2"])
    assert code == 0
    for name in ("G2/SU(3)", "SU(2)^3/SU(2)", "Sp(2)/Sp(1)xU(1)"):
        assert name in out
    assert "-9" in out and "30" in out


def test_tables_thm52_h():
    code, out = run(["tables", "thm-5.2-H"])
    assert code == 0
    assert "V(1,0)" in out
    assert "real dimension 5" in out
    assert out.count("real dimension 0") == 3


def test_tables_thm52_su3():
    code, out = run(["tables", "thm-5.2-SU3"])
    assert code == 0
    assert "real dimension 9" in out
    assert "real dimension 25" in out
    assert "real dimension 48" in out
    assert "6 V(1,1)" in out


def test_tables_deterministic_output():
    for argv in (
        ["tables", "prop-4.2"],
        ["tables", "thm-5.2-H", "--format", "json"],
        ["tables", "thm-5.2-SU3", "--format", "json"],
    ):
        _, first = run(argv)
        _, second = run(argv)
        assert first == second


def test_tables_json_structure():
    code, out = run(["tables", "thm-5.2-SU3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out
    rows = {row["coset"]: row for row in doc["result"]}
    assert rows["SU(3)/U(1)^2"]["real_dimension"] == 48
    assert rows["SU(3)/U(1)^2"]["deformations"] == [{"hw": [1, 1], "mult": 6}]
    assert rows["Sp(2)/Sp(1)xU(1)"]["deformations"] == [
        {"hw": [0, 2], "mult": 2},
        {"hw": [1, 0], "mult": 1},
    ]


def test_clifford_verify():
    code, out = run(["clifford-verify"])
    assert code == 0
    assert "|P|^2 = 4" in out
    assert "P: 4, 0, -4" in out
    assert "Q: -3, 1, -3" in out
    assert "su(3) eigenspace (-1) dimension = 8" in out
    assert out.count("PASS") == 8
    assert "FAIL" not in out


def test_clifford_verify_json():
    code, out = run(["clifford-verify", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["all_passed"] is True
    assert doc["result"]["su3_eigenspace_dimension"] == 8
    assert doc["result"]["p_norm_sq"] == {"num": 4, "den": 1}


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "fmt, golden", [("text", "clifford_verify.txt"), ("json", "clifford_verify.json")]
)
def test_clifford_verify_matches_golden_output(fmt, golden):
    code, out = run(["clifford-verify", "--format", fmt])
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


# One command per subcommand besides clifford-verify, whose goldens are
# checked above, and a branching on each coset; stdout is compared byte for
# byte in text and JSON.
GOLDEN_COMMANDS = {
    "tables_prop-4.2": ["tables", "prop-4.2"],
    "tables_thm-5.2-H": ["tables", "thm-5.2-H"],
    "tables_thm-5.2-SU3": ["tables", "thm-5.2-SU3"],
    "casimir_su2cubed": ["casimir", "--pair", "su2cubed", "--hw", "1,1,1"],
    "branch_su3t2": ["branch", "--coset", "su3t2", "--hw", "2,1"],
    "branch_g2su3": ["branch", "--coset", "g2su3", "--hw", "1,1"],
    "branch_su2cubed": ["branch", "--coset", "su2cubed", "--hw", "1,2,1"],
    "branch_sp2": ["branch", "--coset", "sp2", "--hw", "2,1"],
    "tensor_sp1u1": ["tensor", "--algebra", "sp1u1", "--a", "2,-3", "--b", "1,2"],
}


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_stdout_matches_golden_output(name, fmt, suffix):
    code, out = run(GOLDEN_COMMANDS[name] + ["--format", fmt])
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / ("%s.%s" % (name, suffix))).read_bytes()


SRC = pathlib.Path(cli.__file__).resolve().parents[1]


def fresh_python(*args):
    """Stdout of a new interpreter that imports nkdeform from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_LOADED_MODULES = """
import sys
print(sorted(m for m in sys.modules if m.startswith("nkdeform.")))
"""


def test_import_loads_no_submodule():
    assert fresh_python("-c", "import nkdeform" + _LOADED_MODULES) == "[]\n"


def test_no_module_loads_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: about 10 ms of
    # a cold process, before any class is decorated.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import %s\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        % ", ".join("nkdeform." + m for m in nkdeform._MODULES)
    )
    added = fresh_python("-c", code).split()
    assert {"nkdeform." + m for m in nkdeform._MODULES} <= set(added)
    assert "dataclasses" not in added and "inspect" not in added


def test_submodule_resolves_on_attribute_access():
    code = "import nkdeform\nprint(nkdeform.clifford.__name__)" + _LOADED_MODULES
    out = fresh_python("-c", code)
    assert out == (
        "nkdeform.clifford\n"
        "['nkdeform.clifford', 'nkdeform.errors', 'nkdeform.ratlinalg']\n"
    )


def test_unknown_attribute_raises_attribute_error():
    code = (
        "import nkdeform\n"
        "try:\n"
        "    nkdeform.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print(hasattr(nkdeform, 'no_such_name'))" + _LOADED_MODULES
    )
    assert fresh_python("-c", code) == (
        "module 'nkdeform' has no attribute 'no_such_name'\nFalse\n[]\n"
    )


_RUN_CLI = """
import contextlib, io, sys
from nkdeform import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
if code:
    sys.exit(code)
"""

# Modules each subcommand loads besides nkdeform.cli and .errors.
LOADED_BY = {
    "--version": ([], []),
    "tensor": (["--algebra", "su3", "--a", "1,0", "--b", "1,1"], ["decompose", "lie"]),
    "casimir": (["--pair", "g2", "--hw", "0,1"], ["casimir", "lie", "ratlinalg"]),
    "branch": (
        ["--coset", "sp2", "--hw", "1,0"],
        ["casimir", "cosets", "decompose", "deform", "lie", "ratlinalg"],
    ),
    "tables": (
        ["thm-5.2-H"],
        ["casimir", "cosets", "decompose", "deform", "lie", "ratlinalg"],
    ),
    "clifford-verify": ([], ["clifford", "ratlinalg"]),
}


# In a cold process without bytecode, argparse costs about 3.5 ms (import
# and parser set-up) and importing json about 1.5 ms.
_ARGPARSE_JSON = """
print(sorted(m for m in ("argparse", "json") if m in sys.modules))
"""


def test_a_bare_interpreter_loads_neither_argparse_nor_json():
    # Else the two tests below could not see a command load them.
    assert fresh_python("-c", "import sys" + _ARGPARSE_JSON) == "[]\n"


# Importing fractions imports decimal: about 2.5 ms of a cold process.
_FRACTIONS_DECIMAL = """
print(sorted(m for m in ("decimal", "fractions") if m in sys.modules))
"""


@pytest.mark.parametrize("command", sorted(LOADED_BY))
def test_subcommand_loads_only_the_modules_it_runs(command):
    # Every command here writes text (the default) and reads no fixture file.
    args, extra = LOADED_BY[command]
    out = fresh_python("-c", _RUN_CLI + _LOADED_MODULES + _ARGPARSE_JSON
                       + _FRACTIONS_DECIMAL, command, *args)
    expected = sorted("nkdeform." + m for m in ["cli", "errors"] + extra)
    modules, argparse_json, fractions_decimal = out.splitlines()
    assert (modules, argparse_json) == (repr(expected), "[]")
    if command in ("--version", "tensor"):
        # Neither builds a Fraction: tensor restricts no weight.
        assert fractions_decimal == "[]"


@pytest.mark.parametrize("argv", [
    ["casimir", "--pair", "g2", "--hw", "0,1", "--format", "json"],
    ["tables", "prop-4.2", "--fixtures", "FILE"],
], ids=["format-json", "fixtures"])
def test_json_is_loaded_only_to_write_or_read_json(argv, tmp_path):
    path = tmp_path / "fixtures.json"
    path.write_text(cosets.dump_fixtures(), encoding="utf-8")
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    assert fresh_python("-c", _RUN_CLI + _ARGPARSE_JSON, *argv) == "['json']\n"


def test_every_tensor_tag_resolves_to_its_root_data():
    from nkdeform import lie

    factors = {
        "su2": ("A1",), "a1": ("A1",), "su3": ("A2",), "a2": ("A2",),
        "sp2": ("C2",), "c2": ("C2",), "g2": ("G2",),
        "su2cubed": ("A1", "A1", "A1"), "sp1u1": ("A1", "U1"),
        "u1u1": ("U1", "U1"),
    }
    assert sorted(cli.TENSOR_ALGEBRAS) == sorted(factors)
    for tag, expected in factors.items():
        root_data = getattr(lie, cli.TENSOR_ALGEBRAS[tag])
        assert isinstance(root_data, lie.RootData)
        assert root_data.factors == expected


def test_unknown_tensor_tag_is_a_usage_error(capsys):
    code, out = run(["tensor", "--algebra", "e8", "--a", "1", "--b", "1"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "error: unknown algebra 'e8' (known: a1, a2, c2, g2, sp1u1, sp2, "
        "su2, su2cubed, su3, u1u1)\n"
    )


def test_module_entry_point_matches_golden_output():
    out = fresh_python("-m", "nkdeform.cli", "tables", "thm-5.2-H", "--format", "json")
    assert out.encode("utf-8") == (GOLDEN / "tables_thm-5.2-H.json").read_bytes()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_negative_weights_as_separate_arguments(fmt):
    joined = ["tensor", "--algebra", "u1u1", "--a=-6,6", "--b=-3,2", "--format", fmt]
    separate = ["tensor", "--algebra", "u1u1", "--a", "-6,6", "--b", "-3,2", "--format", fmt]
    code_joined, out_joined = run(joined)
    code_separate, out_separate = run(separate)
    assert code_joined == code_separate == 0
    assert out_separate == out_joined
    assert "-9" in out_separate


def test_fixtures_option(tmp_path):
    path = tmp_path / "fixtures.json"
    path.write_text(cosets.dump_fixtures(), encoding="utf-8")
    code, out = run(
        ["branch", "--coset", "sp2", "--hw", "1,0", "--fixtures", str(path)]
    )
    assert code == 0
    assert out.strip() == "V(0,0) + V(1,-1) + V(1,1)"
    for which in ("prop-4.2", "thm-5.2-H", "thm-5.2-SU3"):
        _, native = run(["tables", which, "--format", "json"])
        code, from_file = run(
            ["tables", which, "--format", "json", "--fixtures", str(path)]
        )
        assert code == 0 and native == from_file, which


@pytest.mark.parametrize("index, name, v", [
    # Sp(2) with the other chirality, V = V(0,2) + V(1,1): the same m*, but
    # weight sum (0, 4), so Lambda^3 V is not trivial.
    (2, "Sp(2)/Sp(1)xU(1)", [[0, 2], [1, 1]]),
    # The flag manifold with V = the three positive roots, an integrable
    # complex structure: weight sum (2, 2).
    (3, "SU(3)/U(1)^2", [[2, -1], [-1, 2], [1, 1]]),
], ids=["sp2-other-chirality", "su3t2-positive-roots"])
def test_fixture_file_with_another_v_is_refused(index, name, v, tmp_path, capsys):
    # Such a V is not an SU(3)-structure, outside Thm 5.2's hypotheses; the
    # file may only restate the built-in V.
    data = json.loads(cosets.dump_fixtures())
    entry = data["cosets"][index]
    assert entry["name"] == name
    entry["mstar_holomorphic"] = [{"hw": hw, "mult": 1} for hw in v]
    path = tmp_path / "other-v.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = cli.main(["tables", "thm-5.2-SU3", "--fixtures", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(
        "invariant failure: cosets[%d].mstar_holomorphic: " % index), err
    assert ("but the built-in %s has" % name) in err, err


def test_fixtures_missing_file():
    code, _ = run(["branch", "--coset", "sp2", "--hw", "1,0", "--fixtures", "/nonexistent.json"])
    assert code == 1


def test_corrupt_fixtures_exit_two(tmp_path):
    data = json.loads(cosets.dump_fixtures())
    data["cosets"][2]["mstar"][0]["mult"] = 3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _ = run(["tables", "thm-5.2-H", "--fixtures", str(path)])
    assert code == 2


ERROR_CLASSES = sorted(
    (obj for obj in vars(errors).values()
     if isinstance(obj, type) and obj.__module__ == errors.__name__),
    key=lambda cls: cls.__name__,
) + [ValueError, OSError]


@pytest.mark.parametrize("exc_type", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_each_error_class_maps_to_its_exit_code(exc_type, monkeypatch, capsys):
    def fail(args, out):
        raise exc_type("boom")

    monkeypatch.setattr(cli, "cmd_casimir", fail)
    code = cli.main(["casimir", "--pair", "g2", "--hw", "0,1"])
    out, err = capsys.readouterr()
    assert issubclass(exc_type, (ValueError, OSError, RuntimeError))
    if issubclass(exc_type, (RuntimeError, errors.ConventionError)):
        assert (code, err) == (2, "invariant failure: boom\n")
    else:
        assert (code, err) == (1, "error: boom\n")
    assert out == ""


@pytest.mark.parametrize("fmt, golden", [("text", "clifford_verify.txt"),
                                         ("json", "clifford_verify.json")])
def test_failed_clifford_check_writes_the_report_then_exits_two(
        fmt, golden, monkeypatch, capsys):
    from nkdeform import clifford

    suite = clifford.verify_identity_suite

    def first_check_fails(rep, psi, raise_on_failure=True):
        report = suite(rep, psi, raise_on_failure=False)
        return [report[0]._replace(passed=False)] + list(report[1:])

    monkeypatch.setattr(clifford, "verify_identity_suite", first_check_fails)
    code = cli.main(["clifford-verify", "--format", fmt])
    out, err = capsys.readouterr()
    name = suite(clifford.build_rep(), clifford.STANDARD_SPINOR)[0].name
    assert (code, err) == (2, "invariant failure: failed checks: %s\n" % name)
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    if fmt == "text":
        first, rest = expected.split("\n", 1)
        assert out == first.replace("PASS", "FAIL") + "\n" + rest
    else:
        doc = json.loads(expected)
        doc["result"]["checks"][0]["passed"] = False
        doc["result"]["all_passed"] = False
        assert json.loads(out) == doc


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr() == ("nkdeform %s\n" % nkdeform.__version__, "")


def _mutated(mutate):
    def text():
        doc = json.loads(cosets.dump_fixtures())
        mutate(doc)
        return json.dumps(doc)
    return text


def _set(path, value):
    def mutate(doc):
        obj = doc
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return mutate


def _delete(path):
    def mutate(doc):
        obj = doc
        for key in path[:-1]:
            obj = obj[key]
        del obj[path[-1]]
    return mutate


# (maker of the file text, JSON path the message must name, or None)
MALFORMED_FIXTURES = {
    "missing-mstar": (_mutated(_delete(["cosets", 0, "mstar"])), "cosets[0].mstar"),
    "string-mult": (
        _mutated(_set(["cosets", 0, "mstar", 0, "mult"], "1")),
        "cosets[0].mstar[0].mult",
    ),
    "missing-coset": (_mutated(lambda doc: doc["cosets"].pop()), "cosets"),
    "g2-with-sp2-form": (
        _mutated(_set(["cosets", 0, "B_G", "pair"], "sp2")),
        "B_G.pair",
    ),
    "foreign-h-form": (
        _mutated(_set(["cosets", 2, "B_H", "pair"], "su3-in-g2")),
        "B_H.pair",
    ),
    "g-form-not-restricted": (
        _mutated(_set(["cosets", 3, "B_G", "pair"], "su3-in-g2")),
        "cosets[3].B_G.pair",
    ),
    "bool-mult": (
        _mutated(_set(["cosets", 1, "g_adjoint", 0, "mult"], True)),
        "cosets[1].g_adjoint[0].mult",
    ),
    "float-weight": (
        _mutated(_set(["cosets", 3, "mstar", 0, "hw", 1], 0.5)),
        "cosets[3].mstar[0].hw[1]",
    ),
    "zero-denominator": (
        _mutated(_set(["cosets", 0, "restriction", 0, 0, "den"], 0)),
        "cosets[0].restriction[0][0].den",
    ),
    "restriction-extra-column": (
        _mutated(
            lambda doc: doc["cosets"][1]["restriction"][0].append({"num": 7, "den": 1})
        ),
        "cosets[1].restriction",
    ),
    "restriction-missing-row": (
        _mutated(lambda doc: doc["cosets"][0]["restriction"].pop()),
        "cosets[0].restriction",
    ),
    "missing-numerator": (
        _mutated(_delete(["cosets", 0, "restriction", 1, 0, "num"])),
        "cosets[0].restriction[1][0].num",
    ),
    "restriction-not-a-list": (
        _mutated(_set(["cosets", 2, "restriction"], {"num": 1, "den": 1})),
        "cosets[2].restriction",
    ),
    "unknown-factor": (
        _mutated(_set(["cosets", 0, "G", "factors"], ["E8"])), "cosets[0].G.factors"
    ),
    "unknown-pair": (_mutated(_set(["cosets", 0, "B_H", "pair"], "so5")), "cosets[0].B_H.pair"),
    "non-dominant-weight": (
        _mutated(_set(["cosets", 0, "mstar", 0, "hw"], [-1, 0])),
        "cosets[0].mstar",
    ),
    "repeated-weight": (
        _mutated(lambda doc: doc["cosets"][1]["mstar"].append({"hw": [2], "mult": 1})),
        "cosets[1].mstar",
    ),
    # The same entry twice reads as the built-in {hw: mult}; refused anyway.
    "repeated-weight-restated": (
        _mutated(lambda doc: doc["cosets"][1]["mstar"].append(doc["cosets"][1]["mstar"][0])),
        "cosets[1].mstar: a highest weight is listed twice",
    ),
    "repeated-coset": (
        _mutated(lambda doc: doc["cosets"].append(doc["cosets"][0])),
        "cosets[4].name",
    ),
    "unknown-coset": (_mutated(_set(["cosets", 1, "name"], "S7")), "cosets[1].name"),
    "wrong-multiplicity": (
        _mutated(_set(["cosets", 2, "mstar", 0, "mult"], 3)),
        "cosets[2].mstar",
    ),
    "wrong-h-adjoint": (
        _mutated(_set(["cosets", 0, "h_adjoint", 0, "mult"], 2)),
        "cosets[0].h_adjoint",
    ),
    "wrong-g-adjoint-weight": (
        _mutated(_set(["cosets", 1, "g_adjoint", 0, "hw"], [0, 0, 4])),
        "cosets[1].g_adjoint",
    ),
    "zero-restriction": (
        _mutated(_set(["cosets", 0, "restriction"], [[{"num": 0, "den": 1}] * 2] * 2)),
        "cosets[0].restriction",
    ),
    "cosets-not-a-list": (_mutated(_set(["cosets"], {})), "cosets"),
    "top-level-list": (lambda: "[]", "fixture file"),
    "not-json": (lambda: "{\"schema\": ", "invariant failure: fixture file: "),
    "truncated-dump": (
        lambda: cosets.dump_fixtures()[:1000], "invariant failure: fixture file: "
    ),
    "not-utf8": (lambda: b"\xff\xfe{}", "invariant failure: fixture file: "),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FIXTURES))
def test_malformed_fixtures_are_refused_in_one_line(name, tmp_path, capsys):
    make_text, where = MALFORMED_FIXTURES[name]
    path = tmp_path / ("%s.json" % name)
    text = make_text()
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    code = cli.main(["tables", "thm-5.2-H", "--fixtures", str(path)])
    out, err = capsys.readouterr()
    assert code in (1, 2)
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    if where is not None:
        assert code == 2
        assert where in err, err


def _paths(node, prefix=()):
    """The path of every field below ``node``, a JSON document."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _fuzz_once(doc, rng, avoid):
    """Mutate one field of ``doc`` in place, not the one at ``avoid``:
    delete it, give it another JSON type, add +-1 or +-2 to an integer, or
    duplicate a list item.  Returns the path of the field."""
    paths = [p for p in _paths(doc) if p != avoid]
    kind = rng.choice(("delete", "retype", "shift", "duplicate"))
    if kind == "shift":
        paths = [p for p in paths if type(_at(doc, p)) is int]
    elif kind == "duplicate":
        paths = [p for p in paths if type(p[-1]) is int]
    path = rng.choice(paths)
    parent, key = _at(doc, path[:-1]), path[-1]
    if kind == "delete":
        del parent[key]
    elif kind == "retype":
        parent[key] = rng.choice([v for v in (None, True, "1", 1.5, 1, [], {})
                                  if type(v) is not type(parent[key])])
    elif kind == "shift":
        parent[key] += rng.choice((-2, -1, 1, 2))
    else:
        parent.insert(key, json.loads(json.dumps(parent[key])))
    return path


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def test_fixture_fuzz_is_refused_in_one_line_or_gives_the_golden(tmp_path, capsys):
    """Seeded mutations of the dumped fixture file, one or two fields each,
    through the CLI: each is refused with exit code 1 or 2 and one line on
    stderr, or accepted with stdout equal to the built-in tables' golden."""
    import random

    rng = random.Random(20250)
    dump = json.loads(cosets.dump_fixtures())
    path = tmp_path / "fuzz.json"
    refused = 0
    for _ in range(300):
        doc = json.loads(json.dumps(dump))
        first = _fuzz_once(doc, rng, None)
        if rng.random() < 0.5:
            _fuzz_once(doc, rng, first)
        path.write_text(json.dumps(doc), encoding="utf-8")
        which = rng.choice(("prop-4.2", "thm-5.2-H", "thm-5.2-SU3"))
        fmt, suffix = rng.choice((("text", "txt"), ("json", "json")))
        code = cli.main(["tables", which, "--format", fmt, "--fixtures", str(path)])
        out, err = capsys.readouterr()
        if code:
            assert code in (1, 2) and out == "", doc
            assert len(err.splitlines()) == 1 and "Traceback" not in err, err
            refused += 1
        else:
            golden = GOLDEN / ("tables_%s.%s" % (which, suffix))
            assert out.encode("utf-8") == golden.read_bytes(), doc
            assert err == ""
    assert 0 < refused < 300


# The grammar as the argparse oracle declares it, written out again here so
# that the vectors do not come from the table under test: each subcommand's
# positional choices, optional options and required options.
GRAMMAR = {
    "tables": (["prop-4.2", "thm-5.2-H", "thm-5.2-SU3"], ["--fixtures", "--format"], []),
    "casimir": (None, ["--format"], ["--pair", "--hw"]),
    "branch": (None, ["--fixtures", "--format"], ["--coset", "--hw"]),
    "tensor": (None, ["--format"], ["--algebra", "--a", "--b"]),
    "clifford-verify": (None, ["--format"], []),
}
OPTION_VALUES = {
    "--pair": ["g2", "su2cubed", "sp1u1-in-sp2"],
    "--coset": ["sp2", "G2/SU(3)"],
    "--algebra": ["su3", "u1u1"],
    "--hw": ["1,0", "-2,3", "0,-1,7"],
    "--a": ["-6,6", "2,-3", "0"],
    "--b": ["1,1", "-3,2"],
    "--format": ["text", "json"],
    "--fixtures": ["fixtures.json", "a b.json", "-", "-1"],
}
# Each turns a valid vector, a list of word groups, into a vector that is
# invalid unless a repeated option restores what it dropped.
BREAKS = (
    lambda rng, groups: groups[:-1],  # drop the last group
    lambda rng, groups: groups + [["--nope", "1"]],
    lambda rng, groups: groups + [["--format=xml"]],
    lambda rng, groups: groups + [["-x"]],
    lambda rng, groups: groups + [["extra"]],
    lambda rng, groups: groups + [["--version"]],
    lambda rng, groups: groups + [[rng.choice(["--hw", "--format", "--fixtures"])]],
    lambda rng, groups: [["--format", "text"]] + groups,
    lambda rng, groups: [["tensr"]] + groups[1:],
    lambda rng, groups: [[groups[0][0]], ["prop-9.9"]] + groups[1:],
    lambda rng, groups: groups[:1] + [["--pair", "--hw"]] + groups[1:],
)


def _valid_groups(rng):
    """A valid argv as word groups: the subcommand, then its positional and
    options in a random order, each option as `--opt v` or `--opt=v`, and
    sometimes an option given twice."""
    command = rng.choice(sorted(GRAMMAR))
    choices, optional, required = GRAMMAR[command]
    names = required + [n for n in optional if rng.random() < 0.6]
    if names and rng.random() < 0.3:
        names.append(rng.choice(names))
    rng.shuffle(names)
    groups = []
    for name in names:
        value = rng.choice(OPTION_VALUES[name])
        groups.append(["%s=%s" % (name, value)] if rng.random() < 0.5 else [name, value])
    if choices:
        groups.insert(rng.randrange(len(groups) + 1), [rng.choice(choices)])
    return [[command]] + groups


def _oracle_parse(argv):
    """The oracle's attributes for argv, or None if it refuses argv."""
    try:
        return vars(argparse_oracle.build_parser(nkdeform.__version__).parse_args(argv))
    except ValueError:
        return None


def test_parser_agrees_with_the_argparse_oracle(capsys):
    rng = random.Random(2701)
    vectors = [["tables", "--", "prop-4.2"], ["tables", "--format", "json", "--", "thm-5.2-H"],
               ["tables", "--", "prop-4.2", "--format", "json"],
               ["casimir", "--pair", "g2", "--", "--hw", "0,1"]]
    for _ in range(400):
        groups = _valid_groups(rng)
        if rng.random() < 0.5:
            groups = rng.choice(BREAKS)(rng, groups)
        vectors.append([word for group in groups for word in group])
    accepted = refused = 0
    for argv in vectors:
        expected = _oracle_parse(argv)
        if expected is not None:
            accepted += 1
            assert vars(cli.parse_args(argv)) == expected, argv
            continue
        refused += 1
        with pytest.raises(ValueError):
            cli.parse_args(argv)
        assert cli.main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, argv
        assert err.startswith("error: "), argv
    assert accepted > 150 and refused > 150, (accepted, refused)


@pytest.mark.parametrize("argv", [
    ["tables", "prop-4.2", "--form", "json"],
    ["tables", "prop-4.2", "--form=json"],
    ["branch", "--cos", "sp2", "--hw", "1,0"],
    ["tables", "thm-5.2-H", "--fixtures", ""],
    ["tables", "thm-5.2-H", "--fixtures="],
], ids=["abbreviation", "abbreviation-joined", "abbreviated-required",
        "empty-value", "empty-value-joined"])
def test_the_recorded_differences_from_the_oracle(argv):
    # argparse takes an unambiguous prefix of an option, and an empty value;
    # the CLI refuses both.
    assert _oracle_parse(argv) is not None
    with pytest.raises(ValueError):
        cli.parse_args(argv)
