import io
import json
import pathlib

import pytest

from nkdeform import cli, cosets


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


def test_missing_argument_exits_one():
    code, _ = run(["casimir", "--pair", "g2"])
    assert code == 1
    code, _ = run(["tables", "prop-9.9"])
    assert code == 1


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
    _, native = run(["tables", "thm-5.2-H", "--format", "json"])
    _, from_file = run(
        ["tables", "thm-5.2-H", "--format", "json", "--fixtures", str(path)]
    )
    assert native == from_file


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


def test_version():
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
