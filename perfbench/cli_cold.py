"""The cli-cold workload: one fresh `python -m nkdeform.cli` process per
operation, as a user runs the program.

Every process starts with empty caches, so Freudenthal characters (`lie`)
and peel-off (`decompose`) do most of the work after interpreter start-up
and import.  The round is a seeded, shuffled list of 32 commands, each in a
seeded choice of `--format text` or `json`:

* the three `tables`, then the same three with `--fixtures` pointing at a
  file freshly written by `cosets.dump_fixtures()`;
* `casimir` once per algebra-pair tag, `branch` once per coset and
  `tensor` once per algebra tag, on weights drawn from the boxes below;
* four `tables thm-5.2-H --fixtures` runs on malformed copies of that file.
  They must end with exit code 1 or 2 and a one-line message; the ones
  that do not are counted as failed operations.  These are the only
  operations allowed to fail: any other command that exits with a nonzero
  code makes the run incorrect.
"""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import oracle
import spans

# Largest simple-factor coordinate and largest |U(1) charge| per algebra.
TENSOR_BOX = {"su2": 8, "a1": 8, "su3": 3, "a2": 3, "sp2": 2, "c2": 2,
              "g2": 1, "su2cubed": 2, "sp1u1": 6, "u1u1": 6}
BRANCH_BOX = {"g2su3": 2, "su2cubed": 3, "sp2": 3, "su3t2": 4}
CASIMIR_BOX = 3
TABLES = ("prop-4.2", "thm-5.2-H", "thm-5.2-SU3")


def _drop_mstar(doc):
    del doc["cosets"][0]["mstar"]


def _string_mult(doc):
    doc["cosets"][0]["mstar"][0]["mult"] = "1"


def _drop_coset(doc):
    doc["cosets"].pop()


def _foreign_form(doc):
    doc["cosets"][0]["B_G"]["pair"] = "sp2"


# Fixture files that must be refused.  Each is refused today by a raw
# traceback, or (the last) not at all.
MALFORMED = (
    ("missing-mstar", _drop_mstar),
    ("string-mult", _string_mult),
    ("missing-coset", _drop_coset),
    ("g2-with-sp2-form", _foreign_form),
)


def random_weight(rng, factors, bound):
    return tuple(rng.randint(0, bound) if simple else rng.randint(-bound, bound)
                 for simple in oracle.weyl_vector(factors))


def _weight_arg(option, w):
    # `--a=-1,2`: argparse would take a separate "-1,2" for an option.
    return "%s=%s" % (option, ",".join(map(str, w)))


class Command:
    """One cold CLI process and the check of what it printed."""

    def __init__(self, runner, argv, check):
        self.runner = runner
        self.argv = argv
        self.check_output = check

    def run(self):
        return self.runner.run(self.argv)

    def check(self, outcome):
        """(failed, problem).  A valid command must succeed, so one that
        does not is both a failed operation and a wrong outcome."""
        rc, out, err = outcome
        if rc != 0:
            last = err.strip().splitlines()[-1:] or [""]
            return True, "%s: exit code %d, %s" % (" ".join(self.argv), rc, last[0])
        return False, self.check_output(out)


class Refusal(Command):
    """A malformed-fixture invocation: success is a one-line refusal."""

    def check(self, outcome):
        rc, out, err = outcome
        lines = err.strip().splitlines()
        refused = rc in (1, 2) and len(lines) == 1 and "Traceback" not in err
        return not refused, None


def _frac(obj):
    return Fraction(obj["num"], obj["den"])


def _parse_decomp(text):
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in text.split(" + "):
        m = re.fullmatch(r"(?:(\d+) )?V\(([-\d,]+)\)", term)
        if m is None:
            raise ValueError("cannot read summand %r" % term)
        hw = tuple(int(x) for x in m.group(2).split(","))
        out[hw] = out.get(hw, 0) + int(m.group(1) or 1)
    return out


def _json_decomp(items):
    return {tuple(e["hw"]): e["mult"] for e in items}


def _read_decomp(fmt, out):
    if fmt == "json":
        return _json_decomp(json.loads(out)["result"])
    return _parse_decomp(out)


def _read_spectra(fmt, out):
    """{coset: [(eigenvalue, dim)]} from `tables prop-4.2`."""
    if fmt == "json":
        return {row["coset"]: [(_frac(e["eigenvalue"]), e["dimension"])
                               for e in row["spectrum"]]
                for row in json.loads(out)["result"]}
    spectra = {}
    name = None
    eigs = None
    for line in out.splitlines()[1:]:
        if line and not line.startswith(" "):
            name = line
        elif line.startswith("  eigenvalue"):
            eigs = [Fraction(x) for x in line.split()[1:]]
        elif line.startswith("  dimension"):
            spectra[name] = list(zip(eigs, (int(x) for x in line.split()[1:])))
    return spectra


def _read_deformations(fmt, out):
    """{coset: ({hw: mult}, real dimension)} from `tables thm-5.2-*`."""
    if fmt == "json":
        return {row["coset"]: (_json_decomp(row["deformations"]),
                               row["real_dimension"])
                for row in json.loads(out)["result"]}
    rows = {}
    for line in out.splitlines():
        m = re.fullmatch(r"  (\S+):\s+(.*?)\s+real dimension (\d+)", line)
        if m:
            rows[m.group(1)] = (_parse_decomp(m.group(2)), int(m.group(3)))
    return rows


def _check_tables(which, fmt):
    def check(out):
        if which == "prop-4.2":
            spectra = _read_spectra(fmt, out)
            if set(spectra) != set(oracle.PROP_4_2):
                return "prop-4.2 lists %s" % sorted(spectra)
            for name, entries in spectra.items():
                problem = oracle.spectrum_problems(
                    entries, oracle.GAUGE_DIM["H"][name], oracle.PROP_4_2[name])
                if problem:
                    return "%s: %s" % (name, problem)
            return None
        expected = oracle.THM_5_2[which[len("thm-5.2-"):]]
        got = _read_deformations(fmt, out)
        if got != expected:
            return "%s: %s, the paper has %s" % (which, got, expected)
        return None
    return check


def _check_casimir(pair, hw, fmt):
    def check(out):
        if fmt == "json":
            value = _frac(json.loads(out)["result"]["eigenvalue"])
        else:
            value = Fraction(out.strip())
        expected = oracle.casimir(pair, hw)
        if value != expected:
            return "casimir %s %s = %s, expected %s" % (pair, hw, value, expected)
        return None
    return check


def _check_branch(alias, hw, fmt):
    def check(out):
        problem = oracle.branch_problems(alias, hw, _read_decomp(fmt, out))
        return problem and "branch %s %s: %s" % (alias, hw, problem)
    return check


def _check_tensor(tag, a, b, fmt):
    def check(out):
        problem = oracle.tensor_problems(
            oracle.TENSOR_FACTORS[tag], a, b, _read_decomp(fmt, out))
        return problem and "tensor %s %s x %s: %s" % (tag, a, b, problem)
    return check


def round_commands(rng, runner, fixtures, malformed):
    """The seeded list of commands one round runs, in run order, and the
    (kind, hw) sample whose characters are checked against Kostant's
    formula: the first tensor operand of each simple kind."""
    plan = []
    sample = {}

    def add(cls, argv, make_check):
        fmt = rng.choice(("text", "json"))
        plan.append(cls(runner, argv + ["--format", fmt], make_check(fmt)))

    for which in TABLES:
        add(Command, ["tables", which], lambda f, w=which: _check_tables(w, f))
    for which in TABLES:
        add(Command, ["tables", which, "--fixtures", fixtures],
            lambda f, w=which: _check_tables(w, f))
    for pair in sorted(oracle.PAIRS):
        hw = random_weight(rng, oracle.PAIR_FACTORS[pair], CASIMIR_BOX)
        add(Command, ["casimir", "--pair", pair, _weight_arg("--hw", hw)],
            lambda f, p=pair, w=hw: _check_casimir(p, w, f))
    for alias in oracle.COSETS:
        hw = random_weight(rng, oracle.AMBIENT[oracle.COSETS[alias][0]],
                           BRANCH_BOX[alias])
        add(Command, ["branch", "--coset", alias, _weight_arg("--hw", hw)],
            lambda f, c=alias, w=hw: _check_branch(c, w, f))
    for tag, factors in oracle.TENSOR_FACTORS.items():
        a = random_weight(rng, factors, TENSOR_BOX[tag])
        b = random_weight(rng, factors, TENSOR_BOX[tag])
        add(Command, ["tensor", "--algebra", tag, _weight_arg("--a", a),
                      _weight_arg("--b", b)],
            lambda f, t=tag, x=a, y=b: _check_tensor(t, x, y, f))
        if len(factors) == 1 and factors[0] != oracle.U1:
            sample.setdefault(factors[0], a)
    for path in malformed:
        add(Refusal, ["tables", "thm-5.2-H", "--fixtures", path],
            lambda f: None)
    rng.shuffle(plan)
    return plan, sorted(sample.items())


def write_fixtures(workdir, dump):
    """The valid fixture file and the malformed copies; returns the paths."""
    valid = os.path.join(workdir, "fixtures.json")
    with open(valid, "w", encoding="utf-8") as fh:
        fh.write(dump)
    malformed = []
    for name, mutate in MALFORMED:
        doc = json.loads(dump)
        mutate(doc)
        path = os.path.join(workdir, "fixtures-%s.json" % name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        malformed.append(path)
    return valid, malformed


class Runner:
    """Spawns one process per command; keeps the largest peak RSS seen."""

    def __init__(self, workdir):
        self.peak_rss_kb = 0
        self.trace_acc = None  # span totals of traced processes, if tracing
        self._out = os.path.join(workdir, "stdout")
        self._err = os.path.join(workdir, "stderr")
        self._stats = os.path.join(workdir, "spans.json")

    def argv(self, cli_args):
        if self.trace_acc is None:
            return [sys.executable, "-m", "nkdeform.cli"] + cli_args
        shim = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "traced_cli.py")
        return [sys.executable, shim, self._stats] + cli_args

    def run(self, cli_args):
        """(CPU seconds, (rc, stdout, stderr)) of one cold process: its user
        and system time, start-up and exit included."""
        with open(self._out, "w") as out, open(self._err, "w") as err:
            proc = subprocess.Popen(self.argv(cli_args), stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
        elapsed = usage.ru_utime + usage.ru_stime
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(self._out, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(self._err, encoding="utf-8") as fh:
            stderr = fh.read()
        if self.trace_acc is not None:
            with open(self._stats, encoding="utf-8") as fh:
                spans.add(self.trace_acc, json.load(fh))
            os.remove(self._stats)
        return elapsed, (proc.returncode, stdout, stderr)
