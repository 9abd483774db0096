"""Fixtures for the four homogeneous nearly Kahler six-manifolds.

Each descriptor bundles the isometry algebra g, the isotropy algebra h, the
restriction map between their weight lattices, the two normalized invariant
forms, the adjoints of g and h, the h-decomposition of the complexified
cotangent representation m* together with its (1,0)-part V, and the two
gauges (the adjoint of h for ``H``; V (x) V* minus a trivial summand, from
the descriptor's own V, for ``SU3``).  Each gauge's curvature spectrum and
deformation space are derived once, when the descriptor is built, by
:mod:`deform` (:class:`deform.Gauge`), which holds that math and its
checks.

Only the two form pair tags and V are stored per coset.  g, h and the
restriction map are those of the pairs in :mod:`casimir`, which derives B_H
from B_G through the same matrices.  Each adjoint is the highest root of
every simple factor plus one trivial summand per U(1) factor, and
m* = branch(adjoint g) - adjoint h.  The tests check what the paper asks of
this data: dim m* = 6, m* = V + conj(V) with the weights of V summing to
zero, and h-Casimir eigenvalue -4 on every irreducible component of m*.

The descriptors can be written to JSON with all rationals as exact
numerator/denominator pairs (:func:`dump_fixtures`).  :func:`load_fixtures`
checks such a file field by field against the built-in descriptors, which
it returns: a file can restate the coset data but not change it.  A
malformed or differing file raises :class:`FixtureError` naming the JSON
path of the first bad field, e.g. ``cosets[0].mstar[0].mult`` or
``cosets[0].h_adjoint``, or ``fixture file`` when it is not UTF-8 JSON.
"""

import collections
import json
from fractions import Fraction
from functools import lru_cache

from . import casimir, decompose, deform, lie
from .decompose import _decomp_json
from .errors import FixtureError, UnknownTagError
from .ratlinalg import _frac_json


class CosetDescriptor(collections.namedtuple(
        "CosetDescriptor",
        "name g_data h_data restriction b_g_pair b_h_pair mstar"
        " mstar_holomorphic g_adjoint h_adjoint gauges")):
    """One coset's data: g and h as :class:`lie.RootData`, a
    :class:`decompose.RestrictionMap`, the two form pair tags of
    :mod:`casimir`, m*, its (1,0)-part V and the two adjoints as
    :class:`decompose.RepDecomposition`, and ``gauges``, a read-only map
    from each gauge group to its :class:`deform.Gauge`."""

    __slots__ = ()

    @property
    def context_g(self):
        return casimir.context(self.b_g_pair)

    @property
    def context_h(self):
        return casimir.context(self.b_h_pair)


def _adjoint(root_data):
    """The adjoint: the highest root of each simple factor, and one trivial
    summand per U(1) factor."""
    entries = {}
    for tag, start, stop in root_data.blocks:
        hw = [0] * root_data.num_coords
        if tag != lie.U1:
            st = lie.SIMPLE_TYPES[tag]
            hw[start:stop] = st.root_fund(st.positive_roots[-1])
        entries[tuple(hw)] = entries.get(tuple(hw), 0) + 1
    return decompose.RepDecomposition(root_data, entries)


def _descriptor(name, g_data, h_data, matrix, b_g_pair, b_h_pair, holomorphic):
    """The descriptor with its adjoints, m* and gauge data derived.  A
    negative multiplicity in branch(adjoint g) - adjoint h is refused by
    :class:`decompose.RepDecomposition` with ``ValueError``."""
    c = CosetDescriptor(
        name, g_data, h_data, decompose.RestrictionMap(matrix), b_g_pair,
        b_h_pair, None, holomorphic, _adjoint(g_data), _adjoint(h_data), None,
    )
    mstar = {}
    for hw, mult in c.g_adjoint.entries.items():
        decompose._add(mstar, decompose.branch(c.restriction, g_data, h_data, hw), mult)
    decompose._add(mstar, c.h_adjoint, -1)
    c = c._replace(mstar=decompose.RepDecomposition(
        h_data, {hw: m for hw, m in mstar.items() if m}))
    return c._replace(gauges=deform._gauges(c))


# name -> (B_G pair tag, B_H pair tag, highest weights of V, the (1,0)-part
# of m*).  g, h and the restriction map are those of the pairs.
_COSETS = {
    "G2/SU(3)": ("g2", "su3-in-g2", ((1, 0),)),
    "SU(2)^3/SU(2)": ("su2cubed", "su2-diagonal-in-su2cubed", ((2,),)),
    "Sp(2)/Sp(1)xU(1)": ("sp2", "sp1u1-in-sp2", ((1, 1), (0, -2))),
    "SU(3)/U(1)^2": ("su3-ambient", "u1u1-in-su3", ((2, -1), (-1, 2), (-1, -1))),
}

COSET_NAMES = tuple(_COSETS)

ALIASES = {
    "g2su3": "G2/SU(3)",
    "su2cubed": "SU(2)^3/SU(2)",
    "sp2": "Sp(2)/Sp(1)xU(1)",
    "su3t2": "SU(3)/U(1)^2",
}


def canonical_name(name):
    if name in _COSETS:
        return name
    if name in ALIASES:
        return ALIASES[name]
    raise UnknownTagError(
        "unknown coset %r (known: %s and aliases %s)"
        % (name, ", ".join(COSET_NAMES), ", ".join(sorted(ALIASES)))
    )


def coset(name):
    """The validated descriptor of a coset, one per canonical name."""
    return _coset(canonical_name(name))


@lru_cache(maxsize=None)
def _coset(name):
    b_g_pair, b_h_pair, holomorphic = _COSETS[name]
    h_data, _, matrix = casimir._PAIRS[b_h_pair]
    return _descriptor(
        name, casimir._PAIRS[b_g_pair][0], h_data, matrix, b_g_pair, b_h_pair,
        decompose.RepDecomposition(h_data, dict.fromkeys(holomorphic, 1)),
    )


def gauge_rep(c, gauge):
    """H-decomposition of the complexified gauge representation: for ``H``
    the adjoint ``c.h_adjoint`` (trivial charges for abelian factors), for
    ``SU3`` the su(3) of the tangent bundle (:func:`deform._gauge_su3`).
    The decomposition is the one stored in ``c``, shared and read-only."""
    return deform._gauge(c, gauge).rep


# ---------------------------------------------------------------------------
# JSON fixture schema


FIXTURE_SCHEMA = "nk-coset-fixtures-v1"


_DECOMP_SCHEMA = [{"hw": [int], "mult": int}]
_DESCRIPTOR_SCHEMA = {
    "name": str,
    "G": {"factors": [str]},
    "H": {"factors": [str]},
    "restriction": [[{"num": int, "den": int}]],
    "B_G": {"pair": str},
    "B_H": {"pair": str},
    "mstar": _DECOMP_SCHEMA,
    "mstar_holomorphic": _DECOMP_SCHEMA,
    "g_adjoint": _DECOMP_SCHEMA,
    "h_adjoint": _DECOMP_SCHEMA,
}


def _check_schema(value, schema, path):
    """Raise FixtureError naming the JSON path of the first field of
    ``value`` that is missing or not of the type ``schema`` gives it: a dict
    of required keys, a one-item list for a list of such items, or a type."""
    kind = type(schema) if isinstance(schema, (dict, list)) else schema
    if type(value) is not kind:  # also keeps bool out of int
        raise FixtureError(
            "%s: expected %s, got %s"
            % (path or "fixture file", kind.__name__, type(value).__name__)
        )
    if isinstance(schema, dict):
        for key, sub in schema.items():
            where = "%s.%s" % (path, key) if path else key
            if key not in value:
                raise FixtureError("%s: missing" % where)
            _check_schema(value[key], sub, where)
    elif isinstance(schema, list):
        for i, item in enumerate(value):
            _check_schema(item, schema[0], "%s[%d]" % (path, i))


def descriptor_to_dict(c):
    return {
        "name": c.name,
        "G": {"factors": list(c.g_data.factors)},
        "H": {"factors": list(c.h_data.factors)},
        "restriction": [[_frac_json(x) for x in row] for row in c.restriction.matrix],
        "B_G": {"pair": c.b_g_pair},
        "B_H": {"pair": c.b_h_pair},
        "mstar": _decomp_json(c.mstar),
        "mstar_holomorphic": _decomp_json(c.mstar_holomorphic),
        "g_adjoint": _decomp_json(c.g_adjoint),
        "h_adjoint": _decomp_json(c.h_adjoint),
    }


def _fields(obj, path):
    """(JSON path, value) of each field of a descriptor's JSON form that
    :func:`load_fixtures` compares, ``obj`` having passed the schema check:
    the restriction as rows of Fractions and decompositions as {hw: mult}."""
    for key in ("G", "H"):
        yield "%s.%s.factors" % (path, key), obj[key]["factors"]
    where = path + ".restriction"
    for r, row in enumerate(obj["restriction"]):
        for col, x in enumerate(row):
            if x["den"] == 0:
                raise FixtureError("%s[%d][%d].den: zero denominator" % (where, r, col))
    # str of a Fraction is in lowest terms, so equal strings are equal rationals.
    yield where, "[%s]" % ", ".join(
        "[%s]" % ", ".join(str(Fraction(x["num"], x["den"])) for x in row)
        for row in obj["restriction"])
    for key in ("B_G", "B_H"):
        yield "%s.%s.pair" % (path, key), obj[key]["pair"]
    for key in ("mstar_holomorphic", "mstar", "g_adjoint", "h_adjoint"):
        where = "%s.%s" % (path, key)
        entries = {tuple(e["hw"]): e["mult"] for e in obj[key]}
        if len(entries) != len(obj[key]):
            raise FixtureError("%s: a highest weight is listed twice" % where)
        yield where, entries


def dump_fixtures():
    """The embedded fixtures in the external JSON schema (deterministic)."""
    return json.dumps(
        {
            "schema": FIXTURE_SCHEMA,
            "cosets": [descriptor_to_dict(coset(n)) for n in COSET_NAMES],
        },
        sort_keys=True,
        indent=2,
    )


def load_fixtures(path):
    """Check a JSON fixture file against the built-in descriptors.

    The file must list each of the four cosets once, with the data
    :func:`dump_fixtures` writes for it.  Returns a dict mapping canonical
    coset names to the built-in descriptors themselves.  A malformed file,
    or one that differs from the built-ins, raises :class:`FixtureError`
    naming the JSON path of the first bad field.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # also UnicodeDecodeError
            raise FixtureError("fixture file: not UTF-8 JSON: %s" % exc) from None
    _check_schema(data, {"schema": str, "cosets": [dict]}, "")
    if data["schema"] != FIXTURE_SCHEMA:
        raise FixtureError("schema: unsupported fixture schema %r" % data["schema"])
    table = {}
    for i, obj in enumerate(data["cosets"]):
        where = "cosets[%d]" % i
        _check_schema(obj, _DESCRIPTOR_SCHEMA, where)
        name = obj["name"]
        if name not in COSET_NAMES or name in table:
            raise FixtureError(
                "%s.name: %r is not a coset or is listed twice" % (where, name)
            )
        table[name] = coset(name)
        for (field, given), (_, expected) in zip(
            _fields(obj, where), _fields(descriptor_to_dict(table[name]), where)
        ):
            if given != expected:
                raise FixtureError(
                    "%s: %s, but the built-in %s has %s" % (field, given, name, expected)
                )
    missing = [name for name in COSET_NAMES if name not in table]
    if missing:
        raise FixtureError("cosets: no descriptor for %s" % ", ".join(missing))
    return table
