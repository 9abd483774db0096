"""Fixtures for the four homogeneous nearly Kahler six-manifolds.

Each descriptor bundles the isometry algebra g, the isotropy algebra h, the
restriction map between their weight lattices, the two normalized invariant
forms, the adjoints of g and h, the h-decomposition of the complexified
cotangent representation m* together with its (1,0)-part V, and the two
gauges (the adjoint of h for ``H``; V (x) V* minus a trivial summand, from
the descriptor's own V, for ``SU3``).  Each gauge's curvature spectrum and
deformation space are derived once, when the descriptor is built, by
:mod:`deform` (:class:`deform.Gauge`), which holds that math.

Only the two form pair tags and V are stored per coset.  g, h and the
restriction map are those of the pairs in :mod:`casimir`, which derives B_H
from B_G through the same matrices.  Each adjoint is the highest root of
every simple factor plus one trivial summand per U(1) factor, and
m* = branch(adjoint g) - adjoint h.  Every descriptor is validated:

* each form is on the algebra it serves: B_G on g, B_H on h;
* B_H is the restriction of B_G: gram_H^-1 = R gram_G^-1 R^T for the
  restriction map R;
* dim m* = 6, dim V = 3, and m* = V + conj(V);
* every irreducible component of m* has h-Casimir eigenvalue -4 (the Ricci
  curvature of the canonical connection is 4x the metric);
* the gauge checks of :mod:`deform`: the curvature pairs of each gauge
  algebra E cover 6 dim E and are traceless, and every complexified
  deformation multiplicity is even.

The form checks run before m* is derived, so that a wrong form is reported
as such; the m* checks catch a wrong restriction matrix, and the curvature
checks (:class:`ConsistencyError`) a wrong tensor product or dimension.

Descriptors can also be serialized to / loaded from JSON with all rationals
as exact numerator/denominator pairs (see :func:`load_fixtures`).  A file
keeps a copy of the adjoints and m*, which the loader checks against the
ones derived from its algebras and restriction map.  A malformed file
raises :class:`FixtureError` naming the JSON path of the bad field, e.g.
``cosets[0].mstar[0].mult`` or ``cosets[0].h_adjoint``, or ``fixture file``
when it is not UTF-8 JSON.
"""

import collections
import json
from fractions import Fraction
from functools import lru_cache

from . import casimir, decompose, deform, lie, ratlinalg
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

    def _check_forms(self):
        for key, pair, ctx, data in (
            ("B_G", self.b_g_pair, self.context_g, self.g_data),
            ("B_H", self.b_h_pair, self.context_h, self.h_data),
        ):
            if ctx.root_data != data:
                raise FixtureError(
                    "%s: %s.pair %r is a form on %s, not on %s"
                    % (self.name, key, pair, ctx.root_data.factors, data.factors)
                )
        r = self.restriction.matrix
        restricted = ratlinalg.mat_mul(ratlinalg.mat_mul(r, self.context_g.dual),
                                       ratlinalg.transpose(r))
        if list(map(list, self.context_h.dual)) != restricted:
            raise FixtureError(
                "%s: B_H %r is not the restriction of B_G %r: gram_H^-1 != "
                "R gram_G^-1 R^T" % (self.name, self.b_h_pair, self.b_g_pair)
            )
        return self

    def _check_mstar(self):
        if self.mstar.dimension() != 6:
            raise FixtureError("%s: dim m* = %d" % (self.name, self.mstar.dimension()))
        if self.mstar_holomorphic.dimension() != 3:
            raise FixtureError(
                "%s: dim V = %d" % (self.name, self.mstar_holomorphic.dimension())
            )
        both = dict(self.mstar_holomorphic.entries)
        for hw, mult in self.mstar_holomorphic.entries.items():
            neg = self.h_data.dominant_representative(tuple(-c for c in hw))
            both[neg] = both.get(neg, 0) + mult
        if both != self.mstar.entries:
            raise FixtureError(
                "%s: m* is not V + conj(V): %s vs %s"
                % (self.name, both, self.mstar.entries)
            )
        ctx = self.context_h
        for hw in self.mstar.entries:
            value = casimir.casimir_eigenvalue(ctx, hw)
            if value != -4:
                raise FixtureError(
                    "%s: m* component %r has Casimir %s, expected -4"
                    % (self.name, hw, value)
                )
        return self


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
    """The validated descriptor with its adjoints, m* and gauge data
    derived.  A negative multiplicity in branch(adjoint g) - adjoint h is
    refused by :class:`decompose.RepDecomposition` with ``ValueError``."""
    c = CosetDescriptor(
        name, g_data, h_data, decompose.RestrictionMap(matrix), b_g_pair,
        b_h_pair, None, holomorphic, _adjoint(g_data), _adjoint(h_data), None,
    )._check_forms()
    mstar = {}
    for hw, mult in c.g_adjoint.entries.items():
        decompose._add(mstar, decompose.branch(c.restriction, g_data, h_data, hw), mult)
    decompose._add(mstar, c.h_adjoint, -1)
    c = c._replace(mstar=decompose.RepDecomposition(
        h_data, {hw: m for hw, m in mstar.items() if m}))._check_mstar()
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


def _frac_load(obj):
    return Fraction(obj["num"], obj["den"])


def _decomp_load(root_data, items):
    entries = {tuple(e["hw"]): e["mult"] for e in items}
    if len(entries) != len(items):
        raise FixtureError("a highest weight is listed twice in %s" % items)
    return decompose.RepDecomposition(root_data, entries)


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


def descriptor_from_dict(obj, path="descriptor"):
    """Build and validate one descriptor from its JSON form; FixtureError
    names the JSON path, starting at ``path``, of what is wrong."""
    _check_schema(obj, _DESCRIPTOR_SCHEMA, path)
    try:
        g_data = lie.RootData(tuple(obj["G"]["factors"]))
        h_data = lie.RootData(tuple(obj["H"]["factors"]))
    except ValueError as exc:
        raise FixtureError("%s: %s" % (path, exc)) from None
    rows = obj["restriction"]
    where = path + ".restriction"
    if len(rows) != h_data.num_coords or any(
        len(row) != g_data.num_coords for row in rows
    ):
        raise FixtureError(
            "%s: expected a %dx%d matrix, a row per H coordinate and a column"
            " per G coordinate" % (where, h_data.num_coords, g_data.num_coords)
        )
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x["den"] == 0:
                raise FixtureError("%s[%d][%d].den: zero denominator" % (where, i, j))
    try:
        c = _descriptor(
            obj["name"], g_data, h_data,
            tuple(tuple(_frac_load(x) for x in row) for row in rows),
            obj["B_G"]["pair"], obj["B_H"]["pair"],
            _decomp_load(h_data, obj["mstar_holomorphic"]),
        )
        # The file repeats these; they are derived, and the copies checked.
        given = {key: _decomp_load(getattr(c, key).root_data, obj[key])
                 for key in ("mstar", "g_adjoint", "h_adjoint")}
    except (ValueError, FixtureError) as exc:
        raise FixtureError("%s: %s" % (path, exc)) from None
    for key, d in given.items():
        if d != getattr(c, key):
            raise FixtureError(
                "%s.%s: %s, but G, H and the restriction give %s"
                % (path, key, d, getattr(c, key))
            )
    return c


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
    """Load and validate coset descriptors from a JSON fixture file.

    Returns a dict mapping canonical coset names to descriptors.  The file
    must describe each of the four cosets once, and every descriptor passes
    the full construction invariants; corrupt data raises
    :class:`FixtureError` with the JSON path of the bad field.
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
        c = descriptor_from_dict(obj, where)
        if c.name not in COSET_NAMES or c.name in table:
            raise FixtureError(
                "%s.name: %r is not a coset or is listed twice" % (where, c.name)
            )
        table[c.name] = c
    missing = [name for name in COSET_NAMES if name not in table]
    if missing:
        raise FixtureError("cosets: no descriptor for %s" % ", ".join(missing))
    return table
