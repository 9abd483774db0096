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
accepts a file only if it parses to that very document, and returns the
built-in descriptors: a file can restate the coset data but not change it.
Any other file raises :class:`FixtureError` naming the JSON path of the
first difference, e.g. ``cosets[0].mstar[0].mult`` or ``cosets``, or
``fixture file`` when it cannot be read as UTF-8 JSON.
"""

import collections
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
# JSON fixture file


FIXTURE_SCHEMA = "nk-coset-fixtures-v1"


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


def _document(entry):
    """The fixture document, with ``entry(name)`` as each coset's entry."""
    return {"schema": FIXTURE_SCHEMA, "cosets": [entry(n) for n in COSET_NAMES]}


def dump_fixtures():
    """The embedded fixtures in the external JSON schema (deterministic)."""
    import json

    return json.dumps(_document(lambda n: descriptor_to_dict(coset(n))),
                      sort_keys=True, indent=2)


_ABSENT = object()


def _show(value, typed=False):
    """A value of a fixture document as a refusal names it, on one line: a
    dict or a list by its type and length, and a leaf by its text, or by
    its type and repr when ``typed`` or when the text is not printable."""
    if value is _ABSENT:
        return "no such key"
    if type(value) in (dict, list):
        return "%s of %d" % (type(value).__name__, len(value))
    if typed or not str(value).isprintable():
        return "%s %r" % (type(value).__name__, value)
    return str(value)


def _compare(given, expected, path, name=None):
    """Raise :class:`FixtureError` at the first difference between
    ``given``, a parsed fixture file, and ``expected``, naming its JSON path
    and, below a coset, the built-in coset ``name`` and its value.  Dict
    keys are compared in ``expected``'s order, then the extra keys of
    ``given``; types exactly, so true is not 1 and 1.0 is not 1.  A
    callable in ``expected`` is a coset's entry, built when reached."""
    if callable(expected):
        expected = expected()
        name = expected["name"]
    same_type = type(given) is type(expected)
    if same_type and type(expected) is dict:
        for key in list(expected) + sorted(given.keys() - expected.keys()):
            where = "%s.%s" % (path, _show(key)) if path else _show(key)
            _compare(given.get(key, _ABSENT), expected.get(key, _ABSENT), where, name)
    elif same_type and type(expected) is list and len(given) == len(expected):
        for i, (item, want) in enumerate(zip(given, expected)):
            _compare(item, want, "%s[%d]" % (path, i), name)
    elif not same_type or given != expected:
        raise FixtureError("%s: %s, but the built-in %s has %s" % (
            path or "fixture file", _show(given, not same_type),
            name or "coset data", _show(expected, not same_type)))


def load_fixtures(path):
    """Check a JSON fixture file against the built-in descriptors and
    return those, by canonical coset name.  The file is accepted iff its
    JSON equals the document :func:`dump_fixtures` writes, up to whitespace
    and object-key order, with JSON types compared exactly; any other file
    raises :class:`FixtureError` naming the first difference
    (:func:`_compare`)."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # ValueError covers bad UTF-8
            raise FixtureError(
                "fixture file: unreadable as UTF-8 JSON: %s" % exc) from None
    _compare(data, _document(lambda n: lambda: descriptor_to_dict(coset(n))), "")
    return {name: coset(name) for name in COSET_NAMES}
