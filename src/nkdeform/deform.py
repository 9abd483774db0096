"""Curvature-operator spectra and instanton deformation spaces.

Two computations, both exact:

* the spectrum of the canonical-connection curvature operator
  eps -> -2 F . eps on m* (x) E, assembled from Casimir eigenvalues
  (eigenvalue on an irreducible U inside E_alpha (x) m* is
  -4 + Cas_h(E_alpha) - Cas_h(U), with multiplicity dim U), summed in
  integers scaled by the denominator D of the form on h
  (-4 D + q(E_alpha) - q(U), with q = D * Cas_h) and divided by D once per
  distinct eigenvalue;

* the space of solutions of the linearized instanton plus gauge-fixing
  equations, found by Frobenius reciprocity: a G-irreducible W contributes
  once per common irreducible component of its restriction to H and of
  E_alpha (x) m*, provided Cas_g(W) equals Cas_h(E_alpha).

Both are derived once per (coset, gauge) when :mod:`cosets` builds the
descriptor, from each gauge summand's curvature pairs and Frobenius counts
(:class:`GaugeSummand`), checked and stored as a :class:`Gauge`; the two
public functions return the stored records, so a warm call computes
nothing.

The complexified solution space always has even multiplicities (the volume
form acts as a complex structure swapping two copies); the halved
decomposition is the reported deformation space and its real dimension uses
complex dimensions of the halved summands.
"""

import collections
from fractions import Fraction
from types import MappingProxyType

from . import casimir, decompose, lie
from .errors import ConsistencyError, EvennessViolationError, UnknownTagError

GAUGE_H = "H"
GAUGE_SU3 = "SU3"
GAUGE_GROUPS = (GAUGE_H, GAUGE_SU3)


class CurvatureSpectrum(collections.namedtuple(
        "CurvatureSpectrum", "entries gauge_dimension")):
    """Eigenvalue/multiplicity pairs, ascending, and the dimension of the
    gauge algebra E; the pairs are checked to be traceless and to cover
    6 dim E when the record is built."""

    __slots__ = ()


class DeformationSpace(collections.namedtuple(
        "DeformationSpace", "complexified halved real_dimension")):
    """Complexified solution space, its halved form (both
    :class:`decompose.RepDecomposition`) and the real dimension."""

    __slots__ = ()


class GaugeSummand(collections.namedtuple(
        "GaugeSummand", "hw n_alpha casimir curvature matched")):
    """One irreducible summand E_alpha of a gauge algebra: its highest
    weight, n_alpha and Cas_h(E_alpha), and what the two computations read
    off E_alpha (x) m*.  ``curvature`` holds the pairs
    (q(E_alpha) - 4D - q(U), n_alpha * mult * dim U) over the irreducibles U
    of E_alpha (x) m*, with q = D * Cas_h in integers; ``matched`` the pairs
    (W, count) over the G-highest weights W with Cas_g(W) = Cas_h(E_alpha),
    sorted by W, where count = sum_U mult_U(E_alpha (x) m*) mult_U(W|_H) is
    the Frobenius-reciprocity count, zeros included."""

    __slots__ = ()


class Gauge(collections.namedtuple("Gauge", "rep summands spectrum space")):
    """One gauge group of a coset: the H-decomposition of its complexified
    gauge algebra, the :class:`GaugeSummand` of each irreducible summand,
    sorted by highest weight, and its :class:`CurvatureSpectrum` and
    :class:`DeformationSpace`."""

    __slots__ = ()


def _gauge_su3(c):
    """V (x) V* minus one trivial summand, V the (1,0)-part of c's m*.  The
    identity of V is the trivial summand, and dim V = 3 gives dimension 8."""
    holo = c.mstar_holomorphic
    entries = {}
    for hw1, m1 in holo.entries.items():
        for hw2, m2 in holo.entries.items():
            dual = c.h_data.dominant_representative(tuple(-x for x in hw2))
            decompose._add(
                entries, decompose.tensor_decompose(c.h_data, hw1, dual), m1 * m2)
    entries[(0,) * c.h_data.num_coords] -= 1
    return decompose.RepDecomposition(
        c.h_data, {hw: m for hw, m in entries.items() if m})


def _complexified_solutions(summands):
    """Frobenius-reciprocity count over each summand's Casimir-matched
    G-irreducibles, as a G-decomposition with (even) multiplicities."""
    total = {}
    for s in summands:
        for w_hw, n in s.matched:
            if n:
                total[w_hw] = total.get(w_hw, 0) + s.n_alpha * n
    return total


def _gauge_data(c, decomp):
    """The :class:`Gauge` of the gauge algebra ``decomp`` on the descriptor
    ``c``.  The curvature pairs must cover 6 dim E and be traceless, or
    :class:`ConsistencyError` is raised; an odd complexified multiplicity
    raises :class:`EvennessViolationError`."""
    ctx_h = c.context_h
    summands = []
    for hw, n_alpha in decomp.sorted_items():
        tensor = {}
        for m_hw, m_mult in c.mstar.entries.items():
            decompose._add(
                tensor, decompose.tensor_decompose(c.h_data, hw, m_hw), m_mult)
        c_alpha = casimir.casimir_eigenvalue(ctx_h, hw)
        base = ctx_h.scaled_casimir(hw) - 4 * ctx_h.denominator
        curvature = tuple(
            (base - ctx_h.scaled_casimir(u_hw),
             n_alpha * u_mult * lie._weyl_dimension(c.h_data, u_hw))
            for u_hw, u_mult in sorted(tensor.items()))
        matched = []
        for w_hw in casimir.irreps_with_casimir(c.context_g, c_alpha):
            restricted = decompose.branch(c.restriction, c.g_data, c.h_data, w_hw)
            matched.append((w_hw, sum(
                u_mult * restricted.mult(u_hw) for u_hw, u_mult in tensor.items())))
        summands.append(GaugeSummand(hw, n_alpha, c_alpha, curvature, tuple(matched)))

    spectrum = collections.Counter()
    for eig, dim in (pair for s in summands for pair in s.curvature):
        spectrum[eig] += dim
    gauge_dimension = decomp.dimension()
    covered = sum(spectrum.values())
    if covered != 6 * gauge_dimension:
        raise ConsistencyError(
            "%s: curvature spectrum covers %d dimensions, expected %d"
            % (c.name, covered, 6 * gauge_dimension))
    trace = sum(eig * dim for eig, dim in spectrum.items())
    if trace:
        raise ConsistencyError(
            "%s: curvature operator trace %s != 0"
            % (c.name, Fraction(trace, ctx_h.denominator)))
    d = ctx_h.denominator
    entries = tuple((Fraction(e, d), m) for e, m in sorted(spectrum.items()))

    total = _complexified_solutions(summands)
    for w_hw, mult in total.items():
        if mult % 2:
            raise EvennessViolationError(
                "complexified multiplicity of %r in %s is odd (%d)"
                % (w_hw, c.name, mult)
            )
    halved = decompose.RepDecomposition(
        c.g_data, {hw: m // 2 for hw, m in total.items()})
    return Gauge(
        decomp, tuple(summands), CurvatureSpectrum(entries, gauge_dimension),
        DeformationSpace(decompose.RepDecomposition(c.g_data, total), halved,
                         halved.dimension()),
    )


def _gauges(c):
    """The read-only map from each gauge group to its :class:`Gauge`."""
    return MappingProxyType({
        GAUGE_H: _gauge_data(c, c.h_adjoint),
        GAUGE_SU3: _gauge_data(c, _gauge_su3(c)),
    })


def _gauge(c, gauge):
    """The stored :class:`Gauge` of one gauge group of ``c``."""
    if gauge not in GAUGE_GROUPS:
        raise UnknownTagError("gauge must be one of %s" % (GAUGE_GROUPS,))
    return c.gauges[gauge]


def curvature_spectrum(c, gauge):
    """Spectrum of eps -> -2 F . eps on m* (x) E for the canonical connection:
    the sum of the D-scaled eigenvalue/dimension pairs of the gauge
    summands, divided by D once per eigenvalue.  The record is built with
    the descriptor and shared read-only."""
    return _gauge(c, gauge).spectrum


def deformation_space(c, gauge):
    """Instanton deformations of the canonical connection on ``c``.

    ``gauge`` selects the principal bundle: the H-bundle G -> G/H or the
    SU(3)-bundle of the tangent bundle.  The record is built with the
    descriptor and shared read-only.
    """
    return _gauge(c, gauge).space
