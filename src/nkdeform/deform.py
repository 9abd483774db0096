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

Both only add what the coset descriptor derives and checks once per gauge
summand E_alpha (:class:`cosets.GaugeSummand`): the spectrum its integer
eigenvalue/dimension pairs, the count its Frobenius counts n over the
G-irreducibles W with Cas_g(W) = Cas_h(E_alpha), each weighted by
n_alpha.  A warm call branches nothing and computes no Casimir.

The complexified solution space always has even multiplicities (the volume
form acts as a complex structure swapping two copies); the halved
decomposition is the reported deformation space and its real dimension uses
complex dimensions of the halved summands.
"""

import collections
from fractions import Fraction

from . import cosets, decompose
from .errors import EvennessViolationError


class CurvatureSpectrum(collections.namedtuple(
        "CurvatureSpectrum", "entries gauge_dimension")):
    """Eigenvalue/multiplicity pairs, ascending, and the dimension of the
    gauge algebra E; the descriptor checked that the pairs are traceless
    and cover 6 dim E."""

    __slots__ = ()


class DeformationSpace(collections.namedtuple(
        "DeformationSpace", "complexified halved real_dimension")):
    """Complexified solution space, its halved form (both
    :class:`decompose.RepDecomposition`) and the real dimension."""

    __slots__ = ()


def curvature_spectrum(c, gauge):
    """Spectrum of eps -> -2 F . eps on m* (x) E for the canonical connection:
    the sum of the D-scaled eigenvalue/dimension pairs the descriptor
    stores with each gauge summand, divided by D once per eigenvalue.  The
    descriptor checked that the pairs cover 6 dim E, which gives dim E."""
    spectrum = {}
    for s in cosets._gauge(c, gauge)[1]:
        for eig, dim in s.curvature:
            spectrum[eig] = spectrum.get(eig, 0) + dim
    d = c.context_h.denominator
    entries = tuple((Fraction(e, d), m) for e, m in sorted(spectrum.items()))
    return CurvatureSpectrum(entries, sum(spectrum.values()) // 6)


def _complexified_solutions(summands):
    """Frobenius-reciprocity count over each summand's Casimir-matched
    G-irreducibles, as a G-decomposition with (even) multiplicities."""
    total = {}
    for s in summands:
        for w_hw, n in s.matched:
            if n:
                total[w_hw] = total.get(w_hw, 0) + s.n_alpha * n
    return total


def deformation_space(c, gauge):
    """Instanton deformations of the canonical connection on ``c``.

    ``gauge`` selects the principal bundle: the H-bundle G -> G/H or the
    SU(3)-bundle of the tangent bundle.
    """
    total = _complexified_solutions(cosets._gauge(c, gauge)[1])
    for w_hw, mult in total.items():
        if mult % 2:
            raise EvennessViolationError(
                "complexified multiplicity of %r in %s is odd (%d)"
                % (w_hw, c.name, mult)
            )
    complexified = decompose.RepDecomposition(c.g_data, dict(total))
    halved = decompose.RepDecomposition(
        c.g_data, {hw: m // 2 for hw, m in total.items()}
    )
    return DeformationSpace(complexified, halved, halved.dimension())

