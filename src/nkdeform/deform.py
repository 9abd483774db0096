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

Both read what the coset descriptor derives once per gauge summand
E_alpha (:class:`cosets.GaugeSummand`): the spectrum adds its stored
integer eigenvalue/dimension pairs, and the count runs over its stored
G-irreducibles W with Cas_g(W) = Cas_h(E_alpha), so a warm call computes no
Casimir.  The branching of each W and the Frobenius count are done here.

The complexified solution space always has even multiplicities (the volume
form acts as a complex structure swapping two copies); the halved
decomposition is the reported deformation space and its real dimension uses
complex dimensions of the halved summands.
"""

import collections
from fractions import Fraction

from . import cosets, decompose, lie
from .errors import ConsistencyError, EvennessViolationError


class CurvatureSpectrum(collections.namedtuple(
        "CurvatureSpectrum", "entries gauge_dimension")):
    """Eigenvalue/multiplicity pairs, ascending, traceless, total 6*dim(E)."""

    __slots__ = ()

    def __new__(cls, entries, gauge_dimension):
        self = super().__new__(cls, entries, gauge_dimension)
        values = [e for e, _ in self.entries]
        if values != sorted(values):
            raise ConsistencyError("spectrum entries not sorted")
        if self.total_dimension() != 6 * self.gauge_dimension:
            raise ConsistencyError(
                "spectrum covers %d dimensions, expected %d"
                % (self.total_dimension(), 6 * self.gauge_dimension)
            )
        if self.trace() != 0:
            raise ConsistencyError("curvature operator trace %s != 0" % self.trace())
        return self

    def total_dimension(self):
        return sum(d for _, d in self.entries)

    def trace(self):
        return sum(e * d for e, d in self.entries)


class DeformationSpace(collections.namedtuple(
        "DeformationSpace", "complexified halved real_dimension")):
    """Complexified solution space, its halved form (both
    :class:`decompose.RepDecomposition`) and the real dimension."""

    __slots__ = ()


def curvature_spectrum(c, gauge):
    """Spectrum of eps -> -2 F . eps on m* (x) E for the canonical connection:
    the sum of the D-scaled eigenvalue/dimension pairs the descriptor
    stores with each gauge summand, divided by D once per eigenvalue."""
    gauge_decomp, summands = cosets._gauge(c, gauge)
    spectrum = {}
    for s in summands:
        for eig, dim in s.curvature:
            spectrum[eig] = spectrum.get(eig, 0) + dim
    d = c.context_h.denominator
    entries = tuple((Fraction(e, d), m) for e, m in sorted(spectrum.items()))
    return CurvatureSpectrum(entries, gauge_decomp.dimension())


def _complexified_solutions(c, summands):
    """Frobenius-reciprocity count over each summand's Casimir-matched
    G-irreducibles, as a G-decomposition with (even) multiplicities."""
    total = {}
    for s in summands:
        for w_hw in s.matched:
            restricted = decompose.branch(
                c.restriction, c.g_data, c.h_data, w_hw
            )
            n = sum(
                u_mult * restricted.mult(u_hw)
                for u_hw, u_mult in s.tensor.entries.items()
            )
            if n:
                total[w_hw] = total.get(w_hw, 0) + s.n_alpha * n
    return total


def deformation_space(c, gauge):
    """Instanton deformations of the canonical connection on ``c``.

    ``gauge`` selects the principal bundle: the H-bundle G -> G/H or the
    SU(3)-bundle of the tangent bundle.
    """
    total = _complexified_solutions(c, cosets._gauge(c, gauge)[1])
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
    real_dim = sum(
        m * lie.dimension(c.g_data, hw) for hw, m in halved.entries.items()
    )
    return DeformationSpace(complexified, halved, real_dim)

