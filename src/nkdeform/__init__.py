"""Exact computational engine for instantons on the four homogeneous nearly
Kahler six-manifolds.

The package computes, in exact rational arithmetic, the representation
theory behind the canonical connection on G2/SU(3), SU(2)^3/SU(2),
Sp(2)/Sp(1)xU(1) and SU(3)/U(1)^2: Casimir spectra, tensor and branching
decompositions, curvature-operator spectra, the Frobenius-reciprocity count
of instanton deformations, and the Clifford-algebra identities of the
underlying SU(3)-structures.

The package re-exports no names.  Its modules (``lie``, ``casimir``,
``decompose``, ``cosets``, ``deform``, ``clifford``, ``ratlinalg``,
``cli``) are imported on first use, as ``from nkdeform import lie`` or as
``nkdeform.lie`` after ``import nkdeform``, so a command loads only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("lie", "casimir", "decompose", "cosets", "deform", "clifford",
            "ratlinalg", "errors", "cli")


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
