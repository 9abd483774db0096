"""Exception types shared across the engine.

Errors derived from ``ValueError`` indicate bad caller input (usage errors);
errors derived from ``RuntimeError`` indicate a violated internal invariant,
i.e. a fixture or implementation bug, never an expected condition.  The one
exception is ``ConventionError``: a ``ValueError``, but the CLI reports it as
an invariant failure (exit 2), since no command takes a spinor as input.
"""


class NonDominantWeightError(ValueError):
    """A highest weight argument has a negative simple-factor coordinate."""


class UnknownTagError(ValueError):
    """An algebra-pair or coset tag is not one of the known fixtures."""


class NotACharacterError(ValueError):
    """A weight multiset is not the character of a genuine representation."""


class MalformedEmbeddingError(ValueError):
    """A restriction map sent a weight outside the target weight lattice."""


class ConventionError(ValueError):
    """A spinor-derived object violates the normalization conventions."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagreed."""


class FixtureError(RuntimeError):
    """A coset fixture file is malformed or differs from the built-in data."""


class EvennessViolationError(RuntimeError):
    """A complexified deformation multiplicity came out odd."""


class IdentityViolationError(RuntimeError):
    """A Clifford-algebra identity check failed exactly."""


class SpectrumError(RuntimeError):
    """An operator expected to have rational spectrum does not."""
