"""The package's records: namedtuple subclasses for immutable values, plain
classes with ``__slots__`` for ``Multivector``, ``RepDecomposition`` and
``WeightCharacter``."""

import pytest

from nkdeform import casimir, clifford, cosets, decompose, deform, lie
from nkdeform.errors import ConsistencyError, NonDominantWeightError

PSI = clifford.STANDARD_SPINOR


def _records(rep):
    """(record, one of its fields) for each immutable record type."""
    c = cosets.coset("g2su3")
    ctx = casimir.context("su3-in-g2")
    return {
        "SimpleType": (lie.SIMPLE_TYPES["G2"], "cartan"),
        "RootData": (lie.A2, "factors"),
        "RestrictionMap": (c.restriction, "matrix"),
        "CasimirContext": (ctx, "denominator"),
        "CosetDescriptor": (c, "b_h_pair"),
        "GaugeSummand": (c.gauges[deform.GAUGE_H][1][0], "matched"),
        "Gauge": (c.gauges[deform.GAUGE_H], "space"),
        "CurvatureSpectrum": (deform.curvature_spectrum(c, deform.GAUGE_H), "entries"),
        "DeformationSpace": (deform.deformation_space(c, deform.GAUGE_H), "halved"),
        "Multivector": (clifford.Multivector.vector(1), "coeffs"),
        "CliffordRep": (rep, "blades"),
        "SpinorBlockSpectra": (clifford.spinor_decomposition_spectra(rep, PSI), "q_values"),
        "CheckResult": (clifford.verify_identity_suite(rep, PSI)[0], "passed"),
        "TwoFormSpectrum": (clifford.q_contraction_spectrum(rep, PSI), "minus_one_basis"),
        "RepDecomposition": (c.mstar, "entries"),
    }


# A RepDecomposition defines no hash, nor do the records holding one.
UNHASHABLE = {"CosetDescriptor", "DeformationSpace", "Gauge", "RepDecomposition"}


def _rebuild(record):
    """A new record built by the constructor from the same field values."""
    if isinstance(record, clifford.Multivector):
        return clifford.Multivector(record.coeffs)
    if isinstance(record, decompose.RepDecomposition):
        return decompose.RepDecomposition(record.root_data, dict(record.entries))
    return type(record)(*record)


def test_immutable_records_refuse_field_assignment(rep):
    for name, (record, field) in _records(rep).items():
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        assert type(record).__name__ == name


def test_records_compare_and_hash_by_value(rep):
    for name, (record, _) in _records(rep).items():
        twin = _rebuild(record)
        assert twin is not record and twin == record, name
        if name not in UNHASHABLE:
            assert hash(twin) == hash(record), name
    assert lie.RootData(("A2",)) != lie.G2
    assert clifford.Multivector.scalar(1) != clifford.Multivector.scalar(2)
    assert clifford.Multivector.scalar(1) != clifford.Multivector.scalar(1).coeffs


def test_multivector_arithmetic_is_not_tuple_arithmetic():
    e1 = clifford.Multivector.vector(1)
    assert (e1 * e1).coeffs[0] == -1
    with pytest.raises(TypeError):
        3 * e1


def test_reprs_are_unchanged():
    assert repr(lie.A2) == "RootData(factors=('A2',))"
    assert repr(decompose.RepDecomposition(lie.A1, {(2,): 1})) == (
        "RepDecomposition(root_data=RootData(factors=('A1',)), entries={(2,): 1})"
    )
    assert repr(lie.WeightCharacter(lie.A1, {(0,): 1})) == (
        "WeightCharacter(root_data=RootData(factors=('A1',)), weights={(0,): 1})"
    )
    assert repr(decompose.RestrictionMap(((1, 1),))) == (
        "RestrictionMap(matrix=((1, 1),))"
    )


def test_root_data_refuses_an_unknown_factor():
    with pytest.raises(ValueError, match="unknown factor tag 'B3'"):
        lie.RootData(("A1", "B3"))


def test_rep_decomposition_refuses_bad_entries():
    with pytest.raises(NonDominantWeightError):
        decompose.RepDecomposition(lie.A2, {(1, -1): 1})
    with pytest.raises(ValueError, match="multiplicity must be >= 1, got 0"):
        decompose.RepDecomposition(lie.A2, {(1, 0): 0})
    assert decompose.RepDecomposition(lie.A2).entries == {}


def test_rep_decomposition_entries_are_read_only():
    entries = decompose.RepDecomposition(lie.A2, {(1, 0): 1}).entries
    with pytest.raises(TypeError):
        entries[(0, 1)] = 1
    with pytest.raises(TypeError):
        del entries[(1, 0)]
    assert entries == {(1, 0): 1}


@pytest.mark.parametrize(
    "trivial_summands,message",
    [
        (5, "covers 40 dimensions, expected 48"),
        (6, "trace -192 != 0"),
    ],
    ids=["covers", "trace"],
)
def test_gauge_data_refuses_bad_curvature_pairs(trivial_summands, message):
    # m* replaced by trivial summands, which _check_mstar would refuse: five
    # cover too little, six give the eigenvalue -4 on all 48 dimensions.
    c = cosets.coset("g2su3")
    assert deform._gauge_data(c, c.h_adjoint) == c.gauges[deform.GAUGE_H]
    mstar = decompose.RepDecomposition(c.h_data, {(0, 0): trivial_summands})
    with pytest.raises(ConsistencyError, match=message):
        deform._gauge_data(c._replace(mstar=mstar), c.h_adjoint)
