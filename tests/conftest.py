import pytest

from nkdeform import clifford, cosets, decompose

# The oracle's asserts check the oracle route itself.  Rewritten by pytest,
# which must happen before a test module imports it, they also run under
# ``python -O``, which strips plain asserts.
pytest.register_assert_rewrite("clifford_oracle")


@pytest.fixture(scope="session")
def rep():
    return clifford.build_rep()


@pytest.fixture(scope="session")
def non_builtin_descriptors():
    """Descriptors outside the four built-in ones, built directly: Sp(2)/
    Sp(1)xU(1) with V of the other chirality, V(0,2) + V(1,1).  It has the
    built-in m*, but its V's weights do not sum to zero, so it is not a
    nearly Kahler structure; the gauge derivations must still follow it."""
    c = cosets.coset("sp2")
    v = decompose.RepDecomposition(c.h_data, {(0, 2): 1, (1, 1): 1})
    return [cosets._descriptor(c.name, c.g_data, c.h_data, c.restriction.matrix,
                               c.b_g_pair, c.b_h_pair, v)]
