"""The package's former slow routes, kept as references for its fast paths.

* :func:`tensor_by_characters` multiplies the two characters and peels off
  irreducibles; the package uses the Brauer-Klimyk rule.
* :func:`casimir` is B(hw, hw) + 2 B(hw, delta) in ``Fraction`` arithmetic
  on the stored Gram matrix; the package uses the integer form D * Cas.
* :func:`weyl_dimension` is the Weyl product formula in ``Fraction``
  arithmetic on each simple type's Gram matrix; the package uses integer
  coroot pairings.

The tests compare each pair exactly.
"""

from fractions import Fraction

from nkdeform import decompose, lie


def _ip(gram, u, v):
    n = len(gram)
    return sum(
        Fraction(u[i]) * gram[i][j] * Fraction(v[j])
        for i in range(n)
        for j in range(n)
    )


def casimir(ctx, hw):
    """B(hw, hw) + 2 B(hw, delta) on the Gram matrix of the context's form."""
    gram = ctx.form.gram
    return _ip(gram, hw, hw) + 2 * _ip(gram, hw, ctx.root_data.delta())


def weyl_dimension(root_data, hw):
    """prod (hw + delta, alpha) / (delta, alpha) over the positive roots of
    every simple factor, as a Fraction."""
    dim = Fraction(1)
    for tag, start, stop in root_data.blocks:
        if tag == lie.U1:
            continue
        st = lie.SIMPLE_TYPES[tag]
        delta = (1,) * st.rank
        shifted = tuple(a + 1 for a in hw[start:stop])
        for r in st.positive_roots:
            a = st.root_fund(r)
            dim *= _ip(st.gram, shifted, a) / _ip(st.gram, delta, a)
    return dim


def tensor_by_characters(root_data, hw1, hw2):
    """(decomposition, dimension of the product character) of V(hw1) x V(hw2),
    from the product of the two characters and peel-off."""
    c1 = lie.weight_multiplicities(root_data, hw1)
    c2 = lie.weight_multiplicities(root_data, hw2)
    prod = {}
    for w1, m1 in c1.weights.items():
        for w2, m2 in c2.weights.items():
            w = tuple(a + b for a, b in zip(w1, w2))
            prod[w] = prod.get(w, 0) + m1 * m2
    char = lie.WeightCharacter(root_data, prod)
    return decompose.peel_off(char), char.total()
