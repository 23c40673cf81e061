"""Reed-Solomon tables laid out as codes, block for block as the builder lays out its family.

``build_code`` lays the truncated width-k table out only where it is
shorter than the n singletons (first at n = 2^5 for k = 1, 2^9 for
k = 2), so at the small n these tests reach it mostly builds
singletons.  These helpers lay tables out through the eager reference
layout (``layout_reference.eager_layout``), keeping the slice path under
test:

* ``rs_table_code``: the full (n, kappa, kappa, 1) table of
  ``ssui.build_ssui``, every one of its q^2 queries;
* ``trunc_table_code``: the truncated width-k table the builder takes
  where it wins (``ssui.rs_trunc_size``, empty queries dropped).

At n = 8 and n = 16, ``rs_table_code`` has q > n: each base holds at
most one element, so no element is active and the oracles give their
verdicts without walking.  The fat bases, and the walks over them, are
``trunc_table_code``, ``rs_table_code(32, k)`` and the built (32, 1, k)
tables.

``nth_polynomial`` and ``poly_eval`` spell out the table's definition,
element i in query x*q + P_i(x): they are the reference that
``ssui.rs_table``'s digit recursion is checked against.
"""

from qgt.code import MODE_PLAIN, level_params
from qgt.ssui import build_ssui, rs_trunc_size, truncated_table

from layout_reference import eager_layout


def rs_table_code(n: int, k: int, alpha: int = 2):
    kappa, _ = level_params(k, alpha)
    family = build_ssui(n, kappa, kappa, 1).queries
    return eager_layout(family, n, k, alpha, MODE_PLAIN)


def trunc_table_code(n: int, k: int, alpha: int = 2, mode: str = MODE_PLAIN):
    q, _, points = rs_trunc_size(n, k)
    family = truncated_table(n, q, points)
    return eager_layout(family, n, k, alpha, mode)


def nth_polynomial(i: int, q: int, d: int) -> tuple[int, ...]:
    """Coefficient vector of the i-th polynomial, lexicographic by base-q digits.

    Index j of the result is the coefficient of x^j; the digits are those
    of i-1, so i=1 is the zero polynomial and i=q+1 is x.
    """
    if not 1 <= i <= q ** (d + 1):
        raise ValueError(f"polynomial index {i} outside [1..q^(d+1)]")
    value = i - 1
    coeffs = []
    for _ in range(d + 1):
        coeffs.append(value % q)
        value //= q
    return tuple(coeffs)


def poly_eval(coeffs: tuple[int, ...], x: int, q: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc
