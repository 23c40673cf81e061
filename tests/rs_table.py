"""Reed-Solomon tables laid out as codes, block for block as the builder lays out its family.

``build_code`` lays the truncated width-k table out only where it is
shorter than the n singletons (first at n = 2^5 for k = 1, 2^9 for
k = 2), so at the small n these tests reach it mostly builds
singletons.  These helpers lay tables out through ``code._layout``,
keeping the slice path and fat bases under test:

* ``rs_table_code``: the full (n, kappa, kappa, 1) table of
  ``ssui.build_ssui``, every one of its q^2 queries;
* ``trunc_table_code``: the truncated width-k table the builder takes
  where it wins (``ssui.rs_trunc_size``, empty queries dropped).
"""

from qgt.code import MODE_PLAIN, _layout, level_params
from qgt.ssui import build_ssui, rs_trunc_size, truncated_table


def rs_table_code(n: int, k: int, alpha: int = 2):
    kappa, _ = level_params(k, alpha)
    family = build_ssui(n, kappa, kappa, 1).queries
    return _layout(family, n, k, alpha, MODE_PLAIN)


def trunc_table_code(n: int, k: int, alpha: int = 2, mode: str = MODE_PLAIN):
    q, _, points = rs_trunc_size(n, k)
    family = truncated_table(n, q, points)
    return _layout(family, n, k, alpha, mode)
