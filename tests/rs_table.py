"""The Reed-Solomon strong selector laid out as a plain alpha = 2 code.

``build_code`` lays the (n, kappa, kappa, 1) table out only where it is
shorter than the n singletons (first at n = 2^15), so at the small n
these tests reach it would build singletons.  This helper lays the table
out through ``code._layout``, block for block as ``build_code`` does
where the table wins, keeping the slice path and fat bases under test.
"""

from qgt.code import KIND_SSUI, MODE_PLAIN, _layout, level_params
from qgt.ssui import build_ssui


def rs_table_code(n: int, k: int, alpha: int = 2):
    kappa, _ = level_params(k, alpha)
    family = build_ssui(n, kappa, kappa, 1).queries
    return _layout(family, KIND_SSUI, kappa, n, k, alpha, MODE_PLAIN)
