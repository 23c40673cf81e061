"""The eager layout: every query and block made up front, as the builder once laid codes out.

``code.Singletons`` and ``code.SlicedTable`` keep a built code as its rule and lays it out only on
demand.  This reference lays any family of queries out block by block,
so tests can lay out tables the build rule does not take (empty and
one-element bases included) and check the lazy layout against it.
"""

from qgt.code import KIND_SSUI, Block, Code, Listed, enhance
from qgt.balanced import id_bits


def eager_layout(family, n: int, k: int, alpha: int, mode: str) -> Code:
    """One "ssui" block at level k per query; bases of two or more elements carry slices."""
    width = id_bits(n)
    queries = []
    blocks = []
    for s in family:
        if len(s) > 1:
            blocks.append(Block(KIND_SSUI, k, len(queries), width))
            queries.extend(enhance(s, n))
        else:
            blocks.append(Block(KIND_SSUI, k, len(queries), 0))
            queries.append(s)
    return Code(Listed(tuple(queries), tuple(blocks)), n, k, alpha, mode)
