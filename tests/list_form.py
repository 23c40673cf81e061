"""The list form (``qgtc 1``) of a code, as the parent format wrote every code.

``serialize.code_to_text`` writes a built code as its one ``family``
line, and the list form only for other codes.  Rendering a built code's
list here pins every query byte it had before (the golden hashes) and
gives tests block lines to relabel or tamper with.
"""


def list_text(code) -> str:
    lines = [
        "qgtc 1",
        f"n {code.n}",
        f"k {code.k}",
        f"alpha {code.alpha}",
        f"mode {code.mode}",
        f"blocks {len(code.blocks)}",
    ]
    lines += [f"{blk.kind} {blk.level} {blk.base + 1} {blk.slices}" for blk in code.blocks]
    lines += [" ".join(str(v) for v in sorted(s)) for s in code.queries]
    return "\n".join(lines) + "\n"
