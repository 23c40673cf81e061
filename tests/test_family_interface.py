"""A new query family is one class: what ``Code`` reads of a family, and no more.

``Reversed`` is the n singletons in reverse order, query p = {n - p}.  It
gives only ``at``, ``line``, ``m``, ``positions``, ``decode``, ``active``
and its queries (``code`` module docstring); ``incidence`` and
``encode`` come from the base class.  Feedback, decoding and the
oracles then run on it unchanged.
"""

import pytest

from qgt.bounds import verify_decoding, verify_uniqueness
from qgt.code import MODE_MULTISET, MODE_PLAIN, Code, _Family
from qgt.decode import DecodeError, DecodeStats, decode_detailed
from qgt.model import active_elements, feedback_vector


class Reversed(_Family):
    """The n singletons in reverse order: query p holds n - p alone."""

    def __init__(self, n):
        self.n = self.m = n
        self.line = f"family reversed {n}"
        self.queries = tuple(frozenset({n - p}) for p in range(n))

    @classmethod
    def at(cls, n, k, mode):
        return cls(n)

    def positions(self, v):
        return (self.n - v,)

    def decode(self, entries, n, k, cap):
        # query p reads the multiplicity of n - p; a value at a nonzero cap reads as nothing
        found = {n - p: value for p, value in entries.items() if not cap or value < cap}
        counts = {n - v: mult for v, mult in found.items()}
        return dict(sorted(found.items())), counts, DecodeStats(1, len(entries), 0, len(found))

    def active(self, n):
        return []  # every element is alone in its one query


N = 16


@pytest.mark.parametrize("mode, alpha", [(MODE_PLAIN, 2), (MODE_PLAIN, 3), (MODE_MULTISET, 0)])
def test_a_one_class_family_encodes_decodes_and_passes_the_oracles(mode, alpha):
    code = Code(Reversed.at(N, 3, mode), N, 3, alpha, mode)
    hidden = {3: 1, 9: 1, 16: 1} if alpha else {3: 2, 16: 1}
    fv = code.feedback(hidden)
    assert fv == feedback_vector(code.queries, hidden, alpha or 3)
    assert fv.entries == {N - v: mult for v, mult in hidden.items()}
    assert decode_detailed(code, fv)[0] == hidden
    assert verify_decoding(code) is None
    assert verify_uniqueness(code.queries, N, 3, max(1, alpha))
    assert code.family.active(N) == active_elements(code.queries, N)


def test_a_one_class_family_leaves_every_refusal_to_decode_detailed():
    code = Code(Reversed(N), N, 2, 2, MODE_PLAIN)
    with pytest.raises(DecodeError, match="^decoded more than k=2 elements$"):
        decode_detailed(code, code.feedback([1, 2, 3], alpha=2))
    with pytest.raises(DecodeError, match="position 13 reads 2, decoded count 0$"):
        decode_detailed(code, code.feedback({3: 2}))  # at the cap: the family reads nothing
    assert code.incidence[3] == (13,) and code.incidence.get(N + 1) is None
