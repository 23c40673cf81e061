"""Each family encodes a multiset itself, as the reference ``feedback_vector`` reads it.

``family.encode(counts, cap)`` returns the nonzero entries of the capped
vector (cap 0 caps nothing), and ``Code.feedback`` wraps them.  The
singletons encode in closed form and never read or fill their
incidence; the sliced table and listed codes read the hidden elements'
incidence, and a listed code skips an element that is in no query.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qgt.code import MODE_PLAIN, Code, Listed, Singletons, SlicedTable, build_code, build_code_multiset
from qgt.decode import DecodeError, decode
from qgt.model import as_multiset, feedback_vector
from qgt.serialize import code_from_text, code_to_text

from list_form import list_text

# element 7 lies in no query, element 8 only in a query it shares
UNLISTED = Code(
    Listed(tuple(map(frozenset, ((1, 2), (3,), (2, 3, 4), (5, 6, 8), (1, 5)))), ()), 8, 2, 2, MODE_PLAIN
)

CODES = {
    "singletons-64-4-3": build_code(64, 4, 3),
    "multiset-32-4": build_code_multiset(32, 4),
    "table-512-2-2": build_code(512, 2, 2),
    "listed-512-2-2": code_from_text(list_text(build_code(512, 2, 2))),
    "listed-unlisted-8": UNLISTED,
}


def test_the_families_are_the_ones_named():
    kinds = [type(code.family) for code in CODES.values()]
    assert kinds == [Singletons, Singletons, SlicedTable, Listed, Listed]
    assert 7 not in UNLISTED.family.incidence


@st.composite
def _case(draw):
    name = draw(st.sampled_from(sorted(CODES)))
    n = CODES[name].n
    elements = st.integers(1, n)
    if draw(st.booleans()):
        hidden = draw(st.sets(elements, max_size=5))
    else:
        hidden = draw(st.dictionaries(elements, st.integers(1, 6), max_size=5))
    return name, hidden, draw(st.sampled_from((None, 1, 2, 3)))


@given(_case())
@settings(max_examples=300, deadline=None)
def test_family_encode_and_code_feedback_match_the_reference(case):
    name, hidden, cap = case
    code = CODES[name]
    counts = as_multiset(hidden, code.n)
    uncapped = sum(counts.values()) or 1
    ref = feedback_vector(code.queries, counts, cap or uncapped)
    assert code.family.encode(counts, cap or 0) == {p: x for p, x in enumerate(ref) if x}
    assert code.feedback(hidden, cap) == feedback_vector(code.queries, counts, cap or code.alpha or uncapped)


def test_singletons_encode_and_decode_without_their_incidence():
    built = (build_code(1024, 4, 2), build_code_multiset(1024, 8))
    for code in (*built, *(code_from_text(code_to_text(c)) for c in built)):
        assert type(code.family) is Singletons
        for hidden, alpha in (({5: 1, 900: 1}, None), ({3: 2, 1024: 1}, 8), ({7: 9}, 4), ({1: 1}, 1)):
            fv = code.feedback(hidden, alpha)
            try:
                decode(code, fv)
            except DecodeError:
                pass  # a value at the code's cap is refused
        assert len(code.family.incidence) == 0
