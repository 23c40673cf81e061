"""Non-adaptive quantitative group testing under capped count feedback.

Construct fixed query sequences over a universe [1..n] that let a
polynomial-time decoder recover any hidden set (or multiset) of bounded
size from per-query intersection counts capped at alpha, plus
exhaustive small-instance oracles for every combinatorial property the
constructions rely on, a lower-bound evaluator, a seeded existential
construction, and streaming/graph applications.
"""

from .balanced import INVALID, decode_balanced, encode_balanced, slice_query
from .bounds import (
    BoundReport,
    counting_bound_holds,
    find_unjammed_violation,
    lower_bound,
    verify_decoding,
    verify_uniqueness,
)
from .code import (
    Block,
    Code,
    Listed,
    build,
    build_code,
    build_code_large,
    build_code_multiset,
    enhance,
)
from .decode import DecodeError, DecodeStats, decode, decode_detailed
from .disperser import BipartiteGraph, DisperserParams, build_disperser, verify_dispersion
from .model import (
    BudgetError,
    Feedback,
    FeedbackVector,
    Multiset,
    Query,
    as_multiset,
    capped_feedback,
    distinguishes,
    feedback_vector,
    multiset_total,
    sets_up_to,
)
from .random_code import (
    ClaimReport,
    RandomCode,
    RandomCodeParams,
    build_random_code,
    find_verified_code,
    verify_claims,
)
from .serialize import code_from_text, code_to_text, fv_from_text, fv_to_text
from .ssui import (
    SSuIFamily,
    build_ssui,
    smallest_admissible_prime,
    strong_selector,
    verify_ssui,
)
from .streaming import GraphSketch, StreamSketch, edge_endpoints, edge_index
from .sui import SuIFamily, SuIReport, build_sui, build_sui_rr, verify_sui

__all__ = [
    "INVALID",
    "BipartiteGraph",
    "Block",
    "BoundReport",
    "BudgetError",
    "ClaimReport",
    "Code",
    "DecodeError",
    "DecodeStats",
    "DisperserParams",
    "Feedback",
    "FeedbackVector",
    "GraphSketch",
    "Listed",
    "Multiset",
    "Query",
    "RandomCode",
    "RandomCodeParams",
    "SSuIFamily",
    "StreamSketch",
    "SuIFamily",
    "SuIReport",
    "as_multiset",
    "build",
    "build_code",
    "build_code_large",
    "build_code_multiset",
    "build_disperser",
    "build_random_code",
    "build_ssui",
    "build_sui",
    "build_sui_rr",
    "capped_feedback",
    "code_from_text",
    "code_to_text",
    "counting_bound_holds",
    "decode",
    "decode_balanced",
    "decode_detailed",
    "distinguishes",
    "edge_endpoints",
    "edge_index",
    "encode_balanced",
    "enhance",
    "feedback_vector",
    "find_unjammed_violation",
    "find_verified_code",
    "fv_from_text",
    "fv_to_text",
    "lower_bound",
    "multiset_total",
    "sets_up_to",
    "slice_query",
    "smallest_admissible_prime",
    "strong_selector",
    "verify_claims",
    "verify_decoding",
    "verify_dispersion",
    "verify_ssui",
    "verify_sui",
    "verify_uniqueness",
]

__version__ = "0.1.0"
