"""Command-line front end.

Subcommands: build, encode, decode, verify, random, bench, stream,
graph.  Exit status 0 on success, 1 when a verification or decode
fails, 2 on usage or format errors.  All randomness is seeded, so
identical commands produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

from . import bounds as bounds_mod
from . import random_code as random_mod
from .code import KIND_RR, KIND_SSUI, KIND_SUI, MODE_RANDOM, Code, build
from .code import MODE_PLAIN, level_params
from .decode import DecodeError, decode_detailed
from .model import BudgetError, multiset_total
from .serialize import (
    FormatError,
    code_from_text,
    code_to_text,
    fv_from_text,
    fv_to_text,
    multiset_to_text,
    parse_set_spec,
)
from .ssui import verify_ssui
from .streaming import GraphSketch, StreamSketch, parse_ops
from .sui import verify_sui

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_code(path: str):
    return code_from_text(Path(path).read_text())


def _cmd_build(args: argparse.Namespace) -> int:
    code = build(args.n, args.k, args.alpha, mode=args.mode)
    _write_out(code_to_text(code), args.out)
    return EXIT_OK


def _cmd_encode(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    hidden = parse_set_spec(args.set)
    fv = code.feedback(hidden, args.alpha)
    _write_out(fv_to_text(fv), args.out)
    return EXIT_OK


def _cmd_decode(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    fv = fv_from_text(Path(args.fv).read_text())
    result, _ = decode_detailed(code, fv)
    _write_out(multiset_to_text(result), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    failures = 0
    ran_any = False
    if args.uniqueness:
        ran_any = True
        ok = bounds_mod.verify_uniqueness(
            code.queries, code.n, code.k, max(1, code.alpha), budget=args.budget
        )
        print(f"uniqueness: {'pass' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    if args.claim_a:
        ran_any = True
        witness = bounds_mod.find_unjammed_violation(
            code.queries, code.n, code.k, max(1, code.alpha), budget=args.budget
        )
        if witness is None:
            print("claim-a: pass (no jammed element)")
        else:
            k_set, x = witness
            print(f"claim-a: FAIL  element {x} jammed within K={sorted(k_set)}")
            failures += 1
    for flag, kinds in ((args.sui, (KIND_SUI, KIND_RR)), (args.ssui, (KIND_SSUI,))):
        if flag:
            ran_any = True
            failures += _verify_levels(code, args.budget, kinds)
    if not ran_any:
        print("nothing to verify (pass --uniqueness/--claim-a/--sui/--ssui)")
        return EXIT_USAGE
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _verify_levels(code, budget: int, kinds) -> int:
    """One line per block group of a kind in `kinds` ("sui" and "rr" only in older files)."""
    groups = [group for group in code.block_groups if group[0].kind in kinds]
    if not groups:
        print(f"selector check: no {' or '.join(kinds)} block in this code")
        return 1
    k_pow, cap = level_params(code.k, code.alpha)
    failures = 0
    for group in groups:
        kind, level = group[0].kind, group[0].level
        queries = tuple(code.queries[blk.base] for blk in group)
        try:
            if kind == KIND_SSUI:
                ok = verify_ssui(queries, code.n, level, 0, 1, budget=budget)
                print(f"{kind} level {level}: {'pass' if ok else 'FAIL'}")
            else:
                report = verify_sui(queries, code.n, level, 0.5, k_pow, cap, budget=budget)
                ok = report.passed
                print(
                    f"{kind} level {level}: max unselected {report.max_unselected} "
                    f"(threshold {report.threshold:g}) -> {'pass' if ok else 'FAIL'}"
                )
        except BudgetError as exc:
            print(f"{kind} level {level}: {exc}")
            failures += 1
            continue
        failures += 0 if ok else 1
    return failures


def _cmd_random(args: argparse.Namespace) -> int:
    code = random_mod.build_random_code(args.n, args.k, args.alpha, args.seed)
    wrapped = Code(code.queries, (), args.n, args.k, args.alpha, MODE_RANDOM)
    _write_out(code_to_text(wrapped), args.out)
    status = EXIT_OK
    if args.verify is not None:
        if args.verify == "exhaustive":
            report = random_mod.verify_claims(code, mode="exhaustive", budget=args.budget)
        elif args.verify.startswith("sampled:"):
            trials = int(args.verify.split(":", 1)[1])
            report = random_mod.verify_claims(code, mode="sampled", trials=trials, seed=args.seed)
        else:
            raise FormatError(f"unknown verify mode {args.verify!r}")
        for line in report.lines():
            print(line, file=sys.stderr)
        status = EXIT_OK if report.passed else EXIT_VERIFY
    return status


def _cmd_bench(args: argparse.Namespace) -> int:
    grid_lines = Path(args.grid).read_text().splitlines()
    print("n,k,alpha,mode,m,occurrence_max,lb_total,ratio,build_ms,decode_ops")
    for lineno, raw in enumerate(grid_lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise FormatError(f"grid line {lineno}: expected 'n k alpha [mode]'")
        n, k, alpha = int(parts[0]), int(parts[1]), int(parts[2])
        mode = parts[3] if len(parts) == 4 else MODE_PLAIN
        print(bench_row(n, k, alpha, mode, seed=args.seed))
    return EXIT_OK


def bench_row(n: int, k: int, alpha: int, mode: str = MODE_PLAIN, seed: int = 0) -> str:
    start = time.monotonic()
    code = build(n, k, alpha, mode=mode)
    build_ms = (time.monotonic() - start) * 1000
    report = bounds_mod.lower_bound(n, k, alpha, measured_m=len(code.queries))
    rng = random.Random(seed)
    probe = rng.sample(range(1, n + 1), min(k, n))
    fv = code.feedback(probe)
    _, stats = decode_detailed(code, fv)
    ratio = report.ratio if report.ratio is not None else 0.0
    return (
        f"{n},{k},{alpha},{mode},{len(code.queries)},{code.occurrence_max},"
        f"{report.lb_total:.3f},{ratio:.3f},{build_ms:.1f},{stats.operations}"
    )


def _cmd_stream(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    sketch = StreamSketch(code, alpha=args.alpha)
    ops = parse_ops(Path(args.ops).read_text().splitlines())
    for op, params in ops:
        if len(params) != 1:
            raise FormatError(f"stream operations take one element, got {params}")
        sketch.apply(op, params[0])
    if args.reconstruct:
        result = sketch.reconstruct()
        _write_out(multiset_to_text(result), args.out)
        print(f"total multiplicity {multiset_total(result)}", file=sys.stderr)
    return EXIT_OK


def _cmd_graph(args: argparse.Namespace) -> int:
    sketch = GraphSketch(args.nodes, args.k)
    ops = parse_ops(Path(args.ops).read_text().splitlines())
    for op, params in ops:
        if len(params) != 2:
            raise FormatError(f"graph operations take two endpoints, got {params}")
        sketch.apply(op, params[0], params[1])
    if args.reconstruct:
        edges = sketch.reconstruct()
        _write_out("".join(f"{u} {v}\n" for u, v in edges), args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgt",
        description="Group testing with capped count feedback: build, encode, decode, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a code and write its serialized form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--alpha", type=int, required=True,
        help="feedback cap (>= 2; multiset codes ignore it: their cap is chosen at encode time)",
    )
    p.add_argument("--mode", choices=("plain", "large", "multiset"), default=MODE_PLAIN)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("encode", help="feedback vector of a hidden (multi)set")
    p.add_argument("--code", required=True)
    p.add_argument("--set", required=True, help="elements as 'v[:mult],v[:mult],...'")
    p.add_argument("--alpha", type=int, default=None, help="cap override (multiset codes)")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="reconstruct the hidden (multi)set from feedback")
    p.add_argument("--code", required=True)
    p.add_argument("--fv", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("verify", help="run exhaustive verification oracles against a code")
    p.add_argument("--code", required=True)
    p.add_argument("--uniqueness", action="store_true")
    p.add_argument("--claim-a", dest="claim_a", action="store_true")
    p.add_argument("--sui", action="store_true")
    p.add_argument("--ssui", action="store_true")
    p.add_argument("--budget", type=int, default=10_000_000)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("random", help="seeded random query system plus claim report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", default=None, help="'exhaustive' or 'sampled:<trials>'")
    p.add_argument("--budget", type=int, default=10_000_000)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("bench", help="CSV of lengths, bounds and timings over a grid file")
    p.add_argument("--grid", required=True, help="lines of 'n k alpha [mode]'")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("stream", help="replay an insert/delete op log against a sketch")
    p.add_argument("--code", required=True, help="a multiset-mode code file")
    p.add_argument("--ops", required=True)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--reconstruct", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("graph", help="replay an edge op log and reconstruct the graph")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="maximum node degree")
    p.add_argument("--ops", required=True)
    p.add_argument("--reconstruct", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DecodeError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
