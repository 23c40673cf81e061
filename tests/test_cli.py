import argparse
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from qgt import cli
from qgt.cli import _build_parser, main
from qgt.serialize import code_from_text

from list_form import list_text

SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_module(*argv, timeout=60, **kwargs):
    """``python -m qgt`` in a fresh interpreter: exit status, stdout and stderr bytes."""
    proc = subprocess.run([sys.executable, "-m", "qgt", *argv], env=SRC_ENV, capture_output=True,
                          timeout=timeout, **kwargs)
    return proc.returncode, proc.stdout, proc.stderr


def test_build_encode_decode_roundtrip(tmp_path, capsys):
    code_file = tmp_path / "code.qgtc"
    fv_file = tmp_path / "fv.txt"
    status, _, _ = run(
        capsys, "build", "--n", "16", "--k", "2", "--alpha", "2",
        "--mode", "plain", "--out", str(code_file),
    )
    assert status == 0
    status, _, _ = run(
        capsys, "encode", "--code", str(code_file), "--set", "5,11", "--out", str(fv_file),
    )
    assert status == 0
    status, out, _ = run(capsys, "decode", "--code", str(code_file), "--fv", str(fv_file))
    assert status == 0
    assert out == "5 1\n11 1\n"


def test_build_determinism(tmp_path, capsys):
    outs = []
    for _ in range(2):
        status, out, _ = run(
            capsys, "build", "--n", "32", "--k", "3", "--alpha", "3",
        )
        assert status == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_multiset_cli_roundtrip(tmp_path, capsys):
    code_file = tmp_path / "m.qgtc"
    fv_file = tmp_path / "fv.txt"
    run(capsys, "build", "--n", "16", "--k", "4", "--mode", "multiset",
        "--alpha", "4", "--out", str(code_file))
    run(capsys, "encode", "--code", str(code_file), "--set", "3:2,7", "--out", str(fv_file))
    status, out, _ = run(capsys, "decode", "--code", str(code_file), "--fv", str(fv_file))
    assert status == 0
    assert out == "3 2\n7 1\n"


def test_verify_uniqueness_pass_and_fail(tmp_path, capsys):
    code_file = tmp_path / "code.qgtc"
    run(capsys, "build", "--n", "16", "--k", "2", "--alpha", "2", "--out", str(code_file))
    status, out, _ = run(capsys, "verify", "--code", str(code_file), "--uniqueness", "--claim-a")
    assert status == 0
    assert "uniqueness: pass" in out
    assert "claim-a: pass" in out

    bad = tmp_path / "bad.qgtc"
    body = " ".join(str(v) for v in range(1, 9))
    bad.write_text(f"qgtc 1\nn 8\nk 2\nalpha 1\nmode random\nblocks 0\n{body}\n")
    status, out, _ = run(capsys, "verify", "--code", str(bad), "--uniqueness")
    assert status == 1
    assert "FAIL" in out


def test_verify_selector_levels(tmp_path, capsys):
    code_file = tmp_path / "code.qgtc"
    run(capsys, "build", "--n", "16", "--k", "2", "--alpha", "3", "--out", str(code_file))
    status, out, _ = run(capsys, "verify", "--code", str(code_file), "--ssui")
    assert status == 0
    assert out == "ssui level 2: pass\n"


def test_verify_selector_levels_of_a_table_code(tmp_path, capsys):
    code_file = tmp_path / "code.qgtc"
    run(capsys, "build", "--n", "32", "--k", "1", "--alpha", "2", "--out", str(code_file))
    status, out, _ = run(
        capsys, "verify", "--code", str(code_file), "--uniqueness", "--claim-a", "--ssui"
    )
    assert status == 0
    assert "ssui level 1: pass" in out
    assert "FAIL" not in out


# Files from earlier builders: the same families, labelled "sui" in
# multiset mode and "rr" in large mode at alpha 2, each at level 4.
@pytest.mark.parametrize(
    "build_args, level_line",
    [
        (("--mode", "multiset", "--alpha", "4"), "sui level 4: max unselected 0"),
        (("--mode", "large", "--alpha", "2"), "rr level 4: max unselected 0"),
    ],
)
def test_verify_selector_levels_multiset_and_large(tmp_path, capsys, build_args, level_line):
    code_file = tmp_path / "code.qgtc"
    run(capsys, "build", "--n", "16", "--k", "4", *build_args, "--out", str(code_file))
    status, out, _ = run(capsys, "verify", "--code", str(code_file), "--ssui")
    assert status == 0
    assert out == "ssui level 4: pass\n"

    old_kind = level_line.split()[0]
    old_file = tmp_path / "old.qgtc"
    # the built file is one family line; relabel its list form's block lines
    listed = list_text(code_from_text(code_file.read_text()))
    old_file.write_text(listed.replace("\nssui 4 ", f"\n{old_kind} 4 "))
    status, out, _ = run(capsys, "verify", "--code", str(old_file), "--sui")
    assert status == 0
    assert level_line in out
    assert "FAIL" not in out


def test_verify_without_blocks_of_the_kind_fails(tmp_path, capsys):
    code_file = tmp_path / "code.qgtc"
    run(capsys, "build", "--n", "16", "--k", "2", "--alpha", "2", "--out", str(code_file))
    status, out, _ = run(capsys, "verify", "--code", str(code_file), "--sui")
    assert status == 1
    assert out == "selector check: no sui or rr block in this code\n"

    old_file = tmp_path / "old.qgtc"
    old_file.write_text("qgtc 1\nn 4\nk 1\nalpha 3\nmode plain\nblocks 4\n"
                        "sui 1 1 0\nsui 1 2 0\nsui 1 3 0\nsui 1 4 0\n1\n2\n3\n4\n")
    status, out, _ = run(capsys, "verify", "--code", str(old_file), "--ssui")
    assert status == 1
    assert out == "selector check: no ssui block in this code\n"
    status, _, _ = run(capsys, "verify", "--code", str(old_file), "--sui")
    assert status == 0

    random_file = tmp_path / "random.qgtc"
    random_file.write_text("qgtc 1\nn 4\nk 1\nalpha 1\nmode random\nblocks 0\n1 2\n3\n")
    status, out, _ = run(capsys, "verify", "--code", str(random_file), "--ssui")
    assert status == 1
    assert out == "selector check: no ssui block in this code\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "--n", "16", "--k", "2", "--alpha", "2", "--seed", "1"),
        ("graph", "--nodes", "6", "--k", "2", "--ops", "ops.txt", "--seed", "1"),
        ("verify", "--code", "code.qgtc", "--dispersion"),
        ("verify", "--code", "code.qgtc", "--sui", "--seed", "1"),
        ("build", "--n", "16", "--k", "2", "--alpha", "2", "--mode", "auto"),
    ],
)
def test_removed_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_verify_without_flags_is_usage_error(tmp_path, capsys):
    code_file = tmp_path / "code.qgtc"
    run(capsys, "build", "--n", "16", "--k", "2", "--alpha", "2", "--out", str(code_file))
    status, _, _ = run(capsys, "verify", "--code", str(code_file))
    assert status == 2


def test_random_with_exhaustive_verify(tmp_path, capsys):
    out_file = tmp_path / "r.qgtc"
    status, _, err = run(
        capsys, "random", "--n", "32", "--k", "3", "--alpha", "8",
        "--verify", "exhaustive", "--out", str(out_file),
    )
    assert status == 0
    assert "claim1" in err and "pass" in err
    parsed = code_from_text(out_file.read_text())
    assert parsed.mode == "random"
    assert len(parsed.queries) == 32


def test_bench_emits_csv_rows(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("# n k alpha [mode]\n16 2 2 plain\n16 2 3 plain\n32 2 2 plain\n")
    status, out, _ = run(capsys, "bench", "--grid", str(grid))
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,k,alpha,mode,m,")
    assert len(lines) == 4
    assert all(line.count(",") == 9 for line in lines)


@pytest.mark.parametrize(
    "line, reason",
    [
        ("1024 x 2", "invalid literal for int() with base 10: 'x'"),
        ("16 2 2 weird", "unknown build mode 'weird'"),
        ("12 2 2", "universe size must be a power of two >= 2, got 12"),
    ],
    ids=["non-integer", "unknown-mode", "n-12"],
)
def test_bench_names_the_grid_line_that_failed(tmp_path, capsys, line, reason):
    grid = tmp_path / "grid.txt"
    grid.write_text(f"16 2 2 plain\n# comment\n{line}\n")
    status, out, err = run(capsys, "bench", "--grid", str(grid))
    assert status == 2
    assert len(out.splitlines()) == 2  # the header and the row of line 1
    assert err == f"error: --grid: line 3: {reason}\n"


def test_bench_keeps_the_exit_status_of_a_failed_decode(tmp_path, capsys, monkeypatch):
    import qgt.cli
    from qgt.decode import DecodeError

    def fail(code, fv):
        raise DecodeError("decoded more than k=2 elements")

    monkeypatch.setattr(qgt.cli, "decode_detailed", fail)
    grid = tmp_path / "grid.txt"
    grid.write_text("16 2 2\n")
    status, out, err = run(capsys, "bench", "--grid", str(grid))
    assert status == 1
    assert err == "error: decoded more than k=2 elements\n"


def test_stream_replay_and_reconstruct(tmp_path, capsys):
    code_file = tmp_path / "m.qgtc"
    ops_file = tmp_path / "ops.txt"
    run(capsys, "build", "--n", "64", "--k", "4", "--mode", "multiset",
        "--alpha", "4", "--out", str(code_file))
    ops_file.write_text("I 9\nI 9\nI 40\nD 9\n")
    status, out, _ = run(
        capsys, "stream", "--code", str(code_file), "--ops", str(ops_file), "--reconstruct",
    )
    assert status == 0
    assert out == "9 1\n40 1\n"


def test_stream_rejects_delete_of_absent_element(tmp_path, capsys):
    code_file = tmp_path / "m.qgtc"
    ops_file = tmp_path / "ops.txt"
    run(capsys, "build", "--n", "32", "--k", "1", "--mode", "multiset",
        "--alpha", "2", "--out", str(code_file))
    ops_file.write_text("I 1\nI 31\nD 3\n")
    status, out, err = run(
        capsys, "stream", "--code", str(code_file), "--ops", str(ops_file), "--reconstruct",
    )
    assert status == 2 and out == ""
    assert "delete of absent element 3" in err


def test_graph_replay(tmp_path, capsys):
    ops_file = tmp_path / "gops.txt"
    ops_file.write_text("I 1 2\nI 2 3\nD 1 2\nI 5 6\n")
    status, out, _ = run(
        capsys, "graph", "--nodes", "6", "--k", "2", "--ops", str(ops_file), "--reconstruct",
    )
    assert status == 0
    assert out == "2 3\n5 6\n"


def test_graph_rejects_delete_of_absent_edge(tmp_path, capsys):
    ops_file = tmp_path / "gops.txt"
    ops_file.write_text("I 1 2\nD 4 3\n")
    status, out, err = run(
        capsys, "graph", "--nodes", "8", "--k", "2", "--ops", str(ops_file), "--reconstruct",
    )
    assert status == 2 and out == ""
    assert err == "error: delete of absent edge (3, 4)\n"


def test_graph_refuses_a_negative_degree_bound(tmp_path, capsys):
    ops_file = tmp_path / "gops.txt"
    ops_file.write_text("I 1 2\n")
    status, out, err = run(
        capsys, "graph", "--nodes", "6", "--k", "-3", "--ops", str(ops_file), "--reconstruct",
    )
    assert status == 2 and out == ""
    assert err == "error: graph sketch degree bound k must be >= 0, got -3\n"


def test_format_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.qgtc"
    bad.write_text("not a code file\n")
    status, _, err = run(capsys, "decode", "--code", str(bad), "--fv", str(bad))
    assert status == 2
    assert "error" in err


def test_decode_error_exit_code(tmp_path, capsys):
    code_file = tmp_path / "code.qgtc"
    fv_file = tmp_path / "fv.txt"
    run(capsys, "build", "--n", "16", "--k", "2", "--alpha", "2", "--out", str(code_file))
    n_queries = len(code_from_text(Path(code_file).read_text()).queries)
    fv_file.write_text(" ".join("9" for _ in range(n_queries)) + "\n")
    status, _, err = run(capsys, "decode", "--code", str(code_file), "--fv", str(fv_file))
    assert status == 1
    assert "error" in err


@pytest.mark.parametrize(
    "vector, named",
    [("0 -2 1\n", "position 1 must be positive"), ("0 x 1\n", "position 1: invalid literal")],
    ids=["negative", "non-integer"],
)
def test_malformed_feedback_file_is_a_usage_error(tmp_path, capsys, vector, named):
    code_file = tmp_path / "code.qgtc"
    fv_file = tmp_path / "bad.fv"
    run(capsys, "build", "--n", "4", "--k", "1", "--alpha", "2", "--out", str(code_file))
    fv_file.write_text(vector)
    status, out, err = run(capsys, "decode", "--code", str(code_file), "--fv", str(fv_file))
    assert status == 2 and out == ""
    assert err.startswith("error: --fv: malformed feedback vector: ") and named in err


def test_missing_file_is_usage_error(capsys):
    status, _, _ = run(capsys, "decode", "--code", "/nonexistent", "--fv", "/nonexistent")
    assert status == 2


def test_budget_refusal_exits_nonzero(tmp_path, capsys):
    code_file = tmp_path / "code.qgtc"
    run(capsys, "build", "--n", "32", "--k", "3", "--alpha", "2", "--out", str(code_file))
    status, _, err = run(
        capsys, "verify", "--code", str(code_file), "--uniqueness", "--budget", "10",
    )
    assert status == 1
    assert "too large" in err


@pytest.mark.parametrize("flag", ["--ssui", "--uniqueness", "--claim-a"])
def test_verify_refuses_a_large_family_file_before_laying_it_out(
    tmp_path, capsys, monkeypatch, flag
):
    import qgt.code

    def refuse(*args):
        raise AssertionError("the queries were laid out")

    monkeypatch.setattr(qgt.code.SlicedTable, "_make", refuse)
    monkeypatch.setattr(qgt.code.SlicedTable, "__getitem__", refuse)  # what reads the bases
    code_file = tmp_path / "code.qgtc"
    code_file.write_text("qgtc 2\nn 262144\nk 4\nalpha 3\nmode plain\nfamily rs 13 4 13\n")
    status, out, err = run(capsys, "verify", "--code", str(code_file), flag)
    assert status == 1
    assert "too large" in out + err


def test_verify_the_2_18_singletons_lays_out_no_query(tmp_path, capsys, monkeypatch):
    import qgt.code

    code_file = tmp_path / "code.qgtc"
    run(capsys, "build", "--n", "262144", "--k", "2", "--alpha", "2", "--mode", "multiset",
        "--out", str(code_file))
    assert code_file.read_text() == "qgtc 2\nn 262144\nk 2\nalpha 0\nmode multiset\nfamily singletons\n"

    def refuse(*args):
        raise AssertionError("the queries or blocks were laid out")

    monkeypatch.setattr(qgt.code.Singletons, "_make", refuse)
    monkeypatch.setattr(qgt.code.Singletons, "blocks", refuse)
    verify = ("verify", "--code", str(code_file), "--uniqueness", "--claim-a", "--ssui",
              "--budget", "100000000000")
    expected = "uniqueness: pass\nclaim-a: pass (no jammed element)\nssui level 2: pass\n"
    status, out, _ = run(capsys, *verify)
    assert status == 0
    assert out == expected

    # and in a fresh interpreter held to 1 GB of address space
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1_000_000 * 1024,) * 2)

    status, out, err = run_module(*verify, timeout=20, preexec_fn=cap_memory)
    assert (status, out) == (0, expected.encode()), err


def test_random_unknown_verify_mode(tmp_path, capsys):
    status, _, err = run(
        capsys, "random", "--n", "32", "--k", "2", "--alpha", "4",
        "--verify", "guess", "--out", str(tmp_path / "r.qgtc"),
    )
    assert status == 2
    assert "unknown verify mode" in err


@pytest.mark.parametrize("spec", ["guess", "sampled:x", "sampled:0", "sampled:-3"])
def test_random_refuses_a_bad_verify_spec_before_writing_the_code(capsys, spec):
    status, out, err = run(capsys, "random", "--n", "32", "--k", "2", "--alpha", "4", "--verify", spec)
    assert status == 2 and out == ""
    assert err == (
        f"error: unknown verify mode {spec!r}; expected 'exhaustive' or 'sampled:<trials>', trials >= 1\n"
    )


def test_random_sampled_verify(tmp_path, capsys):
    status, _, err = run(
        capsys, "random", "--n", "32", "--k", "2", "--alpha", "4",
        "--verify", "sampled:20", "--out", str(tmp_path / "r.qgtc"),
    )
    assert status == 0
    assert "claim1" in err


def test_stream_rejects_graph_style_ops(tmp_path, capsys):
    code_file = tmp_path / "m.qgtc"
    ops_file = tmp_path / "ops.txt"
    run(capsys, "build", "--n", "16", "--k", "2", "--mode", "multiset",
        "--alpha", "2", "--out", str(code_file))
    ops_file.write_text("I 1 2\n")
    status, _, err = run(capsys, "stream", "--code", str(code_file), "--ops", str(ops_file))
    assert status == 2
    assert err == "error: --ops: line 1: stream operations take one element, got 'I 1 2'\n"


@pytest.mark.parametrize("line", ["16 2", "16 2 2 plain extra"], ids=["2-fields", "5-fields"])
def test_bench_refuses_a_grid_line_of_the_wrong_width(tmp_path, capsys, line):
    grid = tmp_path / "grid.txt"
    grid.write_text(f"16 2 2\n{line}\n")
    status, out, err = run(capsys, "bench", "--grid", str(grid))
    assert status == 2
    assert len(out.splitlines()) == 2
    assert err == "error: --grid: line 2: expected 'n k alpha [mode]'\n"


@pytest.mark.parametrize("token", ["1_6", "+16", "١٦"])
@pytest.mark.parametrize("field", range(3))
def test_bench_refuses_a_grid_integer_that_is_not_ascii_digits(tmp_path, capsys, token, field):
    parts = ["16", "2", "2"]
    parts[field] = token
    grid = tmp_path / "grid.txt"
    grid.write_text(" ".join(parts) + "\n")
    status, out, err = run(capsys, "bench", "--grid", str(grid))
    assert status == 2
    assert out.splitlines() == ["n,k,alpha,mode,m,occurrence_max,lb_total,ratio,build_ms,decode_ops"]
    assert err == f"error: --grid: line 1: invalid literal for int() with base 10: {token!r}\n"


@pytest.mark.parametrize("spec", ["sampled:1_0", "sampled:+10", "sampled:١٠"])
def test_random_refuses_sampled_trials_that_are_not_ascii_digits(tmp_path, capsys, spec):
    out_file = tmp_path / "r.qgtc"
    status, out, err = run(
        capsys, "random", "--n", "32", "--k", "2", "--alpha", "4", "--verify", spec, "--out", str(out_file),
    )
    assert status == 2 and out == "" and not out_file.exists()
    assert err == (
        f"error: unknown verify mode {spec!r}; expected 'exhaustive' or 'sampled:<trials>', trials >= 1\n"
    )


def test_graph_refuses_an_operation_with_one_endpoint(tmp_path, capsys):
    ops_file = tmp_path / "gops.txt"
    ops_file.write_text("I 1 2\nI 3\n")
    status, out, err = run(
        capsys, "graph", "--nodes", "6", "--k", "2", "--ops", str(ops_file), "--reconstruct",
    )
    assert status == 2 and out == ""
    assert err == "error: --ops: line 2: graph operations take two endpoints, got 'I 3'\n"


# Each command's integer options with valid values, the other arguments it needs, and whether
# it takes --out.  No file is read before the arguments are parsed, so the paths need not exist.
COMMANDS = {
    "build": ({"--n": "16", "--k": "1", "--alpha": "2"}, [], True),
    "encode": ({"--alpha": "2"}, ["--code", "c.qgtc", "--set", "1"], True),
    "verify": ({"--budget": "10"}, ["--code", "c.qgtc", "--uniqueness"], False),
    "random": ({"--n": "32", "--k": "2", "--alpha": "4", "--seed": "0", "--budget": "10"}, [], True),
    "bench": ({"--seed": "0"}, ["--grid", "grid.txt"], False),
    "stream": ({"--alpha": "2"}, ["--code", "c.qgtc", "--ops", "ops.txt"], True),
    "graph": ({"--nodes": "6", "--k": "2"}, ["--ops", "ops.txt"], True),
}
INT_CASES = [(command, option) for command, (ints, _, _) in COMMANDS.items() for option in ints]


def test_every_integer_option_reads_by_the_file_rule():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    typed = {(name, a.option_strings[0]): a.type for name, p in sub.choices.items() for a in p._actions if a.type}
    assert set(typed) == set(INT_CASES)
    assert set(typed.values()) == {cli._int}


@pytest.mark.parametrize("token", ["1_6", "+16", "١٦"])
@pytest.mark.parametrize("command,option", INT_CASES)
def test_an_integer_option_that_is_not_ascii_digits_is_a_usage_error(tmp_path, capsys, command, option, token):
    ints, other, writes = COMMANDS[command]
    out_file = tmp_path / "out"
    argv = [command, *other, *(["--out", str(out_file)] if writes else [])]
    for name, value in ints.items():
        argv += [name, token if name == option else value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == "" and not out_file.exists()
    assert captured.err.endswith(f": error: argument {option}: invalid int value: {token!r}\n")


def test_build_with_loose_integers_exits_2_and_writes_nothing():
    status, out, err = run_module("build", "--n", "1_6", "--k", "+1", "--alpha", "2")
    assert status == 2 and out == b""
    assert err.endswith(b"qgt build: error: argument --n: invalid int value: '1_6'\n")


def test_a_code_file_with_crlf_line_ends_is_refused_naming_line_1(tmp_path, capsys):
    code_file = tmp_path / "code.qgtc"
    assert run(capsys, "build", "--n", "16", "--k", "1", "--alpha", "2", "--out", str(code_file))[0] == 0
    code_file.write_bytes(code_file.read_bytes().replace(b"\n", b"\r\n"))
    status, out, err = run(capsys, "verify", "--code", str(code_file), "--uniqueness")
    assert status == 2 and out == ""
    assert err == "error: --code: line 1: line break '\\r'; lines end with '\\n' alone\n"


# Each file the CLI reads, as (command and options, its file option, a valid text), read by one line
# rule (``serialize.read_lines``): every line ends with "\n" alone.
READERS = {
    "decode --fv": (["decode", "--code", "{code}"], "--fv", "0 0 0 0 1 0 0 0\n0 0 1 0 0 0 0 0\n"),
    "stream --ops": (["stream", "--code", "{multiset}", "--reconstruct"], "--ops", "I 1\nI 2\nI 3\n"),
    "graph --ops": (["graph", "--nodes", "4", "--k", "2", "--reconstruct"], "--ops", "I 1 2\nI 2 3\nI 1 3\n"),
    "bench --grid": (["bench"], "--grid", "16 2 2\n32 1 2\n16 1 2\n"),
}


def _reader_argv(tmp_path, capsys, reader, text):
    argv, option, _ = READERS[reader]
    paths = {"code": tmp_path / "code.qgtc", "multiset": tmp_path / "multiset.qgtc"}
    run(capsys, "build", "--n", "16", "--k", "2", "--alpha", "2", "--out", str(paths["code"]))
    run(capsys, "build", "--n", "16", "--k", "3", "--alpha", "3", "--mode", "multiset", "--out", str(paths["multiset"]))
    data = tmp_path / "input.txt"
    data.write_bytes(text.encode())
    return [arg.format(**{name: str(path) for name, path in paths.items()}) for arg in argv] + [option, str(data)]


@pytest.mark.parametrize("reader", READERS)
def test_every_file_reader_refuses_a_stray_line_break_naming_its_line(tmp_path, capsys, reader):
    text = READERS[reader][2]
    assert run(capsys, *_reader_argv(tmp_path, capsys, reader, text))[0] == 0
    # read with splitlines() or split(), "\x1c" ended line 2 (or split a value) and the file was read
    broken = text.replace("\n", "\x1c", 2).replace("\x1c", "\n", 1)
    status, out, err = run(capsys, *_reader_argv(tmp_path, capsys, reader, broken))
    assert status == 2 and out == ""
    assert err == f"error: {READERS[reader][1]}: line 2: line break '\\x1c'; lines end with '\\n' alone\n"


@pytest.mark.parametrize("reader", READERS)
def test_a_crlf_input_file_is_refused_naming_line_1(tmp_path, capsys, reader):
    crlf = READERS[reader][2].replace("\n", "\r\n")
    status, out, err = run(capsys, *_reader_argv(tmp_path, capsys, reader, crlf))
    assert status == 2 and out == ""
    assert err == f"error: {READERS[reader][1]}: line 1: line break '\\r'; lines end with '\\n' alone\n"
