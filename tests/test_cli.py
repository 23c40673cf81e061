from pathlib import Path

import pytest

from qgt.cli import main
from qgt.serialize import code_from_text


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


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
    old_file.write_text(code_file.read_text().replace("\nssui 4 ", f"\n{old_kind} 4 "))
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


def test_random_unknown_verify_mode(tmp_path, capsys):
    status, _, err = run(
        capsys, "random", "--n", "32", "--k", "2", "--alpha", "4",
        "--verify", "guess", "--out", str(tmp_path / "r.qgtc"),
    )
    assert status == 2
    assert "unknown verify mode" in err


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
    assert "one element" in err
