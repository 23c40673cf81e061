"""Full-size runs of qgt, end to end.

Most tests build their files with ``qgt build``, then encode, decode,
verify or replay them as a user would, and compare exit codes and
output bytes; two run the library at sizes no other test reaches (a
disperser at 2^16, encode and decode at 2^20).  The CLI runs in
process through ``qgt.cli.main``; only the checks that need a fresh
interpreter start one: the golden codes under fixed hash seeds, and
``python -m qgt`` itself.  The 2^18 singletons' memory cap sits with
``test_cli.py``'s test of that file.  A run at full size keeps a
wall-time budget: ``deadline`` stops it with TimeoutError once the
budget is spent.
"""

import random
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import qgt
from qgt.disperser import DisperserParams, build_disperser, verify_dispersion
from qgt.serialize import code_from_text

from list_form import list_text
from test_cli import SRC_ENV, run, run_module

ROOT = Path(__file__).resolve().parents[1]


def build(capsys, path, n, k, alpha, *mode):
    status, _, _ = run(capsys, "build", "--n", str(n), "--k", str(k), "--alpha", str(alpha), *mode,
                       "--out", str(path))
    assert status == 0
    return path


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body once ``seconds`` of wall time have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def timed_run(capsys, seconds, *argv):
    """``run``, stopped with TimeoutError after ``seconds``."""
    with deadline(seconds):
        return run(capsys, *argv)


def listed(path):
    """Write the list form of a built file beside it, as ``l<name>``."""
    out = path.with_name("l" + path.name)
    out.write_text(list_text(code_from_text(path.read_text())))
    assert out.read_text().splitlines()[0] == "qgtc 1"
    return out


def stream_log(seed, n, count, k=16):
    """A seeded insert/delete log over [1..n] holding at most k elements, and what it holds.

    A delete always takes a held element: one is forced once k are held,
    and drawn with probability 0.45 otherwise.
    """
    rng, held, ops = random.Random(seed), {}, []
    for _ in range(count):
        if held and (sum(held.values()) >= k or rng.random() < 0.45):
            v = rng.choice(sorted(held))
            ops.append(f"D {v}")
            held[v] -= 1
            if not held[v]:
                del held[v]
        else:
            v = rng.choice(sorted(held)) if held and rng.random() < 0.2 else rng.randint(1, n)
            ops.append(f"I {v}")
            held[v] = held.get(v, 0) + 1
    return "".join(op + "\n" for op in ops), held


def graph_log(nodes, delete_share=0.0, k=3, count=3000):
    """3,000 seeded edge ops on ``nodes`` nodes of degree at most k, and the edge list they leave.

    A drawn pair is deleted if present, else inserted if both ends have
    room.  With ``delete_share`` > 0 that share of the ops instead
    deletes a live edge, drawn from all of them.
    """
    rng, degree, edges, ops = random.Random(nodes), {}, set(), []
    while len(ops) < count:
        if delete_share and edges and rng.random() < delete_share:
            u, v = rng.choice(sorted(edges))
        else:
            u, v = sorted(rng.sample(range(1, nodes + 1), 2))
        if (u, v) in edges:
            edges.remove((u, v))
            degree[u] -= 1
            degree[v] -= 1
            ops.append(f"D {u} {v}")
        elif degree.get(u, 0) < k and degree.get(v, 0) < k:
            edges.add((u, v))
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
            ops.append(f"I {u} {v}")
    return "".join(op + "\n" for op in ops), "".join(f"{u} {v}\n" for u, v in sorted(edges))


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_golden_codes_hold_under_a_fixed_hash_seed(hash_seed):
    # the outputs must not depend on set iteration order
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_golden_codes.py"],
        cwd=ROOT, env={**SRC_ENV, "PYTHONHASHSEED": hash_seed}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "n, k, alpha, element, verify",
    [
        (32768, 1, 2, 20000, ("--uniqueness", "--claim-a", "--ssui")),
        (262144, 4, 3, 200000, ()),  # the 2^18 table is never laid out
    ],
    ids=["2^15", "2^18"],
)
def test_a_table_code_is_one_line_and_reads_back_an_element(tmp_path, capsys, n, k, alpha, element, verify):
    fv, got = tmp_path / "t.fv", tmp_path / "t.set"
    with deadline(120):
        code = build(capsys, tmp_path / "t.qgtc", n, k, alpha)
        assert code.read_text().count("\n") == 6
        if verify:
            assert run(capsys, "verify", "--code", str(code), *verify)[0] == 0
        assert run(capsys, "encode", "--code", str(code), "--set", str(element), "--out", str(fv))[0] == 0
        assert run(capsys, "decode", "--code", str(code), "--fv", str(fv), "--out", str(got))[0] == 0
    assert got.read_text() == f"{element} 1\n"


@pytest.mark.parametrize(
    "n, k, alpha, argv, out, seconds",
    [
        (512, 2, 2, ("--uniqueness", "--claim-a"), "uniqueness: pass\nclaim-a: pass (no jammed element)\n", 20),
        # the singletons' inert elements are skipped
        (1024, 3, 2, ("--uniqueness", "--claim-a", "--ssui", "--budget", "200000000"), None, 30),
    ],
    ids=["512-table", "1024-singletons"],
)
def test_oracles_pass_a_built_code_in_time(tmp_path, capsys, n, k, alpha, argv, out, seconds):
    code = build(capsys, tmp_path / "c.qgtc", n, k, alpha)
    status, got, _ = timed_run(capsys, seconds, "verify", "--code", str(code), *argv)
    assert status == 0
    assert out is None or got == out


# no built file within budget has k > alpha + 1 and an active element, so two
# hand-written random-mode files: k 4 > alpha + 1 takes the walk, k 2 the closed form
@pytest.mark.parametrize(
    "text, expected",
    [
        ("qgtc 1\nn 8\nk 4\nalpha 1\nmode random\nblocks 0\n1 2 3 4\n5 6 7 8\n",
         "claim-a: FAIL  element 1 jammed within K=[1, 2, 3]\n"),
        ("qgtc 1\nn 8\nk 2\nalpha 1\nmode random\nblocks 0\n1 2 3 4\n5 6 7\n",
         "claim-a: FAIL  element 8 jammed within K=[8]\n"),
    ],
    ids=["walk", "closed-form"],
)
def test_claim_a_on_both_sides_of_k_equal_alpha_plus_1(tmp_path, capsys, text, expected):
    code = tmp_path / "ca.qgtc"
    code.write_text(text)
    assert run(capsys, "verify", "--code", str(code), "--claim-a")[:2] == (1, expected)


def test_one_build_rule_in_every_mode_at_512_2_2(tmp_path, capsys):
    family = {}
    for mode in ("plain", "large", "multiset"):
        code = build(capsys, tmp_path / f"r-{mode}.qgtc", 512, 2, 2, "--mode", mode)
        family[mode] = code.read_text().splitlines()[5]
    assert family == {"plain": "family rs 5 3 4", "large": "family rs 5 3 4", "multiset": "family singletons"}
    # the table the rule never takes in multiset mode is refused, naming line 6
    lines = (tmp_path / "r-multiset.qgtc").read_text().splitlines(keepends=True)
    lines[5] = "family rs 5 3 4\n"
    bad, fv = tmp_path / "r-bad.qgtc", tmp_path / "r.fv"
    bad.write_text("".join(lines))
    fv.write_text("0\n")
    status, _, err = run(capsys, "decode", "--code", str(bad), "--fv", str(fv))
    assert status == 2
    assert "line 6" in err


def _bumped(values, untouched):
    """The vector with one value raised: at position 7, which it reads 0, or at its first nonzero."""
    p = 7 if untouched else next(i for i, x in enumerate(values) if x != "0")
    assert (values[p] == "0") == untouched
    return " ".join([*values[:p], str(int(values[p]) + 1), *values[p + 1:]]) + "\n"


@pytest.mark.parametrize(
    "n, k, alpha, verify", [(1024, 3, 2, True), (512, 2, 2, False)], ids=["singletons", "table"]
)
def test_list_and_family_files_answer_alike(tmp_path, capsys, n, k, alpha, verify):
    forms = {"f": build(capsys, tmp_path / "c.qgtc", n, k, alpha)}
    forms["l"] = listed(forms["f"])
    fvs, sets = {}, {}
    for form, code in forms.items():
        fv, got = tmp_path / f"{form}.fv", tmp_path / f"{form}.set"
        assert run(capsys, "encode", "--code", str(code), "--set", "5,300", "--out", str(fv))[0] == 0
        assert run(capsys, "decode", "--code", str(code), "--fv", str(fv), "--out", str(got))[0] == 0
        fvs[form], sets[form] = fv.read_text(), got.read_text()
    assert fvs["f"] == fvs["l"]
    assert sets["f"] == sets["l"]
    # one value bumped at a position the set touches and at one it does not (7):
    # both forms decode it to the same set, or refuse it with the same status and line
    for untouched in (False, True):
        bumped = tmp_path / "bumped.fv"
        bumped.write_text(_bumped(fvs["f"].split(), untouched))
        answers = []
        for code in forms.values():
            got = tmp_path / "bumped.set"
            got.write_text("")
            status, _, err = run(capsys, "decode", "--code", str(code), "--fv", str(bumped), "--out", str(got))
            answers.append((status, err, got.read_text()))
        assert answers[0] == answers[1]
    if verify:
        verdicts = []
        for code in forms.values():
            status, out, _ = timed_run(capsys, 30, "verify", "--code", str(code), "--uniqueness", "--claim-a",
                                       "--ssui", "--budget", "200000000")
            assert status == 0
            verdicts.append(out)
        assert verdicts[0] == verdicts[1]


REFUSALS = {
    "five": (" ".join(["1"] * 5 + ["0"] * 1019) + "\n", "error: decoded more than k=4 elements\n"),
    "capped": (" ".join("2" if p == 5 else "0" for p in range(1024)) + "\n",
               "error: inconsistent feedback: residual counts unexplained by decoded set: "
               "position 5 reads 2, decoded count 0\n"),
}


@pytest.fixture
def refusal_files(tmp_path, capsys):
    """The built (1024, 4, 2) singletons, and the two vectors of REFUSALS as files."""
    code = build(capsys, tmp_path / "rf.qgtc", 1024, 4, 2)
    assert code.read_text().splitlines()[5] == "family singletons"
    fvs = {}
    for name, (vector, _) in REFUSALS.items():
        fvs[name] = tmp_path / f"{name}.fv"
        fvs[name].write_text(vector)
    return code, fvs


def test_decode_refusals_read_alike_in_both_forms(capsys, refusal_files):
    # the family file proposes in closed form, its list form through the block sweep;
    # decode_detailed refuses both proposals with one message
    family, fvs = refusal_files
    for code in (family, listed(family)):
        for name, (_, expected) in REFUSALS.items():
            assert run(capsys, "decode", "--code", str(code), "--fv", str(fvs[name])) == (1, "", expected)


def test_python_m_qgt_exits_with_the_status_and_bytes_of_main(refusal_files):
    code, fvs = refusal_files
    got = run_module("decode", "--code", str(code), "--fv", str(fvs["five"]))
    assert got == (1, b"", REFUSALS["five"][1].encode())


def test_disperser_at_2_16():
    with deadline(10):
        graph = build_disperser(2**16, DisperserParams(1, 0.25))
        assert graph.n_right == 1, graph.n_right
        assert verify_dispersion(graph, 1, 0.25, mode="exhaustive") is True


def test_stream_sketch_at_2_18(tmp_path, capsys):
    code = build(capsys, tmp_path / "m.qgtc", 262144, 16, 16, "--mode", "multiset")
    ops, held = stream_log(18, 262144, 3000)
    expected = "".join(f"{v} {m}\n" for v, m in sorted(held.items()))
    (tmp_path / "m.ops").write_text(ops)
    got = tmp_path / "m.got"
    status, _, _ = timed_run(capsys, 60, "stream", "--code", str(code), "--ops", str(tmp_path / "m.ops"),
                             "--reconstruct", "--out", str(got))
    assert status == 0
    assert expected
    assert got.read_text() == expected


def test_stream_files_in_both_forms_answer_alike(tmp_path, capsys):
    # the family file takes the closed-form update, its list form the incidence index
    family = build(capsys, tmp_path / "st.qgtc", 4096, 16, 16, "--mode", "multiset")
    ops, held = stream_log(4096, 4096, 2000)
    absent = next(v for v in range(1, 4097) if v not in held)
    (tmp_path / "st.ops").write_text(ops)
    (tmp_path / "st-absent.ops").write_text(ops + f"D {absent}\n")
    answers = []
    for code in (family, listed(family)):
        got = tmp_path / "st.got"
        status, _, _ = timed_run(capsys, 60, "stream", "--code", str(code), "--ops", str(tmp_path / "st.ops"),
                                 "--reconstruct", "--out", str(got))
        assert status == 0
        refused = timed_run(capsys, 60, "stream", "--code", str(code), "--ops", str(tmp_path / "st-absent.ops"),
                            "--reconstruct")
        answers.append((got.read_text(), refused[0], refused[2]))
    assert answers[0][0]
    assert answers[0][1] == 2
    assert "delete of absent element" in answers[0][2]
    assert answers[0] == answers[1]


@pytest.mark.parametrize(
    "nodes, delete_share", [(1024, 0.0), (4096, 0.0), (4096, 0.3)], ids=["1024", "4096", "4096-deletes"]
)
def test_graph_sketch_reconstructs_the_edges_a_log_leaves(tmp_path, capsys, nodes, delete_share):
    ops, expected = graph_log(nodes, delete_share)
    if delete_share:
        assert ops.count("D ") > 500
    (tmp_path / "g.ops").write_text(ops)
    got = tmp_path / "g.got"
    status, _, _ = timed_run(capsys, 30, "graph", "--nodes", str(nodes), "--k", "3", "--ops", str(tmp_path / "g.ops"),
                             "--reconstruct", "--out", str(got))
    assert status == 0
    assert expected
    assert got.read_text() == expected


def test_encode_and_decode_at_2_20():
    n = 2**20
    rng = random.Random(20)
    with deadline(20):
        code = qgt.build_code_multiset(n, 16)
        for _ in range(2000):
            hidden = {}
            for _ in range(rng.randint(0, 16)):
                v = rng.randint(1, n)
                hidden[v] = hidden.get(v, 0) + 1
            assert qgt.decode(code, code.feedback(hidden)) == dict(sorted(hidden.items())), hidden
