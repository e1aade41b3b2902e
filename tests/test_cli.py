import io
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from eccforge.cli import main
from eccforge.gen import staircase_sequence
from eccforge.graph import parse_graph

TWO_K4_BRIDGE = (
    "p 8 13\n"
    "e 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"
    "e 5 6\ne 5 7\ne 5 8\ne 6 7\ne 6 8\ne 7 8\n"
    "e 4 5\n"
)

def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()

@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "g.graph"
    p.write_text(TWO_K4_BRIDGE)
    return str(p)

def test_solve_two_k4_bridge(graph_file):
    code, out = run_cli(["solve", graph_file, "-k", "3"])
    assert code == 0
    assert out == "1 2 3 4\n5 6 7 8\n"

def test_solve_k1(graph_file):
    code, out = run_cli(["solve", graph_file, "-k", "1"])
    assert code == 0
    assert out == "1 2 3 4 5 6 7 8\n"

def test_incr_staircase_stream(tmp_path):
    n = 10
    lines = ["av"] * n + [f"ae {u} {v}" for u, v in staircase_sequence(n)]
    lines.append("q 1 2")
    p = tmp_path / "stairs.stream"
    p.write_text("\n".join(lines) + "\n")
    code, out = run_cli(["incr", str(p), "--counters", "--debug-validate"])
    assert code == 0
    body = out.splitlines()
    assert body[0] == "false"
    assert body[1].startswith("counters affecting=18 ")

def test_incr_rejects_delete(tmp_path):
    p = tmp_path / "bad.stream"
    p.write_text("av\nav\nae 1 2\nde 1 2\n")
    code, _ = run_cli(["incr", str(p)])
    assert code == 2

def test_certify_output(graph_file, tmp_path):
    code, out = run_cli(["certify", graph_file, "-k", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("certificate k=3 n=8 m_in=13 ")
    cert = parse_graph("\n".join(lines[:-1]) + "\n")
    assert cert.n == 8
    code2, _ = run_cli(["certify", graph_file, "-k", "2"])
    assert code2 == 2

def test_dynamic_stream(tmp_path):
    lines = ["av"] * 8
    for base in (0, 4):
        vs = [base + i for i in (1, 2, 3, 4)]
        for i in range(4):
            for j in range(i + 1, 4):
                lines.append(f"ae {vs[i]} {vs[j]}")
    lines += ["q 1 3", "q 1 5", "de 1 2", "q 1 3"]
    p = tmp_path / "dyn.stream"
    p.write_text("\n".join(lines) + "\n")
    code, out = run_cli(["dynamic", str(p), "-k", "3"])
    assert code == 0
    assert out.splitlines() == ["true", "false", "false"]

def test_verify_agrees(capsys):
    code = main(["verify", "--seed", "1", "--nmax", "10", "--trials", "5", "-k", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "5/5 trials agreed" in out

def test_main_leaves_recursion_limit_alone(graph_file):
    # a fresh interpreter, so no earlier call in this session can mask a change
    script = (
        "import sys\n"
        "from eccforge.cli import main\n"
        "before = sys.getrecursionlimit()\n"
        f"assert main(['solve', {graph_file!r}, '-k', '3']) == 0\n"
        "assert sys.getrecursionlimit() == before, sys.getrecursionlimit()\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr

def test_parse_error_exit_code(tmp_path):
    p = tmp_path / "broken.graph"
    p.write_text("p 3 1\ne 1 5\n")
    code, _ = run_cli(["solve", str(p), "-k", "3"])
    assert code == 2

def test_missing_file_exit_code():
    code, _ = run_cli(["solve", "/nonexistent/g.graph", "-k", "3"])
    assert code == 2

def test_deterministic_output(graph_file):
    _, out1 = run_cli(["solve", graph_file, "-k", "3"])
    _, out2 = run_cli(["solve", graph_file, "-k", "3"])
    assert out1 == out2


def test_seeded_commands_byte_identical(graph_file):
    # same seed + same flags must reproduce the exact bytes
    for args in (
        ["certify", graph_file, "-k", "4"],
        ["verify", "--seed", "9", "--nmax", "8", "--trials", "3", "-k", "3"],
    ):
        code1, out1 = run_cli(args)
        code2, out2 = run_cli(args)
        assert (code1, out1) == (code2, out2)

def test_bench_runs(capsys):
    code = main(["bench", "--nmax", "16", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "staircase" in out and "random" in out


def test_verify_checks_dynamic_partitions(monkeypatch, capsys):
    import eccforge.cli
    from eccforge import SparsTree

    class NeverMerges(SparsTree):
        def _merge_classes(self, u, v):
            pass  # misses every class that an insert joins

    monkeypatch.setattr(eccforge.cli, "SparsTree", NeverMerges)
    args = ["verify", "--seed", "1", "--nmax", "10", "--trials", "6", "-k", "3", "-k", "4"]
    code = main(args)
    lines = capsys.readouterr().out.splitlines()
    failing = [line.split(":")[0] for line in lines if line.startswith("trial ")]
    assert code == 1
    assert len(failing) > len(set(failing))  # some trial fails at both k
    assert lines[-1] == f"verify: {6 - len(set(failing))}/6 trials agreed (seed=1)"


def test_verify_below_k3(capsys):
    # the dynamic engine and the static solver take any k >= 1; the
    # certified solve runs only from k = 3
    code = main(["verify", "--seed", "2", "--nmax", "10", "--trials", "4", "-k", "1", "-k", "2"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verify: 4/4 trials agreed (seed=2)"
    assert main(["verify", "--trials", "1", "-k", "0"]) == 2


def test_verify_audits_the_tree(monkeypatch, capsys):
    import eccforge.cli
    from eccforge.decomp import DecompError, DecompTree

    class Corrupt(DecompTree):
        def validate(self):
            raise DecompError("corrupt")

    monkeypatch.setattr(eccforge.cli, "DecompTree", Corrupt)
    code = main(["verify", "--seed", "1", "--nmax", "8", "--trials", "3", "-k", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[:-1] == [
        f"trial {t}: incremental engine fails its audit: corrupt" for t in range(3)
    ]
    assert lines[-1] == "verify: 0/3 trials agreed (seed=1)"


def test_verify_audits_the_dynamic_engine(monkeypatch, capsys):
    import eccforge.cli
    from eccforge import SparsTree
    from eccforge.dynamic import DynamicError

    class Corrupt(SparsTree):
        def validate(self):
            raise DynamicError("corrupt")

    monkeypatch.setattr(eccforge.cli, "SparsTree", Corrupt)
    args = ["verify", "--seed", "1", "--nmax", "8", "--trials", "3", "-k", "3", "-k", "4"]
    code = main(args)
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[:-1] == [
        f"trial {t}: dynamic engine fails its audit at k={k}: corrupt"
        for t in range(3)
        for k in (3, 4)
    ]
    assert lines[-1] == "verify: 0/3 trials agreed (seed=1)"
