import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import intervalpath.cli as cli
from intervalpath.cli import main
from intervalpath.intervals import parse_intervals
from intervalpath.pipeline import longest_path_by_reductions

PATH3_TEXT = "3\na 1 4\nb 3 6\nc 5 8\n"
STAR5_TEXT = "6 5\n0 1\n0 2\n0 3\n0 4\n0 5\n"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def path3_file(tmp_path):
    f = tmp_path / "path3.txt"
    f.write_text(PATH3_TEXT)
    return str(f)


def test_gen_proper_exact(runner):
    res = runner.invoke(main, ["gen", "--kind", "proper", "--n", "3", "--seed", "1"])
    assert res.exit_code == 0
    assert res.output == "3\nv1 1 3\nv2 2 5\nv3 4 6\n"


def test_gen_planted_record_count(runner):
    res = runner.invoke(main, ["gen", "--kind", "planted", "--n", "100", "--k", "3"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "103"
    assert len(lines) == 104


def test_gen_rejects_bad_spec(runner):
    res = runner.invoke(main, ["gen", "--kind", "random", "--n", "0"])
    assert res.exit_code == 2


def test_solve_plain(runner, path3_file):
    res = runner.invoke(main, ["solve", path3_file])
    assert res.exit_code == 0
    assert res.output == "3 a b c\n"


def test_solve_json(runner, path3_file):
    res = runner.invoke(main, ["solve", path3_file, "--json"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["length"] == 3
    assert doc["path"] == ["a", "b", "c"]
    assert doc["stats"]["route"] == "certified"
    assert doc["stats"]["kappa"] is None
    # path3's kappa, as the reductions route reports it
    graph = parse_intervals(Path(path3_file).read_text())
    assert longest_path_by_reductions(graph).stats["kappa"] == 722


def test_solve_empty_file(runner, tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("0\n")
    res = runner.invoke(main, ["solve", str(f)])
    assert res.exit_code == 0
    assert res.output == "0\n"


def test_help_lists_the_four_commands(runner):
    res = runner.invoke(main, ["--help"])
    assert res.exit_code == 0
    listed = [line.split()[0] for line in res.output.split("Commands:\n", 1)[1].splitlines()]
    assert listed == ["gen", "match", "reduce", "solve"]


def test_solve_missing_file(runner, tmp_path):
    res = runner.invoke(main, ["solve", str(tmp_path / "nope.txt")])
    assert res.exit_code == 2


def test_solve_rejects_weights(runner, tmp_path):
    f = tmp_path / "w.txt"
    f.write_text("1\na 1 2 3 1\n")
    res = runner.invoke(main, ["solve", str(f)])
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "text, fault",
    [
        ("2\na 1 4\na 5 8\n", "DuplicateVertexId"),
        ("2\na 1 4\nb 4 8\n", "DuplicateEndpoint"),
        ("1\na 4 4\n", "DegenerateInterval"),
        ("1\na 1 4 -3 2\n", "negative weight"),
    ],
    ids=["duplicate-name", "duplicate-endpoint", "degenerate", "negative-weight"],
)
@pytest.mark.parametrize("command", [["solve"], ["reduce", "--stage", "1"]])
def test_invalid_file_is_a_usage_error(runner, tmp_path, text, fault, command):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    res = runner.invoke(main, [*command, str(f)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert f"cannot parse {f}" in res.output and fault in res.output


def test_solve_garbage_input(runner, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("not intervals\n")
    res = runner.invoke(main, ["solve", str(f)])
    assert res.exit_code == 2


def test_solve_verify_oracle_ok(runner, path3_file):
    res = runner.invoke(main, ["solve", path3_file, "--verify-oracle"])
    assert res.exit_code == 0
    assert res.output == "3 a b c\n"


def test_solve_verify_oracle_mismatch(runner, path3_file, monkeypatch):
    monkeypatch.setattr(cli, "brute_longest_path", lambda g: (99, []))
    res = runner.invoke(main, ["solve", path3_file, "--verify-oracle"])
    assert res.exit_code == 3
    assert "verification mismatch" in res.output


def test_solve_verify_oracle_says_when_it_verified_nothing(runner, tmp_path):
    """Above the brute-force guard the solve still succeeds, and stderr says
    that nothing was checked."""
    f = tmp_path / "path19.txt"
    f.write_text("19\n" + "".join(f"v{i} {2 * i} {2 * i + 3}\n" for i in range(19)))
    res = runner.invoke(main, ["solve", str(f), "--verify-oracle"])
    assert res.exit_code == 0
    assert res.stdout == " ".join(["19", *(f"v{i}" for i in range(19))]) + "\n"
    assert res.stderr == "not verified: n=19 exceeds the brute-force guard 18\n"


def test_reduce_stage1(runner, path3_file):
    res = runner.invoke(main, ["reduce", path3_file, "--stage", "1"])
    assert res.exit_code == 0
    assert res.output == (
        "3\nd0 1 2 0 1\nd1 5 6 0 1\na1 3 4 3 1\n"
        "# d: d0 d1\n# a: a1\n# u_sharp: \n"
    )


def test_reduce_stage2(runner, path3_file):
    res = runner.invoke(main, ["reduce", path3_file, "--stage", "2"])
    assert res.exit_code == 0
    assert res.output == (
        "3\nd0 1 2 0 1\nd1 5 6 0 1\na1 3 4 3 1\n"
        "# a: a1\n# b: d0 d1\n# kappa: 722\n"
    )


def test_reduce_dump_parses_back(runner, path3_file):
    from intervalpath.intervals import parse_intervals

    res = runner.invoke(main, ["reduce", path3_file, "--stage", "2"])
    g = parse_intervals(res.output.split("#")[0])
    assert g.n == 3
    assert set(g.names) == {"d0", "d1", "a1"}


def test_reduce_needs_stage(runner, path3_file):
    res = runner.invoke(main, ["reduce", path3_file])
    assert res.exit_code == 2


def test_match_no(runner, tmp_path):
    f = tmp_path / "star.txt"
    f.write_text(STAR5_TEXT)
    res = runner.invoke(main, ["match", str(f), "--k", "2"])
    assert res.exit_code == 0
    assert res.output == "NO\nremoved_high_degree=1 kernel_n=0 kernel_m=0 k_prime=1\n"


def test_match_yes_without_kernel(runner, tmp_path):
    f = tmp_path / "p4.txt"
    f.write_text("4 3\n0 1\n1 2\n2 3\n")
    res = runner.invoke(main, ["match", str(f), "--k", "2"])
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == "YES"
    assert "kernel=none" in res.output


def test_match_needs_k(runner, tmp_path):
    f = tmp_path / "p4.txt"
    f.write_text("4 3\n0 1\n1 2\n2 3\n")
    assert runner.invoke(main, ["match", str(f)]).exit_code == 2
    assert runner.invoke(main, ["match", str(f), "--k", "0"]).exit_code == 2


def test_match_garbage(runner, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("who knows\n")
    res = runner.invoke(main, ["match", str(f), "--k", "1"])
    assert res.exit_code == 2


def test_demo_script_agrees_with_brute_force():
    demo = Path(__file__).resolve().parent.parent / "scripts" / "demo.py"
    out = subprocess.run(
        [sys.executable, str(demo), "--kind", "random", "--n", "12"],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert "DP entries" in out
    assert "(agrees)" in out
