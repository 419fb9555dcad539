"""Command-line surface: verbs, formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from cmgraphs import RelationFamily
from cmgraphs.cli import main
from cmgraphs.graphs import build_complete_multipartite, cycle_graph, graph_of_family


@pytest.fixture
def sample_path(sample, family_file):
    return family_file(sample)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_ideals_lists_both_levels(capsys, sample_path):
    rc, out, _ = run(capsys, "ideals", sample_path)
    assert rc == 0
    assert "level 1: 6 order ideals" in out
    assert "level 2: 6 order ideals" in out
    assert "  {p2,p3}" in out
    assert "  {p1,p2,p3}" in out


def test_ideals_json_mirrors_text(capsys, sample_path):
    rc, out, _ = run(capsys, "ideals", sample_path, "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert [len(level["ideals"]) for level in payload["levels"]] == [6, 6]


def test_ideals_identity_defaults(capsys, write_json):
    path = write_json({"n": 2, "r": 3, "relations": []})
    rc, out, _ = run(capsys, "ideals", path)
    assert rc == 0
    assert out.count("4 order ideals") == 2


def test_missing_file_exits_2(capsys):
    rc, out, err = run(capsys, "ideals", "/no/such/file.json")
    assert rc == 2
    assert "error: E_INPUT" in err


def test_malformed_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    rc, _, err = run(capsys, "ideals", str(bad))
    assert rc == 2
    assert "E_PARSE" in err


@pytest.mark.parametrize("payload", [5, [], "x"], ids=["int", "list", "str"])
@pytest.mark.parametrize(
    "verb",
    [
        ("ideals",),
        ("hr", "build"),
        ("hr", "check-lq"),
        ("hr", "gamma", "{path}", "X[1,1]"),
        ("dual",),
        ("graph", "build"),
        ("graph", "check", "{path}", "--which", "thm1"),
        ("graph", "cm"),
        ("cm", "check"),
    ],
    ids=lambda verb: "-".join(verb[:2]).replace("-{path}", ""),
)
def test_non_object_document_exits_2(capsys, write_json, verb, payload):
    path = write_json(payload)
    argv = [path if a == "{path}" else a for a in verb]
    if "{path}" not in verb:
        argv.append(path)
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert "E_PARSE" in err
    assert out == ""


def test_hr_build_is_deterministic(capsys, sample_path):
    rc1, out1, _ = run(capsys, "hr", "build", sample_path)
    rc2, out2, _ = run(capsys, "hr", "build", sample_path)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.startswith("15 chains, generators in chain order:")
    assert out1.count("X[") == 15 * 6


def test_hr_build_tiny_ring(capsys, family_file):
    path = family_file(RelationFamily.from_pairs(1, 2, {}))
    rc, out, _ = run(capsys, "hr", "build", path)
    assert rc == 0
    assert "2 chains" in out


def test_hr_check_lq_passes(capsys, sample_path):
    rc, out, _ = run(capsys, "hr", "check-lq", sample_path)
    assert rc == 0
    assert "linear quotients: pass (15 generators)" in out


def test_hr_gamma(capsys, sample_path):
    rc, out, _ = run(capsys, "hr", "gamma", sample_path, "X[2,3]")
    assert rc == 0
    assert "level 1: {p2,p3}" in out
    assert "level 2: {}" in out
    assert "chain monomial:" in out


def test_hr_gamma_rejects_garbage(capsys, sample_path):
    rc, _, err = run(capsys, "hr", "gamma", sample_path, "X[2,3]+X[1,1]")
    assert rc == 2
    assert "E_PARSE" in err


def test_dual_with_verification(capsys, sample_path):
    rc, out, _ = run(capsys, "dual", sample_path, "--verify")
    assert rc == 0
    assert out.count("X[") == 13 * 2
    assert "verified: brute-force dual agrees" in out


def test_graph_build_formats(capsys, sample_path):
    rc, out, _ = run(capsys, "graph", "build", sample_path)
    assert rc == 0
    assert "13 edges" in out

    rc, out, _ = run(capsys, "graph", "build", sample_path, "--format", "json")
    assert rc == 0
    assert len(json.loads(out)["edges"]) == 13

    rc, out, _ = run(capsys, "graph", "build", sample_path, "--format", "dot")
    assert rc == 0
    assert out.count("rank=same") == 3
    assert out.count(" -- ") == 13


def test_graph_check_passes_on_built_graph(capsys, sample, graph_file):
    path = graph_file(graph_of_family(sample))
    for which in ("thm1", "thm2", "hh"):
        rc, out, _ = run(capsys, "graph", "check", path, "--which", which)
        if which == "thm1":
            assert rc == 0
        # thm2 and hh may pass or fail on this graph; they must not crash
        assert "[" in out


def test_graph_check_cycle_fails(capsys, graph_file):
    path = graph_file(cycle_graph(5))
    rc, out, _ = run(capsys, "graph", "check", path, "--which", "thm1")
    assert rc == 1
    assert "[FAIL]" in out
    assert "witness: (1, 3, 1)" in out
    rc, _, _ = run(capsys, "graph", "check", path, "--which", "thm2")
    assert rc == 1


def test_graph_check_complete_construction(capsys, graph_file):
    path = graph_file(build_complete_multipartite(2, 3))
    rc, out, _ = run(capsys, "graph", "check", path, "--which", "thm2")
    assert rc == 0
    rc, out, _ = run(capsys, "graph", "check", path, "--which", "hh", "--parts", "1,3")
    assert rc == 0
    assert "complete: yes" in out


def test_graph_check_bad_parts(capsys, sample, graph_file):
    path = graph_file(graph_of_family(sample))
    rc, _, err = run(capsys, "graph", "check", path, "--which", "hh", "--parts", "1,1")
    assert rc == 2
    assert "E_PARTS" in err


def test_graph_cm_verdicts(capsys, graph_file):
    c5 = graph_file(cycle_graph(5), "c5.json")
    rc, out, _ = run(capsys, "graph", "cm", c5)
    assert rc == 0
    assert "Cohen-Macaulay over gf2: yes" in out

    c4 = graph_file(cycle_graph(4), "c4.json")
    rc, out, _ = run(capsys, "cm", "check", c4, "--witness")
    assert rc == 1
    assert "Cohen-Macaulay over gf2: NO" in out
    assert "link of {} has rank 1 in dimension 0" in out
    assert "{X[1,1],X[3,1]}" in out


def test_cm_field_flag(capsys, graph_file):
    c5 = graph_file(cycle_graph(5), "c5.json")
    rc, out, _ = run(capsys, "cm", "check", c5, "--field", "rational")
    assert rc == 0
    assert "over rational: yes" in out
    rc, _, err = run(capsys, "cm", "check", c5, "--field", "gf9")
    assert rc == 2
    assert "E_PARSE" in err


def test_console_script_entry_point(sample_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cmgraphs.cli", "hr", "build", sample_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("15 chains")
