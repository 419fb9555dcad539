"""CLI stdout, byte for byte, against committed golden files.

Each golden in tests/data/cli/ is the stdout of one command on the packaged
sample family, on a graph file next to it, or on the r = n = 7 family of
tests/data, the largest (49 vertices, 15549 facets).  A reordered generator
list, a reformatted witness or a changed verdict shows here, where a
substring check would let it through.
"""

from pathlib import Path

import pytest

from cmgraphs.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data" / "cli"
SAMPLE = str(ROOT / "src" / "cmgraphs" / "data" / "sample_family.json")
CYCLE4 = str(DATA / "cycle4.json")
VIOLATIONS = str(DATA / "thm1_violations.json")
FAMILY_R7 = str(DATA.parent / "family_r7_n7.json")

# golden file -> the command whose stdout it holds
GOLDENS = {
    "ideals.txt": ("ideals", SAMPLE),
    "hr_build.txt": ("hr", "build", SAMPLE),
    "hr_build.json": ("hr", "build", SAMPLE, "--format", "json"),
    "hr_check_lq.txt": ("hr", "check-lq", SAMPLE),
    "hr_gamma.txt": ("hr", "gamma", SAMPLE, "X[2,3]"),
    "dual_verify.txt": ("dual", SAMPLE, "--verify"),
    "dual_verify.json": ("dual", SAMPLE, "--verify", "--format", "json"),
    "graph_build.txt": ("graph", "build", SAMPLE),
    "graph_build.json": ("graph", "build", SAMPLE, "--format", "json"),
    "graph_build.dot": ("graph", "build", SAMPLE, "--format", "dot"),
    "graph_check_thm1.txt": ("graph", "check", SAMPLE, "--which", "thm1"),
    "graph_check_thm2.txt": ("graph", "check", SAMPLE, "--which", "thm2"),
    "graph_check_hh.txt": ("graph", "check", SAMPLE, "--which", "hh"),
    "graph_cm.txt": ("graph", "cm", SAMPLE),
    "graph_cm_rational.json": ("graph", "cm", SAMPLE, "--field", "rational", "--format", "json"),
    "cycle4_graph_cm_witness.txt": ("graph", "cm", CYCLE4, "--witness"),
    "family_r7_n7_graph_cm.txt": ("graph", "cm", FAMILY_R7),
    "cycle4_graph_check_thm1.txt": ("graph", "check", CYCLE4, "--which", "thm1"),
    "cycle4_graph_check_thm2.txt": ("graph", "check", CYCLE4, "--which", "thm2"),
    "violations_graph_check_thm1.txt": ("graph", "check", VIOLATIONS, "--which", "thm1"),
    "violations_graph_check_thm2.txt": ("graph", "check", VIOLATIONS, "--which", "thm2"),
    "violations_graph_check_hh.txt": (
        "graph", "check", VIOLATIONS, "--which", "hh", "--parts", "1,2",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_cli_stdout_matches_golden(capsys, name):
    main(list(GOLDENS[name]))
    assert capsys.readouterr().out == (DATA / name).read_text()
