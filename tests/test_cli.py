"""Command-line surface: verbs, formats, exit codes, determinism."""

import json
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cmgraphs import (
    InternalMismatchError,
    LinearQuotientsVerdict,
    MultipartiteGraph,
    RelationFamily,
    close_relation,
    duality,
    homology,
    verification,
)
from cmgraphs.cli import main
from cmgraphs.duality import _maximal_independent_subsets
from cmgraphs.graphs import build_complete_multipartite, cycle_graph, graph_of_family
from cmgraphs.posets import family_to_dict

R7_FAMILY = Path(__file__).parent / "data" / "family_r7_n7.json"
README = Path(__file__).parent.parent / "README.md"


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


FAMILY_VERBS = [
    ("ideals",),
    ("hr", "build"),
    ("hr", "check-lq"),
    ("hr", "gamma", "{path}", "X[1,1]"),
    ("dual",),
]
GRAPH_VERBS = [
    ("graph", "build"),
    ("graph", "check", "{path}", "--which", "thm1"),
    ("graph", "cm"),
]
NON_OBJECTS = {"int": 5, "list": [], "str": "x"}
# graph documents with a field that is not an int; a family document has no
# edges, so only the graph verbs read these
NON_INTEGER_GRAPHS = {
    "r-str": {"r": "3", "n": 1, "edges": []},
    "r-bool": {"r": True, "n": 2, "edges": []},
    "n-float": {"r": 3, "n": 1.5, "edges": []},
    "coord-str": {"r": 2, "n": 2, "edges": [[[1, "a"], [2, 1]]]},
    "coord-float": {"r": 2, "n": 2, "edges": [[[1, 2.0], [2, 1]]]},
    "coord-bool": {"r": 2, "n": 2, "edges": [[[1, True], [2, 1]]]},
}
# family documents with a field that is not an int; JSON true loads as a
# bool, which Python counts as the int 1
NON_INTEGER_FAMILIES = {
    "n-bool": {"n": True, "r": 2, "relations": []},
    "r-bool": {"n": 2, "r": True, "relations": []},
    "level-bool": {"n": 2, "r": 3, "relations": [{"level": True, "pairs": [[1, 2]]}]},
    "level-float": {"n": 2, "r": 3, "relations": [{"level": 1.0, "pairs": []}]},
    "pair-bool": {"n": 2, "r": 2, "relations": [{"level": 1, "pairs": [[True, 2]]}]},
    "pair-str": {"n": 2, "r": 2, "relations": [{"level": 1, "pairs": [["1", 2]]}]},
}


def _verb_id(verb):
    return "-".join(verb[:2]).replace("-{path}", "")


@pytest.mark.parametrize(
    "verb, payload",
    [
        pytest.param(verb, payload, id=f"{_verb_id(verb)}-{name}")
        for verb in FAMILY_VERBS + GRAPH_VERBS
        for name, payload in NON_OBJECTS.items()
    ]
    + [
        pytest.param(verb, payload, id=f"{_verb_id(verb)}-{name}")
        for verb in GRAPH_VERBS
        for name, payload in NON_INTEGER_GRAPHS.items()
    ]
    + [
        pytest.param(verb, payload, id=f"{_verb_id(verb)}-{name}")
        for verb in FAMILY_VERBS
        for name, payload in NON_INTEGER_FAMILIES.items()
    ],
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
    rc, out, _ = run(capsys, "graph", "cm", c4, "--witness")
    assert rc == 1
    assert "Cohen-Macaulay over gf2: NO" in out
    assert "link of {} has rank 1 in dimension 0" in out
    assert "{X[1,1],X[3,1]}" in out


def test_cm_field_flag(capsys, graph_file):
    c5 = graph_file(cycle_graph(5), "c5.json")
    rc, out, _ = run(capsys, "graph", "cm", c5, "--field", "rational")
    assert rc == 0
    assert "over rational: yes" in out
    rc, _, err = run(capsys, "graph", "cm", c5, "--field", "gf9")
    assert rc == 2
    assert "E_PARSE" in err
    # a face budget below 1 is refused while the arguments are parsed
    for budget, reason in (
        ("0", "must be at least 1, got 0"),
        ("-5", "must be at least 1, got -5"),
        ("x", "not an integer: 'x'"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["graph", "cm", c5, "--budget-faces", budget])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --budget-faces: {reason}" in err
        assert "E_SIZE" not in err


def test_graph_cm_over_a_60_bit_prime_is_quick(capsys, sample_path):
    # primality of the modulus is a Miller-Rabin test, not trial division to
    # its square root
    started = time.perf_counter()
    rc, out, _ = run(capsys, "graph", "cm", sample_path, "--field", "gfp:1000000000000000003")
    assert time.perf_counter() - started < 1.0
    assert rc == 0
    assert "Cohen-Macaulay over gfp:1000000000000000003: yes" in out
    rc, _, err = run(capsys, "graph", "cm", sample_path, "--field", f"gfp:{2**64 + 13}")
    assert rc == 2
    assert "E_PARSE: gfp takes a modulus below 2**64" in err


def test_identity_grid_of_25_vertices(capsys, write_json):
    # the 5x5 identity family: Ind(G) has one facet per chain, 5^5 of them
    path = write_json({"n": 5, "r": 5, "relations": []})
    rc, out, _ = run(capsys, "graph", "cm", path)
    assert rc == 0
    assert "independence complex: 3125 facets" in out
    assert "Cohen-Macaulay over gf2: yes" in out
    rc, out, _ = run(capsys, "dual", path, "--verify")
    assert rc == 0
    assert "verified: brute-force dual agrees" in out


def test_identity_grid_of_30_vertices(capsys, write_json):
    # the r=6, n=5 identity family: 6^5 facets, one per chain
    path = write_json({"n": 5, "r": 6, "relations": []})
    rc, out, _ = run(capsys, "graph", "cm", path)
    assert rc == 0
    assert "independence complex: 7776 facets" in out
    assert "Cohen-Macaulay over gf2: yes" in out


def test_perfect_matching_of_60_vertices_exits_2(capsys, graph_file):
    # 2^30 maximal independent sets: the kernel's budget stops the listing
    matching = MultipartiteGraph(2, 30, frozenset(((1, i), (2, i)) for i in range(1, 31)))
    rc, out, err = run(capsys, "graph", "cm", graph_file(matching))
    assert rc == 2
    assert out == ""
    assert "E_SIZE" in err
    assert "maximal independent sets exceed the budget" in err


def test_verify_paper_exits_3_when_the_facet_kernels_disagree(capsys, monkeypatch):
    real = duality._maximal_independent_sets
    monkeypatch.setattr(duality, "_maximal_independent_sets", lambda m, size: real(m, size)[1:])
    with pytest.raises(InternalMismatchError, match="differ from Berge's kernel"):
        verification.criterion_5_cohen_macaulay(verification.DEFAULT_SEED)
    # run_all lets the mismatch through rather than reporting a failed criterion
    def criterion_5_first():
        return verification.criterion_5_cohen_macaulay(7)

    monkeypatch.setattr(verification, "criterion_1_sample_reproduction", criterion_5_first)
    rc, out, err = run(capsys, "verify-paper")
    assert rc == 3
    assert out == ""
    assert "E_INTERNAL: Ind(G) facets" in err


def test_verify_paper_exits_3_when_a_recorded_graph_differs(capsys, monkeypatch):
    # a complex that records its graph less one edge: criterion 5 derives the
    # graph from the facets and refuses the recorded one
    real = verification.independence_complex

    def one_edge_short(graph):
        cx = real(graph)
        nbr = list(cx._graph_nbr)
        u = next((k for k, row in enumerate(nbr) if row), None)
        if u is not None:
            v = (nbr[u] & -nbr[u]).bit_length() - 1
            nbr[u] ^= 1 << v
            nbr[v] ^= 1 << u
        object.__setattr__(cx, "_graph_nbr", tuple(nbr))
        return cx

    monkeypatch.setattr(verification, "independence_complex", one_edge_short)
    with pytest.raises(InternalMismatchError, match="not the flag complex of the graph it records"):
        verification.criterion_5_cohen_macaulay(verification.DEFAULT_SEED)
    monkeypatch.setattr(
        verification,
        "criterion_1_sample_reproduction",
        lambda: verification.criterion_5_cohen_macaulay(7),
    )
    rc, out, err = run(capsys, "verify-paper")
    assert rc == 3
    assert out == ""
    assert "E_INTERNAL: an independence complex is not the flag complex" in err


def test_verify_paper_exits_3_when_the_cm_walks_disagree(capsys, monkeypatch):
    # a graph walk that calls every flag complex CM, of its facets' size,
    # passes the families and constructions, and is caught at the four-cycle
    # by the face walk
    def facet_size(nbr, field, budget):
        closed = [m | 1 << v for v, m in enumerate(nbr)]
        return max(f.bit_count() for f in _maximal_independent_subsets(closed, (1 << len(nbr)) - 1))

    monkeypatch.setattr(homology, "_cm_by_graph", facet_size)
    with pytest.raises(InternalMismatchError, match="the graph walk gives True, None"):
        verification.criterion_5_cohen_macaulay(verification.DEFAULT_SEED)
    monkeypatch.setattr(
        verification,
        "criterion_1_sample_reproduction",
        lambda: verification.criterion_5_cohen_macaulay(7),
    )
    rc, out, err = run(capsys, "verify-paper")
    assert rc == 3
    assert out == ""
    assert "E_INTERNAL: CM over gf2" in err


def test_verify_paper_exits_3_when_the_linear_quotients_routes_disagree(capsys, monkeypatch):
    # an explicit order that fails where the certificate passes
    real = verification.check_linear_quotients
    monkeypatch.setattr(
        verification, "check_linear_quotients", lambda gens: LinearQuotientsVerdict(False, (1, 2))
    )
    rc, out, err = run(capsys, "verify-paper")
    assert rc == 3
    assert out == ""
    assert "E_INTERNAL: linear quotients for family" in err
    assert "the certificate gives True, None and an explicit order False, (1, 2)" in err
    # a certificate that fails where its witness extension passes: the bottom
    # chain blocking the top one puts every other chain first, canonically
    monkeypatch.setattr(verification, "check_linear_quotients", real)
    monkeypatch.setattr(
        verification,
        "check_all_extensions",
        lambda fam, chains: LinearQuotientsVerdict(False, (1, len(chains))),
    )
    rc, out, err = run(capsys, "verify-paper")
    assert rc == 3
    assert out == ""
    assert "and an explicit order True, None" in err


def test_r7_family_data_is_the_second_seeded_draw():
    # family graphs r = n = k are drawn from random.Random(7) for k = 6, 7,
    # ...: each of the k - 1 levels takes every pair i < j with probability
    # 0.3 and closes them to an order
    rng = random.Random(7)

    def draw(k):
        levels = []
        for _ in range(k - 1):
            pairs = [
                (i, j)
                for i in range(1, k + 1)
                for j in range(i + 1, k + 1)
                if rng.random() < 0.3
            ]
            levels.append(close_relation(k, pairs))
        return RelationFamily(k, k, tuple(levels))

    draw(6)
    assert family_to_dict(draw(7)) == json.loads(R7_FAMILY.read_text())


def test_graph_cm_certifies_the_r7_family_graph_without_the_graph_walk(capsys, monkeypatch):
    # shedding and joins decide it; no boundary rank is taken
    def refuse(*args):
        raise AssertionError("a boundary rank was taken")

    monkeypatch.setattr(homology, "_homology_of_faces", refuse)
    # the bytes the graph walk's verdict printed, in text and in JSON
    rc, out, err = run(capsys, "graph", "cm", str(R7_FAMILY))
    assert (rc, err) == (0, "")
    assert out == "independence complex: 15549 facets\nCohen-Macaulay over gf2: yes\n"
    rc, out, err = run(capsys, "graph", "cm", str(R7_FAMILY), "--format", "json")
    assert (rc, err) == (0, "")
    assert out == '{\n  "cohen_macaulay": true,\n  "facet_count": 15549,\n  "field": "gf2"\n}\n'


def test_import_leaves_numpy_unloaded():
    code = "import sys, cmgraphs.cli; print('numpy' in sys.modules, 'networkx' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"


def test_console_script_entry_point(sample_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cmgraphs.cli", "hr", "build", sample_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("15 chains")


def test_closed_stdout_pipe_exits_141(write_json):
    # 2^14 ideals print far more than a pipe buffer holds, so the writer is
    # still printing when the reader closes its end after the first line
    path = write_json({"n": 14, "r": 2})
    proc = subprocess.Popen(
        [sys.executable, "-m", "cmgraphs.cli", "ideals", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"level 1: 16384 order ideals\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert b"Traceback" not in err


def test_the_readme_library_example_runs():
    # the one python block of the README, as CI's runtime-only job runs it
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
