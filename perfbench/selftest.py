"""Self-tests of the benchmark itself, not of the package.

    python3 perfbench/selftest.py

Checks that seeds determine inputs, that the independent counts agree with
the package on small cases, and that a traced pass patches every binding,
restores every original and keeps self times within the pass wall time,
and that the set-up statistics and the import probe behave.  Runs in a few seconds; exits non-zero on the first failure.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cmgraphs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_seed_determines_inputs():
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 7).digest
        b = workloads.build(name, 7).digest
        c = workloads.build(name, 8).digest
        check(a == b, f"{name}: one seed gave two different input digests")
        check(a != c, f"{name}: seeds 7 and 8 gave the same inputs")


def test_cm_workloads_share_inputs():
    check(
        workloads.build("cm-gf2", 5).digest == workloads.build("cm-gfp", 5).digest,
        "cm-gf2 and cm-gfp must see the same graphs for one seed",
    )


def test_chain_count_matches_enumeration():
    rng = random.Random(3)
    for _ in range(40):
        n, r = rng.randint(1, 4), rng.randint(2, 5)
        fam = workloads.random_levels(rng, n, r, rng.choice((0.0, 0.2, 0.5)))
        got = workloads.count_chains(fam)
        check(got == len(cmgraphs.enumerate_chains(fam)), f"chain count {got} on n={n} r={r}")
    for r, n in ((3, 4), (6, 2), (4, 3)):
        fam = workloads.random_levels(rng, n, r, 0.0)
        check(workloads.count_chains(fam) == r**n, f"identity r={r} n={n} is not r^n")


def test_ideal_faces_matches_brute_force():
    rng = random.Random(4)
    for _ in range(30):
        ideal = cmgraphs.verification.random_squarefree_ideal(rng, max_vars=7)
        gens = [g.mask for g in ideal.gens]
        brute = sum(1 for s in range(1 << ideal.n) if not any(m & ~s == 0 for m in gens))
        check(workloads.ideal_faces(ideal) == brute, f"face count of {ideal.masks()}")


def test_count_faces():
    check(spans.count_faces((0b111,)) == 8, "a triangle has 8 faces with the empty one")
    check(spans.count_faces((0b0011, 0b1100)) == 7, "two disjoint edges have 7 faces")
    check(spans.count_faces((0b101, 0b110)) == 6, "a path of two edges has 6 faces")


def test_traced_pass_patches_and_restores():
    inputs = workloads.build("cm-gf2", 1)
    inputs.items = [it for it in inputs.items if "family" not in it.label]
    recorder = spans.Recorder()
    patch = spans.Patch(recorder)
    originals = {}
    patch.install()
    try:
        import cmgraphs.chains as chains
        import cmgraphs.posets as posets

        check(chains.order_ideals is posets.order_ideals, "one wrapper per function")
        check(hasattr(chains.order_ideals, "perfbench_original"), "chains binding not patched")
        check(hasattr(cmgraphs.is_cohen_macaulay, "perfbench_original"), "package binding not patched")
        originals = {(mod.__name__, attr): orig for mod, attr, orig in patch.bindings}
        result = run.run_pass(inputs)
    finally:
        patch.uninstall()
    check(patch.restored(), "an original binding was not restored")
    for (modname, attr), orig in originals.items():
        check(getattr(sys.modules[modname], attr) is orig, f"{modname}.{attr} not restored")
    check(not result.problems and not result.failed, f"wrong outputs: {result.problems}")
    selfs = recorder.self_times()
    check(sum(selfs.values()) <= result.wall, "self times exceed the traced wall time")
    check(recorder.counts["homology.is_cohen_macaulay.calls"] == len(inputs.items), "one CM call per item")
    check("homology.is_cohen_macaulay.gf2" in selfs, "CM spans are labelled by field")


def test_trimmed_mean_drops_the_tails():
    check(run.trimmed_mean([0.2] * 8 + [0.0, 9.0]) == 0.2, "one stall at each end is dropped")
    check(run.trimmed_mean([1.0, 2.0, 3.0]) == 2.0, "fewer than ten values keep them all")
    check(abs(run.trimmed_mean([0.28] * 5 + [0.37] * 5) - 0.325) < 1e-12, "two clusters average")


def test_import_probe_times_a_fresh_import():
    with run.ImportProbe() as probe:
        times = [probe.seconds() for _ in range(2)]
    check(all(0.0 < t < 60.0 for t in times), f"import times {times}")
    check(probe.proc.returncode == 0, "the probe process did not end cleanly")


def test_metric_names_match_benchmark_json():
    import json

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in doc["per_layer"]}
    check(declared == run.per_layer_units(), "BENCHMARK.json per_layer differs from run.py")
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    check(declared == run.END_TO_END, "BENCHMARK.json end_to_end differs from run.py")
    check([w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS), "workload names differ")


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
