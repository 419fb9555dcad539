"""Benchmark of the cmgraphs package: one workload per run, single process.

    python3 perfbench/run.py --workload chain-grid --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Set-up (a fresh-interpreter import of the package, its
dependencies already loaded, plus building the workload's inputs from the
seed) is sampled a few times before the first timed pass and again after
every pass, for a fifth of that pass's time, so the samples span the whole
run; their trimmed mean is reported (see `trimmed_mean`).
Timed passes over the workload's items repeat while another pass, with its
set-up samples, fits in `--seconds`, at least two passes, each pass on the
inputs built by the latest set-up.  Every output is checked against a known
answer.

With `--trace 0` the metrics are the end-to-end ones, measured untraced.
With `--trace 1` untraced and traced passes alternate; the metrics are the
per-layer self times and counts of the traced passes plus the tracing
overhead, and the spans of the last traced pass are written to
`perfbench/out/`.

Diagnostic lines (environment, per-pass and per-item times) come first on
stdout; the last line is the result object.  A wrong output makes
`correct` false; an item that raises counts as failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_FIRST = 3  # set-up samples before the first pass
SETUP_SHARE = 0.2  # after every pass, set-up samples for this share of its time
SETUP_MIN = 2  # and at least this many
MIN_PASSES = 2

# A process that has loaded numpy and networkx forks one child per import
# sample; the child is a fresh interpreter with those already loaded, times
# `import cmgraphs` and exits.  numpy and networkx stay out of the clock:
# their load time follows the host's file cache, not the package, and
# drifted by a quarter within twenty minutes, while the package's own import
# stayed steady.  Forking keeps a sample at about the cost of the import
# itself, so samples can be spread over the whole run.
IMPORT_PROBE = """
import os, sys, time
sys.path.insert(0, sys.argv[1])
import numpy, networkx
for _ in sys.stdin:
    pid = os.fork()
    if pid == 0:
        t = time.perf_counter()
        import cmgraphs
        print(time.perf_counter() - t, flush=True)
        os._exit(0)
    _, status = os.waitpid(pid, 0)
    if status != 0:
        print("failed", flush=True)
"""

# Spans each workload must record in a traced pass (homology spans carry the
# field).  A name missing from the recorded spans means a binding was not
# patched or the workload lost that layer, and fails the run instead of
# reading as zero.
CHAIN_GRID_SPANS = {
    "posets.order_ideals", "posets.composite_relation", "chains.enumerate_chains",
    "chains.linear_extension", "chains.chain_monomial", "chains.check_linear_quotients",
    "chains.build_hr", "monomials.sort_gens", "monomials.minimalize",
    "duality.dual_hr_fast", "duality.dual_ideal_bruteforce", "duality.complex_of_ideal",
    "graphs.graph_of_family", "graphs.edge_ideal", "graphs.check_theorem1",
    "graphs.check_family_conditions",
}
CM_SPANS = {"graphs.independence_complex", "graphs.edge_ideal", "duality.complex_of_ideal"}
EXPECTED_SPANS = {
    "chain-grid": CHAIN_GRID_SPANS,
    "cm-gf2": CM_SPANS | {"homology.is_cohen_macaulay.gf2"},
    "cm-gfp": CM_SPANS | {"homology.is_cohen_macaulay.gfp"},
    "paper-suite": CHAIN_GRID_SPANS | CM_SPANS | {
        "chains.random_linear_extension", "chains.find_linear_quotients_order",
        "graphs.complement_is_chordal",
        "homology.reduced_homology.gf2", "homology.reduced_homology.rational",
        "homology.is_cohen_macaulay.gf2", "homology.is_cohen_macaulay.rational",
    },
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completed_ratio": "ratio",
}


def self_time_metrics() -> list[str]:
    names = []
    for module, func, _, _ in spans.WRAPPED:
        if func == "reduced_homology":
            names += [f"{module}.{func}.{tag}.self_s" for tag in ("gf2", "rational")]
        elif func == "is_cohen_macaulay":
            names += [f"{module}.{func}.{tag}.self_s" for tag in ("gf2", "gfp", "rational")]
        else:
            names.append(f"{module}.{func}.self_s")
    return names


COUNT_METRICS = (
    "posets.order_ideals.calls",
    "posets.order_ideals.ideals",
    "posets.composite_relation.calls",
    "chains.enumerate_chains.chains",
    "chains.chain_monomial.calls",
    "chains.check_linear_quotients.pairs",
    "duality.complex_of_ideal.lattice_bytes",
    "homology.is_cohen_macaulay.calls",
    "homology.facets",
    "homology.faces",
)
CRITERION_METRICS = tuple(f"verification.criterion_{k}.s" for k in range(1, 9))


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in self_time_metrics()}
    for name in COUNT_METRICS:
        units[name] = "bytes" if name.endswith("lattice_bytes") else "count"
    units.update({name: "s" for name in CRITERION_METRICS})
    units["trace.overhead_ratio"] = "ratio"
    return units


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean of the values left after dropping the lowest and highest `cut`
    share of them.

    The shared host runs the same set-up at speeds up to twice apart and
    stays at one speed for a second or two, so the samples of a run fall in
    clusters.  Their median jumps from one cluster to another as the mix
    shifts between runs, by as much as the gap between clusters; a mean moves
    with the mix, as a pass time does.  The trim drops rare stalls."""
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k:len(values) - k])


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class ImportProbe:
    """Times `import cmgraphs` in fresh interpreters that have already
    loaded the package's dependencies, each measured inside the child."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        return self

    def seconds(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline().strip()
        try:
            return float(line)
        except ValueError:
            fail(f"importing cmgraphs in a fresh interpreter failed ({line or 'no output'})")

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def environment(args) -> dict:
    import cmgraphs
    import networkx
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "cmgraphs": cmgraphs.__version__,
        "commit": commit,
    }


@dataclasses.dataclass
class Pass:
    """Outcome of one pass over the items."""

    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    item_seconds: dict = dataclasses.field(default_factory=dict)
    report: str | None = None  # paper-suite only: the format_results text
    criterion_seconds: dict = dataclasses.field(default_factory=dict)


def run_pass(inputs) -> Pass:
    out = Pass()
    if inputs.report is not None:
        inputs.report.results.clear()
    start = time.perf_counter()
    for item in inputs.items:
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            problems = item.run()
        except Exception as exc:  # an item that raises is a failure, not a crash
            out.failed += 1
            print(f"perfbench: {item.label} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            problems = []
        out.item_seconds[item.label] = time.perf_counter() - t0
        out.problems += [f"{item.label}: {p}" for p in problems]
    out.wall = time.perf_counter() - start
    if inputs.report is not None:
        out.report = inputs.report.text()
        out.criterion_seconds = {res.number: res.elapsed for res in inputs.report.results}
    return out


def traced_pass(inputs, workload: str):
    recorder = spans.Recorder()
    patch = spans.Patch(recorder)
    patch.install()
    try:
        result = run_pass(inputs)
    finally:
        patch.uninstall()
    problems = []
    if not patch.restored():
        problems.append("trace: an original binding was not restored")
    selfs = recorder.self_times()
    if sum(selfs.values()) > result.wall:
        problems.append(
            f"trace: self times sum to {sum(selfs.values()):.6f}s, above the pass wall {result.wall:.6f}s"
        )
    missing = EXPECTED_SPANS[workload] - set(selfs)
    if missing:
        problems.append(f"trace: no calls recorded for {sorted(missing)}")
    return result, recorder, problems


def layer_metrics(recorder, faces_memo: dict) -> dict[str, float]:
    selfs = recorder.self_times()
    values = {name: selfs.get(name[: -len(".self_s")], 0.0) for name in self_time_metrics()}
    counts = dict(recorder.counts)
    counts["homology.facets"] = sum(len(f) for f in recorder.cm_complexes)
    faces = 0
    for facets in recorder.cm_complexes:
        if facets not in faces_memo:
            faces_memo[facets] = spans.count_faces(facets)
        faces += faces_memo[facets]
    counts["homology.faces"] = faces
    for name in COUNT_METRICS:
        values[name] = counts.get(name, 0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cmgraphs" / "__init__.py").is_file():
        fail(f"no package source under {SRC}; run from a cmgraphs checkout")
    sys.path.insert(0, str(SRC))
    import cmgraphs

    if Path(cmgraphs.__file__).resolve().parent != (SRC / "cmgraphs").resolve():
        fail(f"imported cmgraphs from {cmgraphs.__file__}, not from {SRC}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    setups, digests = [], set()

    def set_up(probe, count: int, seconds: float = 0.0):
        """Take at least `count` set-up samples, and more until they have
        taken `seconds`; return the inputs of the last."""
        started = time.perf_counter()
        taken = 0
        while taken < count or time.perf_counter() - started < seconds:
            taken += 1
            imported = probe.seconds()
            t0 = time.perf_counter()
            inputs = workloads.build(args.workload, args.seed)
            setups.append(imported + time.perf_counter() - t0)
            digests.add(inputs.digest)
        return inputs

    problems = []
    untraced, traced = [], []
    faces_memo: dict = {}
    layer_runs = []
    with ImportProbe() as probe:
        inputs = set_up(probe, SETUP_FIRST)
        # a pass starts only if one as long as the last, with its set-up
        # samples, would end by the deadline
        deadline = time.perf_counter() + args.seconds
        k, last = 0, 0.0
        while k < MIN_PASSES or time.perf_counter() + last <= deadline:
            started = time.perf_counter()
            if args.trace and k % 2 == 1:
                result, recorder, trace_problems = traced_pass(inputs, args.workload)
                problems += trace_problems
                layer_runs.append(layer_metrics(recorder, faces_memo))
                traced.append(result)
            else:
                result = run_pass(inputs)
                untraced.append(result)
            problems += result.problems
            inputs = set_up(probe, SETUP_MIN, SETUP_SHARE * result.wall)
            last = time.perf_counter() - started
            k += 1
    if len(digests) != 1:
        problems.append("set-up: one seed produced different inputs")

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if len({p.report for p in passes}) > 1:
        problems.append("paper-suite: report text differs between passes of one seed")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    wall = statistics.median(p.wall for p in untraced)
    print(json.dumps({"environment": environment(args)}))
    print(json.dumps({
        "passes": {
            "untraced_s": [round(p.wall, 6) for p in untraced],
            "traced_s": [round(p.wall, 6) for p in traced],
        },
        "setup_s": [round(s, 6) for s in setups],
        "input_digest": inputs.digest,
    }))
    items = sorted(
        ((statistics.median(p.item_seconds[label] for p in untraced), label)
         for label in untraced[0].item_seconds),
        reverse=True,
    )
    print(json.dumps({"item_median_s": {label: round(t, 6) for t, label in items}}))

    if args.trace:
        units = per_layer_units()
        values = {
            name: statistics.median(run[name] for run in layer_runs)
            for name in layer_runs[0]
        }
        for name in COUNT_METRICS:
            if len({run[name] for run in layer_runs}) > 1:
                problems.append(f"trace: count {name} differs between traced passes")
        for number in range(1, 9):
            values[f"verification.criterion_{number}.s"] = (
                statistics.median(p.criterion_seconds.get(number, 0.0) for p in untraced)
                if untraced[0].report is not None else 0.0
            )
        traced_wall = statistics.median(p.wall for p in traced)
        values["trace.overhead_ratio"] = traced_wall / wall - 1.0
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        values = {
            "wall_s": wall,
            "setup_s": trimmed_mean(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "completed_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
