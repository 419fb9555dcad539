"""In-memory spans around the package's public functions.

`install` replaces every binding of each wrapped function, in every loaded
`cmgraphs` module (the modules import each other's names directly, so
`posets.order_ideals` and `chains.order_ideals` are two bindings of one
function), with a wrapper that records (name, start, end, parent) and a few
counts taken from the call's arguments and result.  `uninstall` puts every
original back.  Self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _field_tag(args, kwargs) -> str:
    """The field argument of reduced_homology / is_cohen_macaulay (GF(2) by default)."""
    field = kwargs.get("field", args[1] if len(args) > 1 else None)
    return "gf2" if field is None else field.tag


def _lq_pairs(args, kwargs, result) -> dict:
    """(j, i) pairs examined: all i(i-1)/2 on a pass, up to the witness on a fail."""
    m = len(args[0])
    if result.passed:
        return {"pairs": m * (m - 1) // 2}
    j, i = result.witness
    return {"pairs": (i - 1) * (i - 2) // 2 + j}


# (module, function, span-name suffix from the arguments, counts from the call)
WRAPPED = (
    ("posets", "order_ideals", None, lambda a, k, res: {"ideals": len(res)}),
    ("posets", "composite_relation", None, None),
    ("chains", "enumerate_chains", None, lambda a, k, res: {"chains": len(res)}),
    ("chains", "linear_extension", None, None),
    ("chains", "chain_monomial", None, None),
    ("chains", "check_linear_quotients", None, _lq_pairs),
    ("chains", "build_hr", None, None),
    ("chains", "random_linear_extension", None, None),
    ("chains", "find_linear_quotients_order", None, None),
    ("monomials", "sort_gens", None, None),
    ("monomials", "minimalize", None, None),
    ("duality", "dual_hr_fast", None, None),
    ("duality", "dual_ideal_bruteforce", None, None),
    # bytes of the 2^V boolean lattice, computed from the vertex count
    ("duality", "complex_of_ideal", None, lambda a, k, res: {"lattice_bytes": 1 << len(a[1])}),
    ("graphs", "graph_of_family", None, None),
    ("graphs", "edge_ideal", None, None),
    ("graphs", "check_theorem1", None, None),
    ("graphs", "check_family_conditions", None, None),
    ("graphs", "complement_is_chordal", None, None),
    ("graphs", "independence_complex", None, None),
    ("homology", "reduced_homology", _field_tag, None),
    ("homology", "is_cohen_macaulay", _field_tag, None),
)

# the complex passed to is_cohen_macaulay, kept so its faces can be counted
# after the span closes
CM_FUNCTION = "homology.is_cohen_macaulay"


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.cm_complexes: list[tuple] = []

    def wrap(self, orig, qualname: str, suffix, counter):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            name = qualname if suffix is None else f"{qualname}.{suffix(args, kwargs)}"
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self.counts[f"{qualname}.calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[f"{qualname}.{key}"] += value
            if qualname == CM_FUNCTION:
                self.cm_complexes.append(args[0].facets)
            return result

        wrapper.perfbench_original = orig
        return wrapper

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[k]
        return dict(out)

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        doc = {
            "names": names,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _cmgraphs_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "cmgraphs" or name.startswith("cmgraphs."))
    ]


class Patch:
    """Every binding of every wrapped function, replaced and restorable."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.modules = _cmgraphs_modules()
        self.bindings: list[tuple] = []  # (module, attribute, original)

    def install(self) -> None:
        for modname, func, suffix, counter in WRAPPED:
            orig = getattr(sys.modules[f"cmgraphs.{modname}"], func)
            wrapper = self.recorder.wrap(orig, f"{modname}.{func}", suffix, counter)
            for mod in self.modules:
                for attr, value in vars(mod).items():
                    if value is orig:
                        self.bindings.append((mod, attr, orig))
            for mod, attr, original in self.bindings:
                if original is orig:
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in self.bindings:
            setattr(mod, attr, orig)

    def restored(self) -> bool:
        """Every binding holds its original and no wrapper is left anywhere."""
        if any(getattr(mod, attr) is not orig for mod, attr, orig in self.bindings):
            return False
        return not any(
            hasattr(value, "perfbench_original")
            for mod in self.modules
            for value in vars(mod).values()
        )


def count_faces(facets: tuple) -> int:
    """Number of faces, the empty face included, of the complex with these
    facets, by a subset closure over the vertices the facets use."""
    used = 0
    for f in facets:
        used |= f
    positions = [k for k in range(used.bit_length()) if used >> k & 1]
    compress = {pos: k for k, pos in enumerate(positions)}
    bits = len(positions)
    flags = np.zeros(1 << bits, dtype=bool)
    for f in facets:
        flags[sum(1 << compress[k] for k in range(f.bit_length()) if f >> k & 1)] = True
    for b in range(bits):
        view = flags.reshape(-1, 2, 1 << b)
        view[:, 0, :] |= view[:, 1, :]
    return int(flags.sum())
