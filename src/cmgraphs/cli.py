"""Command-line surface for the package.

Verbs: ideals, hr build|check-lq|gamma, dual, graph build|check|cm,
verify-paper.  Exit codes: 0 success, 1 a mathematical condition
failed, 2 bad input, 3 internal mismatch between two computations that must
agree (always a bug), 141 (128 + SIGPIPE) the reader closed stdout early.
All output is deterministic given inputs, flags and seed; --format json
mirrors the text payload for scripting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .chains import (
    build_hr,
    chain_monomial,
    check_linear_quotients,
    enumerate_chains,
    gamma_chain,
    linear_extension,
)
from .duality import dual_hr_fast, dual_ideal_bruteforce, grid_vertices
from .errors import InputError, InternalMismatchError, SizeBudgetError
from .graphs import (
    check_herzog_hibi,
    check_theorem1,
    check_theorem2,
    edge_str,
    graph_from_dict,
    graph_of_family,
    graph_to_dict,
    graph_to_dot,
    independence_complex,
)
from .homology import DEFAULT_FACE_BUDGET, is_cohen_macaulay, parse_field
from .monomials import parse_monomial
from .posets import (
    family_from_dict,
    format_ideal,
    load_family,
    members,
    order_ideals,
    read_json,
)
from .verification import DEFAULT_SEED, format_results, format_timings, run_all


def _graph_from_doc(doc):
    """The graph of a graph document, or of a relation-family document."""
    if isinstance(doc, dict) and "edges" in doc:
        return graph_from_dict(doc)
    return graph_of_family(family_from_dict(doc))


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_ideals(args) -> int:
    fam = load_family(args.family)
    levels = []
    lines = []
    for a in range(1, fam.r):
        ideals = order_ideals(fam.level(a))
        levels.append({"level": a, "ideals": [list(members(m)) for m in ideals]})
        lines.append(f"level {a}: {len(ideals)} order ideals")
        lines.extend(f"  {format_ideal(m)}" for m in ideals)
    _emit(args, {"n": fam.n, "r": fam.r, "levels": levels}, lines)
    return 0


def _ordered_generators(fam):
    order = linear_extension(enumerate_chains(fam))
    return order, [chain_monomial(fam, c) for c in order.chains]


def cmd_hr_build(args) -> int:
    fam = load_family(args.family)
    order, gens = _ordered_generators(fam)
    lines = [f"{len(order.chains)} chains, generators in chain order:"]
    lines.extend(f"  {g}" for g in gens)
    _emit(
        args,
        {
            "n": fam.n,
            "r": fam.r,
            "chain_count": len(order.chains),
            "generators": [str(g) for g in gens],
        },
        lines,
    )
    return 0


def cmd_hr_check_lq(args) -> int:
    fam = load_family(args.family)
    _, gens = _ordered_generators(fam)
    verdict = check_linear_quotients(gens)
    payload = {
        "generator_count": len(gens),
        "linear_quotients": verdict.passed,
        "witness": list(verdict.witness) if verdict.witness else None,
    }
    if verdict.passed:
        _emit(args, payload, [f"linear quotients: pass ({len(gens)} generators)"])
        return 0
    j, i = verdict.witness
    _emit(
        args,
        payload,
        [
            f"linear quotients: FAIL at (j,i)=({j},{i})",
            f"  u_{j} = {gens[j - 1]}",
            f"  u_{i} = {gens[i - 1]}",
        ],
    )
    return 1


def cmd_hr_gamma(args) -> int:
    fam = load_family(args.family)
    variables = parse_monomial(args.variables, fam.r, fam.n).variables()
    chain = gamma_chain(fam, variables)
    mono = chain_monomial(fam, chain)
    lines = [f"gamma chain for {{{args.variables}}}:"]
    lines.extend(
        f"  level {a}: {format_ideal(m)}" for a, m in enumerate(chain, start=1)
    )
    lines.append(f"chain monomial: {mono}")
    _emit(
        args,
        {
            "variables": [list(v) for v in variables],
            "chain": [list(members(m)) for m in chain],
            "chain_monomial": str(mono),
        },
        lines,
    )
    return 0


def cmd_dual(args) -> int:
    fam = load_family(args.family)
    fast = dual_hr_fast(fam)
    lines = [f"{len(fast.gens)} dual generators:"]
    lines.extend(f"  {g}" for g in fast.gens)
    payload = {
        "n": fam.n,
        "r": fam.r,
        "generators": [str(g) for g in fast.gens],
    }
    if args.verify:
        brute = dual_ideal_bruteforce(build_hr(fam), grid_vertices(fam.r, fam.n))
        if set(fast.masks()) != set(brute.masks()):
            only_fast = sorted(str(g) for g in fast.gens if g.mask not in set(brute.masks()))
            only_brute = sorted(str(g) for g in brute.gens if g.mask not in set(fast.masks()))
            payload.update(
                {"verified": False, "only_fast": only_fast, "only_brute": only_brute}
            )
            lines = [
                "DUAL MISMATCH between the quadratic rule and the brute force:",
                f"  family: n={fam.n} r={fam.r}",
                f"  only in fast path: {only_fast}",
                f"  only in brute force: {only_brute}",
            ]
            _emit(args, payload, lines)
            return 3
        payload["verified"] = True
        lines.append("verified: brute-force dual agrees")
    _emit(args, payload, lines)
    return 0


def cmd_graph_build(args) -> int:
    graph = _graph_from_doc(read_json(args.path))
    if args.format == "dot":
        print(graph_to_dot(graph), end="")
        return 0
    lines = [f"r={graph.r} n={graph.n}, {len(graph.edges)} edges:"]
    lines.extend(f"  {edge_str(e)}" for e in graph.sorted_edges())
    _emit(args, graph_to_dict(graph), lines)
    return 0


def _report_payload(report) -> dict:
    return {
        "title": report.title,
        "passed": report.passed,
        "conditions": [
            {
                "name": c.name,
                "passed": c.passed,
                "witnesses": [repr(w) for w in c.witnesses],
            }
            for c in report.conditions
        ],
    }


def cmd_graph_check(args) -> int:
    graph = _graph_from_doc(read_json(args.path))
    if args.which == "thm1":
        report = check_theorem1(graph)
    elif args.which == "thm2":
        report = check_theorem2(graph)
    else:
        if args.parts is None:
            a, b = 1, graph.r
        else:
            try:
                a_text, b_text = args.parts.split(",")
                a, b = int(a_text), int(b_text)
            except ValueError:
                raise InputError(
                    f"--parts must be two comma-separated levels, got {args.parts!r}"
                ) from None
        report = check_herzog_hibi(graph, a, b)
    payload = _report_payload(report)
    lines = report.lines()
    if args.which == "hh":
        payload["is_complete"] = report.is_complete
        lines.append(f"  complete: {'yes' if report.is_complete else 'no'}")
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def cmd_graph_cm(args) -> int:
    graph = _graph_from_doc(read_json(args.path))
    field = parse_field(args.field)
    cx = independence_complex(graph)
    cert = is_cohen_macaulay(cx, field, face_budget=args.budget_faces)
    payload = {
        "field": str(field),
        "cohen_macaulay": cert.verdict,
        "facet_count": len(cx.facets),
    }
    lines = [
        f"independence complex: {len(cx.facets)} facets",
        f"Cohen-Macaulay over {field}: {'yes' if cert.verdict else 'NO'}",
    ]
    if cert.witness:
        face, dim, rank = cert.witness
        payload["witness"] = {
            "face": [list(v) for v in face],
            "dimension": dim,
            "rank": rank,
        }
        face_text = "{" + ",".join(f"X[{a},{i}]" for a, i in face) + "}"
        lines.append(f"witness: link of {face_text} has rank {rank} in dimension {dim}")
        if args.witness:
            from .homology import link

            lk = link(cx, face)
            payload["witness"]["link_facets"] = [
                [list(v) for v in f] for f in lk.facet_sets()
            ]
            lines.append("failing link facets:")
            lines.extend(
                "  {" + ",".join(f"X[{a},{i}]" for a, i in f) + "}"
                for f in lk.facet_sets()
            )
    _emit(args, payload, lines)
    return 0 if cert.verdict else 1


def cmd_verify_paper(args) -> int:
    results = run_all(args.seed)
    if getattr(args, "format", "text") == "json":
        payload = {
            "seed": args.seed,
            "criteria": [
                {
                    "number": res.number,
                    "name": res.name,
                    "passed": res.passed,
                    "detail": res.detail,
                    "within_budget": res.elapsed <= res.budget,
                }
                for res in results
            ],
            "ok": all(res.ok for res in results),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_results(results))
    # wall times vary run to run; keep them off stdout so reports stay stable
    print(format_timings(results), file=sys.stderr)
    return 0 if all(res.ok for res in results) else 1


def _positive_int(text: str) -> int:
    """An argument that must be an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmgraphs",
        description="Monomial ideals from relation families and their graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "json")):
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("ideals", help="list the order ideals of every level")
    p.add_argument("family")
    add_format(p)
    p.set_defaults(func=cmd_ideals)

    hr = sub.add_parser("hr", help="chain-ideal commands")
    hr_sub = hr.add_subparsers(dest="subcommand", required=True)

    p = hr_sub.add_parser("build", help="enumerate chains and generators")
    p.add_argument("family")
    add_format(p)
    p.set_defaults(func=cmd_hr_build)

    p = hr_sub.add_parser("check-lq", help="verify linear quotients in chain order")
    p.add_argument("family")
    add_format(p)
    p.set_defaults(func=cmd_hr_check_lq)

    p = hr_sub.add_parser("gamma", help="chain generated by a variable set")
    p.add_argument("family")
    p.add_argument("variables", help="variable set as a monomial, e.g. 'X[2,3]*X[3,1]'")
    add_format(p)
    p.set_defaults(func=cmd_hr_gamma)

    p = sub.add_parser("dual", help="quadratic dual of the chain ideal")
    p.add_argument("family")
    p.add_argument(
        "--verify",
        action="store_true",
        help="also run the brute-force dual and compare",
    )
    add_format(p)
    p.set_defaults(func=cmd_dual)

    graph = sub.add_parser("graph", help="graph commands")
    graph_sub = graph.add_subparsers(dest="subcommand", required=True)

    p = graph_sub.add_parser("build", help="build or echo a graph")
    p.add_argument("path", help="family or graph file")
    add_format(p, ("text", "json", "dot"))
    p.set_defaults(func=cmd_graph_build)

    p = graph_sub.add_parser("check", help="run a structure checker")
    p.add_argument("path", help="family or graph file")
    p.add_argument("--which", choices=("thm1", "thm2", "hh"), required=True)
    p.add_argument(
        "--parts",
        default=None,
        help="for --which hh: the two levels, e.g. '1,3' (default: 1 and the last)",
    )
    add_format(p)
    p.set_defaults(func=cmd_graph_check)

    p = graph_sub.add_parser("cm", help="Cohen-Macaulay verdict for a graph")
    p.add_argument("path", help="family or graph file")
    p.add_argument(
        "--field",
        default="gf2",
        help="coefficient field: gf2, rational or gfp:<p> with p an odd prime",
    )
    p.add_argument(
        "--budget-faces",
        type=_positive_int,
        default=DEFAULT_FACE_BUDGET,
        help="maximum faces per homology computation",
    )
    p.add_argument(
        "--witness",
        action="store_true",
        help="print the facets of a failing link",
    )
    add_format(p)
    p.set_defaults(func=cmd_graph_cm)

    p = sub.add_parser("verify-paper", help="run the full verification suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_format(p)
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (e.g. `| head`); silence the exit-time flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InputError, SizeBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalMismatchError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
