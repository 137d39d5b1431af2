"""Command-line entry point wiring all modules together.

One subcommand per capability: word problem (nf, eq), presentation
verification, primitivity testing, tree export, quotient and stabilizer
reports, simplicial-complex utilities on JSON files, the Farey fixture,
and contraction-certificate demos.  Every subcommand has a
machine-readable (--json) mode next to the human one, and output is
byte-identical for identical (argv, seed).

Every subcommand returns (lines, payload, ok): its human lines, its
--json payload, and whether its claim held.  main alone prints them and
maps outcomes to exit codes: 0 success, 1 verification failure
(including a negative answer to a yes/no query, and FuelExhausted),
2 usage error, 141 (128 + SIGPIPE, as a shell reports it) when the
reader of stdout has gone away.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import amalgam, contract, farey, simplicial, stabilizers, tree, words

__all__ = ["main"]


_Result = tuple[list[str], dict, bool]


def _cmd_nf(args: argparse.Namespace) -> _Result:
    nf = amalgam.normal_form(args.word)
    payload = {
        "claim": "alternating normal form of the given word",
        "word": args.word,
        "normal_form": str(nf),
        "syllables": [{"factor": side, "power": power} for side, power in nf.syllables],
        "tail": str(nf.tail),
        "is_identity": nf.is_identity(),
    }
    return [str(nf)], payload, True


def _cmd_eq(args: argparse.Namespace) -> _Result:
    equal = amalgam.are_equal(args.left, args.right)
    payload = {
        "claim": "the two words have the same normal form",
        "left": args.left,
        "right": args.right,
        "equal": equal,
    }
    return ["true" if equal else "false"], payload, equal


def _cmd_verify_presentation(args: argparse.Namespace) -> _Result:
    report = amalgam.verify_presentation(
        consequences=args.consequences, max_len=args.max_len, seed=args.seed
    )
    lines = [
        f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in report.relator_results
    ]
    lines.append(
        f"consequences: {report.consequences_checked - len(report.consequence_failures)}"
        f"/{report.consequences_checked} ok"
    )
    payload = {
        "claim": "defining relators and random consequences normal-form to the identity",
        "relators": [{"name": n, "ok": ok} for n, ok in report.relator_results],
        "consequences_checked": report.consequences_checked,
        "consequence_failures": report.consequence_failures,
        "ok": report.ok,
    }
    return lines, payload, report.ok


def _cmd_primitive(args: argparse.Namespace) -> _Result:
    word = words.parse_word(args.word)
    primitive = words.is_primitive(word)
    # a primitive word never has mixed signs, and a nonempty freely
    # reduced word stays nonempty under cyclic reduction
    certified = not primitive and word != "" and words.mixed_sign_criterion(word)
    if primitive:
        line = "primitive"
    elif certified:
        line = "not primitive (mixed-sign certificate)"
    else:
        line = "not primitive"
    payload = {
        "claim": "Christoffel descent decides primitivity",
        "word": args.word,
        "primitive": primitive,
        "mixed_sign_certificate": certified,
    }
    return [line], payload, primitive


def _cmd_tree(args: argparse.Namespace) -> _Result:
    b = tree.ball(args.radius, args.max_power)
    good = tree.is_tree(b)
    if args.dot:
        Path(args.dot).write_text(tree.to_dot(b))
    lines = [
        f"ball(radius={args.radius}, max_power={args.max_power}): "
        f"{len(b.vertices)} vertices, {len(b.edges)} edges",
        f"is_tree: {'true' if good else 'false'}",
    ]
    if args.dot:
        lines.append(f"dot written to {args.dot}")
    payload = {
        "claim": "the coset ball is connected with edges = vertices - 1",
        "radius": args.radius,
        "max_power": args.max_power,
        "vertices": len(b.vertices),
        "edges": len(b.edges),
        "is_tree": good,
        "dot": args.dot,
    }
    return lines, payload, good


def _cmd_quotient(args: argparse.Namespace) -> _Result:
    b = tree.ball(args.radius, args.max_power)
    report = tree.quotient(b, witness_samples=args.witnesses)
    lines = [
        f"quotient vertices: {', '.join(report.vertices)}",
        f"quotient edges: {len(report.edges)}",
    ]
    for vertex, word, good in report.witnesses:
        shown = word if word else "1"
        lines.append(f"  {vertex} = ({shown}) . base  [{'ok' if good else 'FAIL'}]")
    lines.append(f"ok: {'true' if report.ok else 'false'}")
    payload = {
        "claim": "the action collapses the ball to a single edge",
        "radius": args.radius,
        "max_power": args.max_power,
        "vertices": list(report.vertices),
        "edges": [list(e) for e in report.edges],
        "witnesses": [
            {"vertex": v, "word": w, "ok": good} for v, w, good in report.witnesses
        ],
        "ok": report.ok,
    }
    return lines, payload, report.ok


def _element_word(elem: stabilizers.TripleStabilizer) -> str:
    """A defining word for a triple stabilizer element, in the b/g/d alphabet."""
    return "d" * elem.d + "g" * elem.g + "a" * elem.a


def _cmd_stabilizers(args: argparse.Namespace) -> _Result:
    triple, edge = stabilizers.TRIPLE_ELEMENTS, stabilizers.EDGE_ELEMENTS
    base_p, base_t = tree.BASE_PAIR_VERTEX, tree.BASE_TRIPLE_VERTEX
    triple_fix = all(tree.act(_element_word(e), base_t) == base_t for e in triple)
    pair_fix = {
        name: tree.act(word, base_p) == base_p
        for name, word in (("b", "b"), ("g", "g"), ("t", "t"))
    }
    d_moves = tree.act("d", base_p) != base_p
    ok = triple_fix and all(pair_fix.values()) and d_moves
    lines = [
        f"triple-vertex stabilizer: {len(triple)} elements",
        "  " + ", ".join(str(e) for e in triple),
        f"edge stabilizer: {len(edge)} elements",
        "  " + ", ".join(str(e) for e in edge),
        f"all triple elements fix the base triple vertex: {str(triple_fix).lower()}",
        "pair generators fix the base pair vertex: "
        + ", ".join(f"{n}={str(v).lower()}" for n, v in pair_fix.items()),
        f"d moves the base pair vertex: {str(d_moves).lower()}",
    ]
    payload = {
        "claim": "stabilizer enumerations and their fixed base vertices",
        "triple_count": len(triple),
        "triple_elements": [str(e) for e in triple],
        "edge_count": len(edge),
        "edge_elements": [str(e) for e in edge],
        "triple_fixes_base_triple": triple_fix,
        "pair_generators_fix_base_pair": pair_fix,
        "d_moves_base_pair": d_moves,
        "ok": ok,
    }
    return lines, payload, ok


def _cmd_simplicial(args: argparse.Namespace) -> _Result:
    complex_ = simplicial.Complex.from_json(Path(args.file).read_text())
    if args.action == "flag":
        flag = complex_.is_flag()
        payload = {
            "claim": "every pairwise-adjacent vertex set spans a simplex",
            "file": args.file,
            "is_flag": flag,
        }
        return ["true" if flag else "false"], payload, flag
    if args.action == "barycentric":
        out = complex_.barycentric()
    else:  # remove-stars
        out = simplicial.remove_open_stars(
            complex_.barycentric(), complex_.vertices()
        )
    text = out.to_json()
    if args.output:
        Path(args.output).write_text(text)
        lines = [f"written to {args.output}"]
    else:
        lines = [text]
    vertices, edges, triangles = out.f_vector()
    payload = {
        "claim": "subdivision (and open-star removal) of the input complex",
        "file": args.file,
        "action": args.action,
        "vertices": vertices,
        "edges": edges,
        "triangles": triangles,
        "output": args.output,
        "complex": out.to_json_dict() if not args.output else None,
    }
    return lines, payload, True


def _cmd_farey(args: argparse.Namespace) -> _Result:
    if args.verify_axioms:  # refused before the build, as verify_axioms refuses it
        farey._check_sample_count(args.samples)
    complex_ = farey.build(args.n, tuple(args.window))
    vertices, edges, triangles = complex_.f_vector()
    flag, connected = complex_.is_flag(), complex_.is_connected()
    lines = [
        f"build({args.n}, window={tuple(args.window)}): "
        f"{vertices} vertices, {edges} edges, {triangles} triangles",
        f"flag: {str(flag).lower()}",
        f"connected: {str(connected).lower()}",
    ]
    payload = {
        "claim": "the truncated slope complex is a connected flag complex",
        "n": args.n,
        "window": list(args.window),
        "vertices": vertices,
        "edges": edges,
        "triangles": triangles,
        "is_flag": flag,
        "is_connected": connected,
    }
    if not args.verify_axioms:
        return lines, payload, True
    report = farey._check_axioms(
        complex_, args.n, args.samples, args.seed, tuple(args.window)
    )
    lines.append(
        f"axioms: {report.samples} samples, {len(report.violations)} violations"
    )
    lines.extend("  " + v for v in report.violations)
    payload["axioms"] = {
        "samples": report.samples,
        "violations": report.violations,
        "ok": report.ok,
    }
    return lines, payload, report.ok


def _cmd_contract(args: argparse.Namespace) -> _Result:
    loop = farey.random_based_loop(args.seed, args.max_denominator)
    certificate = contract.contract_loop(
        farey.adjacent, farey.remoteness, farey.blocking, loop, farey.BASE,
        fuel=args.fuel,
    )
    report = contract.validate(farey.adjacent, certificate, loop, farey.BASE)
    if args.output:
        Path(args.output).write_text(certificate.to_json())
    lines = [
        "loop: " + " ".join(str(v) for v in loop),
        f"moves: {len(certificate.moves)}",
        "final: " + " ".join(str(v) for v in certificate.final),
        f"validated: {str(report.ok).lower()}",
    ]
    if args.output:
        lines.append(f"certificate written to {args.output}")
    payload = {
        "claim": "the certified moves contract the loop into the base star",
        "seed": args.seed,
        "max_denominator": args.max_denominator,
        "fuel": args.fuel,
        "loop": [str(v) for v in loop],
        "moves": len(certificate.moves),
        "validated": report.ok,
        "certificate": certificate.to_json_dict(),
        "output": args.output,
    }
    return lines, payload, report.ok


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use and reused: parse_args keeps no state between
    # calls, and help text reads COLUMNS when it is formatted
    parser = argparse.ArgumentParser(
        prog="goeritz",
        description="Normal forms, coset-tree reports, and contraction certificates.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    p = add("nf", _cmd_nf, "normal form of a word in letters b B g d D (a, t macros)")
    p.add_argument("word")

    p = add("eq", _cmd_eq, "decide whether two words are equal")
    p.add_argument("left")
    p.add_argument("right")

    p = add("verify-presentation", _cmd_verify_presentation,
            "check relators and random consequences")
    p.add_argument("--consequences", type=int, default=1000)
    p.add_argument("--max-len", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = add("primitive", _cmd_primitive,
            "decide primitivity of a rank-2 word in letters x X y Y")
    p.add_argument("word")

    p = add("tree", _cmd_tree, "coset-tree ball report")
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--max-power", type=int, default=2)
    p.add_argument("--dot", metavar="PATH", help="write the ball as DOT")

    p = add("quotient", _cmd_quotient, "quotient of a ball by the action")
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--max-power", type=int, default=2)
    p.add_argument("--witnesses", type=int, default=20)

    add("stabilizers", _cmd_stabilizers, "stabilizer enumerations and fixed vertices")

    p = add("simplicial", _cmd_simplicial, "operations on a JSON complex file")
    p.add_argument("action", choices=("flag", "barycentric", "remove-stars"))
    p.add_argument("file")
    p.add_argument("-o", "--output", metavar="PATH")

    p = add("farey", _cmd_farey, "truncated slope-complex fixture report")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--window", type=int, nargs=2, default=(0, 1))
    p.add_argument("--verify-axioms", action="store_true")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)

    p = add("contract", _cmd_contract, "contract a seeded random based loop")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-denominator", type=int, default=50)
    p.add_argument("--fuel", type=int, default=contract.DEFAULT_FUEL,
                   help="move budget (default %(default)s)")
    p.add_argument("-o", "--output", metavar="PATH", help="write certificate JSON")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for flag in ("radius", "max_power", "witnesses", "n", "samples",
                 "max_denominator", "fuel", "consequences", "max_len"):
        value = getattr(args, flag, None)
        if value is not None and value <= 0:
            print(f"error: --{flag.replace('_', '-')} must be positive",
                  file=sys.stderr)
            return 2
    try:
        lines, payload, ok = args.func(args)
        print(json.dumps(payload, indent=2, default=str) if args.json
              else "\n".join(lines))
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return 0 if ok else 1
    except BrokenPipeError:
        sys.stdout = open(os.devnull, "w")  # keeps the final flush quiet
        return 141
    except contract.FuelExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
