"""Command-line front end.

Every command is a pure function of its flags and input files: no config
files, no environment variables, byte-identical output across runs.  Exit
status: 0 success, 1 a verification check found violations, 2 malformed
input or flags, 3 a cap or search budget was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dfa as dfa_mod
from . import harness, ideals, injection, witness
from .dfa import Dfa, DfaParseError, max_chain_length, minimize, preorder
from .semigroup import CapExceeded, SearchInfeasible
from .witness import IdealClass

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _load_dfa(path: str) -> Dfa:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return dfa_mod.parse_dfa_json(text)
    return dfa_mod.parse_dfa(text)


def _class_arg(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument(
        "--class",
        dest="klass",
        choices=[k.value for k in IdealClass],
        required=required,
        help="ideal class",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synideal",
        description="Syntactic complexity workbench for ideal regular languages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", help="print a witness DFA")
    _class_arg(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")

    p = sub.add_parser("analyze", help="classification, sigma, bounds, chain length")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify", help="classification report only")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("semigroup", help="transition semigroup of a DFA")
    p.add_argument("file")
    p.add_argument("--list", action="store_true", help="print sorted elements")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bounds", help="bound formula table for a class")
    _class_arg(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify-injection", help="run the injection suite on a DFA")
    p.add_argument("file")
    _class_arg(p, required=False)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("enumerate", help="run a verification campaign")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alphabet-size", type=int, required=True)
    _class_arg(p, required=False)
    p.add_argument("--mode", choices=["exhaustive", "sample"], default="exhaustive")
    p.add_argument("--count", type=int, default=100, help="samples (sample mode)")
    p.add_argument("--seed", type=int, default=0, help="seed (sample mode)")
    p.add_argument(
        "--checks",
        nargs="+",
        choices=sorted(harness.ALL_CHECKS),
        default=sorted(harness.ALL_CHECKS),
    )
    p.add_argument("--progress", action="store_true", help="progress to stderr")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("export-dot", help="DOT rendering of a DFA")
    p.add_argument("file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (DfaParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapExceeded, SearchInfeasible, harness.BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "witness":
        d = witness.build(IdealClass.from_string(args.klass), args.n)
        if args.format == "text":
            print(dfa_mod.to_text(d), end="")
        elif args.format == "json":
            print(json.dumps(dfa_mod.to_json_dict(d), indent=2))
        else:
            print(dfa_mod.to_dot(d), end="")
        return EXIT_OK

    if args.command == "analyze":
        return _cmd_analyze(args)

    if args.command == "classify":
        report = ideals.classify(_load_dfa(args.file))
        if args.json:
            print(ideals.report_to_json(report), end="")
        else:
            print(report.to_text(), end="")
        return EXIT_OK

    if args.command == "semigroup":
        d = _load_dfa(args.file)
        result = dfa_mod.transition_semigroup(minimize(d), cap=args.cap)
        if args.json:
            data = {"n": result.n, "size": result.size}
            if args.list:
                data["elements"] = [str(t) for t in result.elements]
            print(json.dumps(data, indent=2))
        elif args.list:
            print(result.to_text(), end="")
        else:
            print(f"semigroup n={result.n} size={result.size}")
        return EXIT_OK

    if args.command == "bounds":
        klass = IdealClass.from_string(args.klass)
        lo = witness.MIN_N[klass]
        if args.n_max < lo:
            raise ValueError(
                f"--n-max must be at least {lo} for the {klass.value} class, got {args.n_max}"
            )
        rows = [(n, witness.bound(klass, n)) for n in range(lo, args.n_max + 1)]
        if args.json:
            print(json.dumps({"class": klass.value, "bounds": rows}))
        else:
            for n, b in rows:
                print(f"{n} {b}")
        return EXIT_OK

    if args.command == "verify-injection":
        return _cmd_verify_injection(args)

    if args.command == "enumerate":
        klass = IdealClass.from_string(args.klass) if args.klass else None
        mode = (
            "exhaustive"
            if args.mode == "exhaustive"
            else harness.SampleMode(count=args.count, seed=args.seed)
        )
        spec = harness.CampaignSpec(
            n=args.n,
            alphabet_size=args.alphabet_size,
            class_filter=klass,
            mode=mode,
            checks=frozenset(args.checks),
        )
        report = harness.run(spec, progress=args.progress)
        print(report.to_json() if args.json else report.to_text(), end="")
        return EXIT_OK if report.ok else EXIT_VIOLATION

    if args.command == "export-dot":
        print(dfa_mod.to_dot(_load_dfa(args.file)), end="")
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")


def _cmd_analyze(args: argparse.Namespace) -> int:
    d = minimize(_load_dfa(args.file))
    sigma = dfa_mod.transition_semigroup(d).size
    report = ideals.classify_minimal(d.transitions, d.finals_mask, sigma)
    chain = max_chain_length(preorder(d))
    classes = []
    for klass in IdealClass:
        # Below MIN_N a class has no witness and so no bound; campaigns skip it too.
        if report.in_class(klass) and report.n >= witness.MIN_N[klass]:
            b = witness.bound(klass, report.n)
            classes.append({"class": klass.value, "bound": b, "met": report.sigma == b})
    data = report.to_json_dict()
    data["special_quotient_bound"] = ideals.special_quotient_bound(report)
    data["max_chain_length"] = chain
    data["class_bounds"] = classes
    data["bound_met"] = any(c["met"] for c in classes)
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(report.to_text(), end="")
        print(f"special_quotient_bound {data['special_quotient_bound']}")
        print(f"max_chain_length {chain}")
        for c in classes:
            print(f"class_bound {c['class']} {c['bound']} met {c['met']}")
        print(f"bound_met {data['bound_met']}")
    return EXIT_OK


def _cmd_verify_injection(args: argparse.Namespace) -> int:
    d = _load_dfa(args.file)
    klass = IdealClass.from_string(args.klass) if args.klass else None
    ctx = injection.make_context(d, klass)
    rep = injection.verify_injection(ctx)
    print(rep.to_json() if args.json else rep.to_text(), end="")
    return EXIT_OK if rep.ok else EXIT_VIOLATION


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
