"""Command-line front end.

    redix decompose  'ring: x, y\\nideal: x^2, x*y, y^3'
    redix basechange 'ideal: x^2, x*y' extend:1
    redix basechange 'f: x^2+x+1 over GF(2)' 'field:->GF(4)'
    redix dual       'ideal: x^2, x*y, y^3'
    redix abelian    'group: Z/4 + Z/9'
    redix selftest   --scope all --seed 42

Input is the first positional argument; pass `-` (or nothing) to read
it from stdin.  Every command assembles one structured document, the
single source of truth: `--format json` prints it directly and the
human rendering is derived from the same document.  Reports go to
stdout, diagnostics to stderr.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 size-cap error; a reader that closes stdout early does not change
the code.  Identical inputs and seed produce byte-identical
reports; wall-clock timing is only included under `--timing` because
it would break that guarantee.

The package registers the arena modules imported here to load lazily,
so a request runs only the arenas its command reads from; on the
package `decompose` is the function, which `cmd_decompose` imports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__ as VERSION
from . import abelian, basechange, bass, gfpoly, monomial, selftest, staircase, textio
from .errors import (
    MAX_ORDER,
    ParseError,
    RedixError,
    SizeCapError,
    VerificationError,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_SIZE_CAP = 3


def _read_input(args) -> str:
    if args.input is None or args.input == "-":
        return sys.stdin.read()
    return args.input


def _document(command: str, options: dict, inputs: dict, results: dict) -> dict:
    return {
        "version": VERSION,
        "command": command,
        "options": options,
        "inputs": inputs,
        "results": results,
        "timing": None,
    }


# ------------------------------------------------------------- commands


def cmd_decompose(args) -> dict:
    from .decompose import decompose, render_component

    ideal = textio.parse_ideal_text(_read_input(args))
    ring = ideal.ring
    dec = decompose(ideal, strategy="random", seed=args.seed)
    socle = bass.reducibility_index_by_bass(ideal)
    ass_socle = frozenset(support for support, _, _ in socle.entries)
    ass_colon = bass.ass_by_colon_scan(ideal)
    checks = [
        ["splitting count equals socle sum", dec.count == socle.index],
        [
            "per-prime component multiplicities match socle dimensions",
            dec.counts_by_support() == socle.socle_counts,
        ],
        [
            "associated primes agree across socle scan and colon scan",
            ass_socle == ass_colon,
        ],
    ]
    results = {
        "ir": dec.count,
        "components": [render_component(ring, c) for c in sorted(dec.components)],
        "associated_primes": sorted(bass.render_prime(ring, s) for s in ass_socle),
        "socle": {
            "index": socle.index,
            "per_prime": [
                {
                    "prime": bass.render_prime(ring, support),
                    "dimension": count,
                    "witnesses": [
                        monomial.Monomial(w, ring.subring(support)).render() for w in witnesses
                    ],
                }
                for support, count, witnesses in socle.entries
            ],
        },
        "checks": checks,
        "verdict": all(ok for _, ok in checks),
    }
    return _document(
        "decompose",
        {"seed": args.seed},
        {"ideal": textio.render_ideal_text(ideal)},
        results,
    )


def _serialize_basechange(rep) -> dict:
    return {
        "kind": rep.kind,
        "detail": rep.detail,
        "ir_before": rep.ir_before,
        "ir_after_formula": rep.ir_after_formula,
        "ir_after_direct": rep.ir_after_direct,
        "t_bound": rep.t_bound,
        "faithfully_flat": rep.faithfully_flat,
        "fibers": [
            {"prime": f.prime_label, "mu0": f.mu0, "fiber_index": f.fiber_index}
            for f in rep.fibers
        ],
        "checks": [[name, ok] for name, ok in rep.checks],
        "verdict": rep.passed,
    }


def cmd_basechange(args) -> dict:
    descriptor = textio.parse_change_descriptor(args.change)
    text = _read_input(args)
    if descriptor[0] == "field":
        poly = textio.parse_poly_text(text)
        ext = textio.parse_field_change(args.change, poly.field)
        rep = gfpoly.field_extension_report(poly, ext)
        inputs = {"polynomial": textio.render_poly_text(poly)}
    else:
        ideal = textio.parse_ideal_text(text)
        if descriptor[0] == "extend":
            rep = basechange.extension_report(ideal, descriptor[1])
        else:
            names = descriptor[1]
            index = {name: i for i, name in enumerate(ideal.ring.names)}
            missing = [n for n in names if n not in index]
            if missing:
                raise ParseError(
                    f"cannot invert unknown variable {missing[0]!r}"
                )
            rep = basechange.localization_report(ideal, tuple(index[n] for n in names))
        inputs = {"ideal": textio.render_ideal_text(ideal)}
    inputs["change"] = textio.render_change_descriptor(descriptor)
    return _document("basechange", {"seed": args.seed}, inputs, _serialize_basechange(rep))


def cmd_dual(args) -> dict:
    ideal = textio.parse_ideal_text(_read_input(args))
    rep = staircase.dual_index_report(ideal)
    standard = rep.staircase.sorted_monomials()
    results = {
        "staircase_size": rep.staircase_size,
        "variables": list(ideal.ring.names),
        "standard_monomials": [m.render() for m in standard],
        "standard_exponents": [list(m.exponents) for m in standard],
        "maximal_elements": sorted(
            monomial.Monomial(e, ideal.ring).render() for e in rep.corners
        ),
        "maximal_exponents": sorted(list(e) for e in rep.corners),
        "indices": {
            "decomposition": rep.ir_decomposition,
            "socle_formula": rep.ir_socle_formula,
            "dual_generators": rep.dual_generator_count,
            "min_cover": rep.min_cover,
        },
        "ir": rep.dual_generator_count,
        "completion_note": rep.completion_note,
        "verdict": rep.all_equal,
    }
    return _document(
        "dual", {"seed": args.seed}, {"ideal": textio.render_ideal_text(ideal)}, results
    )


def cmd_abelian(args) -> dict:
    if args.max_order > MAX_ORDER:
        raise ParseError(
            f"--max-order {args.max_order} exceeds the hard ceiling {MAX_ORDER}"
        )
    if args.max_order < 0:
        raise ParseError(f"--max-order {args.max_order} is negative")
    group = textio.parse_group_text(_read_input(args))
    formula = abelian.sum_index_formula(group)
    sec = abelian.secondary_representation(group) if not group.is_trivial else None
    att = sec.attached if sec is not None else ()
    results: dict = {
        "group": group.render(),
        "order": group.order,
        "cyclic_factors": list(group.factors),
        "attached_primes": list(att),
        "ir_prime_formula": formula,
    }
    checks = []
    if group.order <= args.max_order:
        brute = abelian.sum_reducibility_index_bruteforce(group)
        results["bruteforce"] = {
            "index": brute.index,
            "minimum_representation_count": brute.minimum_count,
            "equicardinal": brute.equicardinal,
            "sample_representation": [
                [abelian.render_subgroup(m) for m in rep] for rep in brute.samples[:1]
            ],
        }
        checks.append(["search index equals cyclic-factor count", brute.index == formula])
        checks.append(
            ["all irredundant representations equicardinal", brute.equicardinal]
        )
        checks.append(
            ["index at least the number of attached primes", brute.index >= len(att)]
        )
        char = abelian.characterization_report(group)
        results["characterization"] = {
            "subgroups_checked": char.subgroups_checked,
            "mismatches": len(char.mismatches),
        }
        checks.append(
            [
                "sum-irreducible subgroups are exactly the cyclic prime-power ones",
                char.passed,
            ]
        )
    else:
        results["bruteforce"] = None
        results["characterization"] = None
    if sec is not None:
        results["secondary"] = {
            "direct_sum_ok": sec.direct_sum_ok,
            "parts": [
                {
                    "prime": part.prime,
                    "order": part.mask.bit_count(),
                    "prime_nilpotent": part.prime_nilpotent,
                    "action_split": part.action_split,
                }
                for part in sec.parts
            ],
        }
        checks.append(["primary parts form a secondary representation", sec.passed])
        checks.append(
            [
                "attached primes are the primes dividing the order",
                att == abelian.prime_divisors(group.order),
            ]
        )
    else:
        results["secondary"] = None
    if group.order <= min(args.max_order, abelian.QUOTIENT_SCAN_CAP):
        quo = abelian.quotient_monotonicity_report(group)
        results["quotient_monotonicity"] = {
            "quotients_checked": quo.quotients_checked,
            "max_quotient_index": quo.max_quotient_index,
            "irreducibility_inherited": quo.irreducibility_inherited,
        }
        checks.append(
            [
                "quotients never raise the index and inherit irreducibility",
                quo.passed,
            ]
        )
    else:
        results["quotient_monotonicity"] = None
    results["notes"] = [
        "attached primes of a finite group are pairwise incomparable maximal"
        " ideals, so the embedded-component hypothesis of the quotient"
        " statement holds vacuously here",
    ]
    results["checks"] = checks
    results["verdict"] = all(ok for _, ok in checks)
    return _document(
        "abelian",
        {"seed": args.seed, "max_order": args.max_order},
        {"group": textio.render_group_text(group)},
        results,
    )


def cmd_selftest(args) -> dict:
    report = selftest.run_selftest(scope=args.scope, seed=args.seed)
    results = {
        "suites": [
            {
                "name": r.name,
                "scope": r.scope,
                "mode": r.mode,
                "law": r.law,
                "checks": r.checks,
                "failures": r.failure_count,
                "failure_samples": list(r.failure_samples),
            }
            for r in report.results
        ],
        "total_checks": report.total_checks,
        "documented_untested": list(selftest.DOCUMENTED_UNTESTED),
        "verdict": report.passed,
    }
    return _document(
        "selftest", {"seed": args.seed, "scope": args.scope}, {}, results
    )


# ------------------------------------------------------- human renderer


def _render_checks(lines: list[str], checks) -> None:
    for name, ok in checks:
        lines.append(f"  [{'ok' if ok else 'FAIL'}] {name}")


def _staircase_grid(doc: dict) -> list[str]:
    """Two-variable staircase picture, derived from the document fields.

    '*' marks a maximal standard monomial (a corner), '.' any other
    standard monomial; blank cells lie in the ideal.
    """
    results = doc["results"]
    if len(results["variables"]) != 2:
        return []
    standard = {tuple(e) for e in results["standard_exponents"]}
    corners = {tuple(e) for e in results["maximal_exponents"]}
    if not standard:
        return []
    xmax = max(e[0] for e in standard)
    ymax = max(e[1] for e in standard)
    xname, yname = results["variables"]
    lines = ["staircase grid (corners starred):"]
    label_width = len(f"{yname}^{ymax}")
    for b in range(ymax, -1, -1):
        row = []
        for a in range(xmax + 1):
            cell = "*" if (a, b) in corners else "." if (a, b) in standard else " "
            row.append(cell)
        lines.append(f"  {f'{yname}^{b}':>{label_width}} | " + " ".join(row).rstrip())
    pad = " " * (2 + label_width + 1)
    lines.append(pad + "+" + "-" * (2 * xmax + 2))
    lines.append(pad + "  " + " ".join(str(a) for a in range(xmax + 1)) + f"  ({xname} exponent)")
    return lines


def render_human(doc: dict) -> str:
    lines = [f"redix {doc['command']} (version {doc['version']})"]
    opts = ", ".join(f"{k}={v}" for k, v in sorted(doc["options"].items()))
    if opts:
        lines.append(f"options: {opts}")
    if doc["inputs"]:
        lines.append("input (canonical form):")
        for key, text in doc["inputs"].items():
            for ln in text.splitlines():
                lines.append(f"  {ln}")
    results = doc["results"]
    command = doc["command"]
    lines.append("")
    if command == "decompose":
        lines.append(f"ir = {results['ir']}")
        lines.append(f"irreducible components ({len(results['components'])}):")
        for comp in results["components"]:
            lines.append(f"  {comp}")
        lines.append("associated primes: " + ", ".join(results["associated_primes"]))
        lines.append(f"socle index = {results['socle']['index']}")
        for entry in results["socle"]["per_prime"]:
            lines.append(
                f"  {entry['prime']}: dimension {entry['dimension']},"
                f" witnesses {', '.join(entry['witnesses'])}"
            )
        lines.append("checks:")
        _render_checks(lines, results["checks"])
    elif command == "basechange":
        lines.append(f"change: {results['kind']} ({results['detail']})")
        lines.append(
            f"index {results['ir_before']} -> {results['ir_after_direct']}"
            f" (formula predicts {results['ir_after_formula']},"
            f" flat bound {results['t_bound']})"
        )
        lines.append(
            "faithfully flat: " + ("yes" if results["faithfully_flat"] else "no")
        )
        if results["fibers"]:
            lines.append("fibers:")
            for fiber in results["fibers"]:
                lines.append(
                    f"  {fiber['prime']}: socle multiplicity {fiber['mu0']},"
                    f" fiber index {fiber['fiber_index']}"
                )
        lines.append("checks:")
        _render_checks(lines, results["checks"])
    elif command == "dual":
        lines.append(f"ir' = {results['ir']}  (staircase of {results['staircase_size']} standard monomials)")
        lines.append(
            "maximal standard monomials: "
            + ", ".join(results["maximal_elements"])
        )
        lines.append("index by four routes:")
        for route, value in results["indices"].items():
            lines.append(f"  {route.replace('_', ' ')}: {value}")
        lines.extend(_staircase_grid(doc))
        lines.append(f"note: {results['completion_note']}")
    elif command == "abelian":
        lines.append(f"group {results['group']} of order {results['order']}")
        lines.append(
            "attached primes: "
            + (", ".join(str(p) for p in results["attached_primes"]) or "(none)")
        )
        lines.append(f"ir' by cyclic-factor count = {results['ir_prime_formula']}")
        brute = results["bruteforce"]
        if brute is not None:
            lines.append(
                f"ir' by exhaustive search = {brute['index']}"
                f" (minimum representations: {brute['minimum_representation_count']};"
                " all irredundant ones equicardinal:"
                f" {'yes' if brute['equicardinal'] else 'no'})"
            )
            for rep in brute["sample_representation"]:
                lines.append("  sample representation:")
                for sub in rep:
                    lines.append(f"    {sub}")
        else:
            lines.append("exhaustive search skipped (order above --max-order)")
        sec = results["secondary"]
        if sec is not None:
            lines.append("secondary representation:")
            for part in sec["parts"]:
                lines.append(
                    f"  prime {part['prime']}: part of order {part['order']},"
                    f" nilpotent: {'yes' if part['prime_nilpotent'] else 'no'},"
                    f" complement acts invertibly:"
                    f" {'yes' if part['action_split'] else 'no'}"
                )
        if results["quotient_monotonicity"] is not None:
            quo = results["quotient_monotonicity"]
            lines.append(
                f"quotient scan: {quo['quotients_checked']} quotients,"
                f" max index {quo['max_quotient_index']}"
            )
        else:
            lines.append("quotient scan: skipped (order above the scan cap)")
        for note in results["notes"]:
            lines.append(f"note: {note}")
        lines.append("checks:")
        _render_checks(lines, results["checks"])
    elif command == "selftest":
        for suite in results["suites"]:
            status = "pass" if suite["failures"] == 0 else "FAIL"
            lines.append(
                f"[{status}] {suite['name']} ({suite['scope']}, {suite['mode']}):"
                f" {suite['checks']} checks, {suite['failures']} failures"
            )
            lines.append(f"       law: {suite['law']}")
            for sample in suite["failure_samples"]:
                lines.append(f"       failure: {sample}")
        lines.append(f"total checks: {results['total_checks']}")
        lines.append("documented, untested:")
        for item in results["documented_untested"]:
            lines.append(f"  - {item}")
    if "verdict" in results:
        lines.append("")
        lines.append("verdict: " + ("pass" if results["verdict"] else "FAIL"))
    if doc["timing"] is not None:
        lines.append(f"elapsed: {doc['timing']}s")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------- entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redix",
        description="reducibility indices with independent cross-checks",
    )
    parser.add_argument("--version", action="version", version=f"redix {VERSION}")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (the json document is the source of truth)",
    )
    shared.add_argument("--seed", type=int, default=0, help="seed for randomized parts")
    shared.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock time (breaks byte-identical reports)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "decompose",
        parents=[shared],
        help="irredundant irreducible decomposition of a monomial ideal",
    )
    p.add_argument("input", nargs="?", help="ideal text ('-' or omitted: stdin)")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser(
        "basechange",
        parents=[shared],
        help="index before and after a flat base change",
    )
    p.add_argument("input", nargs="?", help="ideal or polynomial text")
    p.add_argument(
        "change",
        help="descriptor: extend:K, invert:VARS, or field:GF(p)->GF(p^k)",
    )
    p.set_defaults(handler=cmd_basechange)

    p = sub.add_parser(
        "dual",
        parents=[shared],
        help="sum-index of the finite-length dual of a monomial quotient",
    )
    p.add_argument("input", nargs="?", help="ideal text (finite colength)")
    p.set_defaults(handler=cmd_dual)

    p = sub.add_parser(
        "abelian",
        parents=[shared],
        help="sum-index report for a finite abelian group",
    )
    p.add_argument("input", nargs="?", help="group text, e.g. 'group: Z/4 + Z/2'")
    p.add_argument(
        "--max-order",
        type=int,
        default=MAX_ORDER,
        help=f"cap for exhaustive checks (hard ceiling {MAX_ORDER})",
    )
    p.set_defaults(handler=cmd_abelian)

    p = sub.add_parser(
        "selftest",
        parents=[shared],
        help="run the bundled verification suites",
    )
    p.add_argument(
        "--scope",
        default="all",
        help="all, an arena (monomial, basechange, univariate, dual,"
        " abelian), or a suite name",
    )
    p.set_defaults(handler=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        doc = args.handler(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (RedixError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.timing:
        doc["timing"] = round(time.perf_counter() - started, 6)
    try:
        if args.format == "json":
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(render_human(doc), end="")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early, which says nothing about the report; the
        # interpreter flushes stdout again at exit, into the null device now
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if not doc["results"].get("verdict", True):
        print("verification failure: see report", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
