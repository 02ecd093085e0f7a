"""Command-line entry point: ``python -m iwarpcheck [check|coverage]``.

Exit codes match iwarplint's contract: 0 clean, 1 findings, 2
configuration or usage errors (unknown machine, unreadable records
file, malformed waiver manifest).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.fsm import Fsm

from iwarpcheck.explore import check_machine
from iwarpcheck.model import Finding, machines_by_name
from iwarpcheck.product import check_product, rc_product
from iwarpcheck.sanitizer import (
    RecordsError,
    WaiverError,
    coverage_findings,
    coverage_summary,
    load_records,
    load_waivers,
)

DEFAULT_WAIVERS = Path(__file__).resolve().parent / "waivers.txt"

PRODUCT_COMPONENTS = ("QP", "MPA", "TCP")


def _build_parser(machine_names: Sequence[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iwarpcheck",
        description="Explicit-state model checking for the datagram-iWARP FSMs.",
    )
    sub = parser.add_subparsers(dest="command")

    check = sub.add_parser(
        "check",
        help="model-check the four machines and the RC product machine",
    )
    check.add_argument(
        "--machine",
        action="append",
        metavar="NAME",
        help=f"restrict to one machine (repeatable; one of {', '.join(machine_names)})",
    )

    coverage = sub.add_parser(
        "coverage",
        help="gate a runtime transition recording against the declared tables",
    )
    coverage.add_argument("records", help="recording written by the test-suite sanitizer")
    coverage.add_argument(
        "--waivers",
        default=str(DEFAULT_WAIVERS),
        metavar="FILE",
        help="waiver manifest (default: tools/iwarpcheck/waivers.txt)",
    )

    for sub_parser in (check, coverage):
        sub_parser.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="report format on stdout (default: text)",
        )
        sub_parser.add_argument(
            "--output",
            metavar="FILE",
            help="also write the JSON report to FILE",
        )
    return parser


def _report(
    mode: str,
    findings: List[Finding],
    args: argparse.Namespace,
    extra: Optional[Dict[str, object]] = None,
) -> int:
    payload: Dict[str, object] = {
        "tool": "iwarpcheck",
        "mode": mode,
        "count": len(findings),
        "findings": [finding.to_dict() for finding in findings],
    }
    if extra:
        payload.update(extra)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())
    if findings:
        print(f"iwarpcheck: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"iwarpcheck: {mode} clean", file=sys.stderr)
    return 0


def _run_check(args: argparse.Namespace, by_name: Dict[str, Fsm]) -> int:
    selected = list(by_name)
    if args.machine:
        selected = []
        for name in args.machine:
            if name not in by_name:
                print(
                    f"iwarpcheck: unknown machine {name!r} "
                    f"(expected one of {', '.join(by_name)})",
                    file=sys.stderr,
                )
                return 2
            selected.append(name)

    findings: List[Finding] = []
    checked: List[str] = []
    for name in selected:
        findings.extend(check_machine(by_name[name]))
        checked.append(name)
    if all(component in selected for component in PRODUCT_COMPONENTS):
        findings.extend(check_product(rc_product(by_name)))
        checked.append("RC-PRODUCT")
    return _report("check", findings, args, extra={"machines": checked})


def _run_coverage(args: argparse.Namespace, by_name: Dict[str, Fsm]) -> int:
    machines = list(by_name.values())
    try:
        records = load_records(args.records)
        waivers = load_waivers(args.waivers)
    except (RecordsError, WaiverError, OSError) as exc:
        print(f"iwarpcheck: {exc}", file=sys.stderr)
        return 2
    findings = coverage_findings(records, machines, waivers)
    summary = coverage_summary(records, machines, waivers)
    for name, stats in sorted(summary.items()):
        print(
            f"iwarpcheck: {name}: {stats['covered']}/{stats['declared']} "
            f"transitions covered, {stats['waived']} waived",
            file=sys.stderr,
        )
    return _report("coverage", findings, args, extra={"summary": summary})


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or (
        argv[0] not in ("check", "coverage") and argv[0] not in ("-h", "--help")
    ):
        argv.insert(0, "check")
    by_name = machines_by_name()
    args = _build_parser(list(by_name)).parse_args(argv)
    if args.command == "coverage":
        return _run_coverage(args, by_name)
    return _run_check(args, by_name)


if __name__ == "__main__":
    sys.exit(main())
