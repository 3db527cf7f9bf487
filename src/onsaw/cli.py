"""Command-line front end: verification suites and extraction.

Every command prints a deterministic report (text or JSON, schema 1) and
exits 0 iff all checks pass.  Reports are byte-identical across runs
apart from elapsed_ms.  Extracted Askey-Wilson tables are re-certified
against the reflection relation they were extracted from.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import askey_wilson as aw
from . import charges as ch
from . import frt
from . import onsager as on
from . import rmatrix as rm
from .report import Report


def _merge(command: str, params: dict, reports: list) -> Report:
    out = Report(command, params)
    for r in reports:
        out.checks.extend(r.checks)
    return out


def _positive(name):
    def conv(value):
        v = int(value)
        if v < 1:
            raise argparse.ArgumentTypeError(f"{name} must be >= 1")
        return v
    return conv


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")

    p = argparse.ArgumentParser(
        prog="onsaw",
        description="Exact verification of affine sl_N r-matrix and Onsager/Askey-Wilson identities",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    vs = v.add_subparsers(dest="suite", required=True)

    for name in ("cybe", "ns-cybe", "skew"):
        q = vs.add_parser(name, parents=[common])
        q.add_argument("--n", type=_positive("n"), required=True)

    q = vs.add_parser("automorphism", parents=[common])
    q.add_argument("--which", choices=("theta1", "theta2"), required=True)
    q.add_argument("--n", type=_positive("n"), required=True)
    q.add_argument("--levels", type=_positive("levels"), required=True)
    q.add_argument("--epsilon", choices=("+1", "-1", "sym"), default="sym")
    q.add_argument("--cutoff", type=_positive("cutoff"), default=4,
                   help="series cutoff for the matrix-form comparison")

    q = vs.add_parser("frt", parents=[common])
    q.add_argument("--n", type=_positive("n"), required=True)
    q.add_argument("--cutoff", type=_positive("cutoff"), required=True)

    q = vs.add_parser("onsager", parents=[common])
    q.add_argument("--n", type=_positive("n"), required=True)
    q.add_argument("--levels", type=_positive("levels"), required=True)

    q = vs.add_parser("reflection", parents=[common])
    q.add_argument("--n", type=_positive("n"), required=True)
    q.add_argument("--cutoff", type=_positive("cutoff"), required=True)

    q = vs.add_parser("currents", parents=[common])
    q.add_argument("--n", type=_positive("n"), required=True)
    q.add_argument("--cutoff", type=_positive("cutoff"), required=True)

    q = vs.add_parser("charges", parents=[common])
    q.add_argument("--n", type=_positive("n"), required=True)
    q.add_argument("--max-order", type=_positive("max-order"), required=True)

    q = vs.add_parser("aw", parents=[common])
    q.add_argument("--n", type=int, choices=(3, 4), required=True)

    e = sub.add_parser("extract", help="extract structure constants")
    es = e.add_subparsers(dest="target", required=True)
    q = es.add_parser("aw", parents=[common])
    q.add_argument("--n", type=_positive("n"), required=True)
    q.add_argument("--out", required=True)

    c = sub.add_parser("charges", help="charge tables")
    cs = c.add_subparsers(dest="action", required=True)
    q = cs.add_parser("print", parents=[common])
    q.add_argument("--n", type=_positive("n"), required=True)
    q.add_argument("--max-order", type=_positive("max-order"), required=True)
    return p


def _epsilon_arg(text: str):
    return None if text == "sym" else int(text)


def dispatch(args) -> tuple:
    """Returns (Report, extra_payload or None)."""
    if args.command == "verify":
        suite = args.suite
        if suite == "cybe":
            return rm.check_cybe(args.n), None
        if suite == "ns-cybe":
            return rm.check_ns_cybe(args.n), None
        if suite == "skew":
            return rm.check_skew(args.n), None
        if suite == "automorphism":
            eps = _epsilon_arg(args.epsilon)
            reports = [
                frt.check_automorphism(args.which, args.n, args.levels, eps),
                frt.check_theta_matrix_form(args.which, args.n, args.cutoff, eps),
            ]
            return _merge("verify automorphism", {
                "which": args.which, "n": args.n, "levels": args.levels,
                "epsilon": args.epsilon, "cutoff": args.cutoff,
            }, reports), None
        if suite == "frt":
            return frt.check_frt(args.n, args.cutoff), None
        if suite == "onsager":
            reports = [
                on.check_presentation_agreement(args.n, args.levels),
                on.check_UI_relations(args.n, min(args.levels, 2)),
            ]
            if args.n >= 3:
                reports.append(on.check_OAn_presentation(args.n))
            return _merge("verify onsager", {"n": args.n, "levels": args.levels}, reports), None
        if suite == "reflection":
            reports = [
                on.check_reflection(args.n, args.cutoff),
                on.check_Bxg(args.n, args.cutoff),
            ]
            return _merge("verify reflection", {"n": args.n, "cutoff": args.cutoff}, reports), None
        if suite == "currents":
            return on.check_currents(args.n, args.cutoff), None
        if suite == "charges":
            return ch.check_charges(args.n, args.max_order), None
        if suite == "aw":
            return aw.check_aw(args.n), None
        raise SystemExit(f"unknown suite {suite!r}")
    if args.command == "extract":
        table, report = aw.extract_structure_constants(args.n)
        payload = None
        if table is not None:
            payload = (args.out, aw.export_table(table))
            report.extend(aw.check_reflection_aw(table, aw.build_B(table)))
            if args.n in (3, 4):
                reference = aw.aw3_table() if args.n == 3 else aw.aw4_table()
                report.extend(aw.match_tables(table, reference))
        return report, payload
    if args.command == "charges":
        charges = ch.extract_charges(args.n, args.max_order)
        report = Report("charges print", {"n": args.n, "max_order": args.max_order})
        for c in charges:
            report.add(f"I_{c.order} = {c.value}", True)
        return report, None
    raise SystemExit(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        report, payload = dispatch(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    if payload is not None:
        path, data = payload
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=False)
            fh.write("\n")
        report.add(f"table written to {path}", True)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.ok() else 1


if __name__ == "__main__":
    sys.exit(main())
