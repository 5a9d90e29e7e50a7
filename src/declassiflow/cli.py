"""Command-line front end.

    declassiflow analyze|refine|protect|verify|pipeline <file.mir>
        [--config cfg.toml] [--emit-knowledge] [--emit-frontiers]
        [--protect] [--out report.json] [--window N] [--depth N]
        [--domain LO..HI] [--dump-cfg] [--dump-expanded] [--text]

Exit codes: 0 analyzed/protected, 1 usage error, 2 analysis error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cfg import CfgError
from .ir import IRError, parse_program
from .knowledge import AnalysisError
from .oracle import OracleError
from .pipeline import RunConfig, dump_cfgs, dump_expanded, run_pipeline
from .refine import Constraint, Limits, parse_constraint


def _parse_domain(text: str) -> range:
    lo, _, hi = text.partition("..")
    try:
        domain = range(int(lo), int(hi) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad domain '{text}' (expected LO..HI)")
    if not domain:
        raise argparse.ArgumentTypeError(f"empty domain '{text}' (LO > HI)")
    return domain


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad count '{text}'")
    if value < 1:
        raise argparse.ArgumentTypeError(f"'{text}' is below 1")
    return value


def _read_text(path: str) -> str:
    """The file's text; a decode error names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise AnalysisError(f"{path}: {exc}") from None


def load_config(path: str) -> tuple[Limits, dict[str, list[Constraint]]]:
    """Minimal TOML-like reader: [limits] and [constraints] sections of
    key = value lines, values optionally quoted. Anything else, any value
    that does not parse and a negative cap or budget raise
    AnalysisError("path:line: ..."); an empty domain raises
    AnalysisError("path: ...")."""
    values: dict[str, int] = {}
    constraints: dict[str, list[Constraint]] = {}
    section = None
    for lineno, raw in enumerate(_read_text(path).split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in ("limits", "constraints"):
                    raise AnalysisError(f"unknown section [{section}]")
                continue
            if "=" not in line:
                raise AnalysisError("expected key = value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if len(val) > 1 and val.startswith('"') and val.endswith('"'):
                val = val[1:-1]
            if section == "constraints":
                constraints[key] = [parse_constraint(p.strip())
                                    for p in val.split(";") if p.strip()]
            elif section == "limits" and key == "domain":
                r = _parse_domain(val)
                values.update(domain_min=r.start, domain_max=r.stop - 1)
            elif section == "limits" and key in Limits.__dataclass_fields__:
                values[key] = int(val)
                if not key.startswith("domain_"):
                    Limits(**{key: values[key]})  # a negative cap fails on its line
            else:
                raise AnalysisError(f"unknown key '{key}'"
                                    + (f" in [{section}]" if section else ""))
        except (AnalysisError, ValueError, argparse.ArgumentTypeError) as exc:
            raise AnalysisError(f"{path}:{lineno}: {exc}") from None
    try:
        return Limits(**values), constraints
    except AnalysisError as exc:
        raise AnalysisError(f"{path}: {exc}") from None


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="declassiflow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "refine", "protect", "verify", "pipeline"):
        p = sub.add_parser(name)
        p.add_argument("input", help="mini-IR source file")
        p.add_argument("--config", help="limits and per-function entry constraints")
        p.add_argument("--emit-knowledge", action="store_true")
        p.add_argument("--emit-frontiers", action="store_true")
        p.add_argument("--protect", action="store_true",
                       help="include the protected program in the report")
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--text", action="store_true", help="human-readable summary")
        p.add_argument("--window", type=_positive, default=16)
        p.add_argument("--depth", type=_positive, default=1)
        p.add_argument("--domain", type=_parse_domain, default=range(0, 4),
                       help="verification input domain, e.g. 0..3")
        p.add_argument("--dump-cfg", action="store_true")
        p.add_argument("--dump-expanded", action="store_true")
        p.add_argument("--refine", action="store_true",
                       help="enable the path-sensitive refinement pass")
        p.add_argument("--transmit-nonspec", action="store_true",
                       help="treat explicit transmits as non-speculative")
    return parser


def emit_report(report: dict, fmt: str = "json") -> bytes:
    if fmt == "json":
        return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    lines = [f"entry: {report.get('entry')}"]
    for fn in report.get("functions", []):
        lines.append(f"function {fn['name']}: "
                     f"declassified={fn['fully_declassified']} "
                     f"pseudo={fn['pseudo_transmitter']} phase2={fn['phase2']}")
        for r in fn.get("refinements", []):
            lines.append(f"  region {r['region']} var {r['variable']}: {r['verdict']}")
    for name, blocks in sorted(report.get("barriers", {}).items()):
        lines.append(f"barrier {name}: {', '.join(blocks)}")
    v = report.get("verification")
    if v is not None:
        lines.append(f"verification: {'PASS' if v['passed'] else 'FAIL'} "
                     f"(window {v['window']}, depth {v['depth']})")
        for viol in v.get("violations", []):
            lines.append(f"  violation: {viol['variable']} inputs={viol['inputs']}")
    return ("\n".join(lines) + "\n").encode()


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    try:
        program = parse_program(_read_text(args.input))

        limits, constraints = Limits(), {}
        if args.config:
            limits, constraints = load_config(args.config)

        if args.dump_cfg:
            sys.stdout.write(dump_cfgs(program))
            return 0
        if args.dump_expanded:
            sys.stdout.write(dump_expanded(program))
            return 0

        command = args.command
        config = RunConfig(
            refine=(command in ("refine", "protect", "verify", "pipeline")
                    or args.refine),
            protect=command in ("protect", "verify", "pipeline") or args.protect,
            verify=command in ("verify", "pipeline"),
            emit_knowledge=args.emit_knowledge or command in ("analyze", "pipeline"),
            emit_frontiers=args.emit_frontiers or command == "pipeline",
            limits=limits,
            constraints=constraints,
            window=args.window,
            depth=args.depth,
            verify_domain=args.domain,
            transmit_speculative=not args.transmit_nonspec,
        )
        report = run_pipeline(program, config)
        payload = emit_report(report, "text" if args.text else "json")
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.buffer.write(payload)
        verification = report.get("verification")
        if verification is not None and not verification["passed"]:
            return 3
        return 0
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IRError, CfgError, AnalysisError, OracleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
