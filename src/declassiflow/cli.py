"""Command-line front end.

    declassiflow analyze|refine|protect|verify|pipeline <file.mir>
        [--config cfg.toml] [--emit-knowledge] [--emit-frontiers]
        [--protect] [--out report.json] [--window N] [--depth N]
        [--domain LO..HI] [--dump-cfg] [--dump-expanded] [--text]

Exit codes: 0 analyzed/protected, 1 usage error, 2 analysis error,
3 verification failure.

The JSON report's bytes are exactly json.dumps(report, indent=2,
sort_keys=True) + "\n". Equal knowledge lists in the report dict may be one
shared object, so callers treat the dict as read-only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .cfg import CfgError
from .ir import IRError, parse_program
from .knowledge import AnalysisError
from .oracle import OracleError
from .pipeline import RunConfig, check_constraints, dump_cfgs, dump_expanded, run_pipeline
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


def _verify_domain(text: str) -> range:
    """--domain: a LO..HI domain whose bounds Limits accepts (signed 32 bits)."""
    domain = _parse_domain(text)
    try:
        Limits(domain_min=domain.start, domain_max=domain.stop - 1)
    except AnalysisError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
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
    key = value lines, values optionally quoted. Anything else, a key
    repeated in its section, a domain bound set twice, any value that does
    not parse and a negative cap or budget raise AnalysisError("path:line:
    ..."); an empty domain raises AnalysisError("path: ...")."""
    values: dict[str, int] = {}
    constraints: dict[str, list[Constraint]] = {}
    seen: dict[tuple[str | None, str], str] = {}  # (section, field) -> the key that set it
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
            # domain sets both bounds, so it clashes with either domain_* key
            both = (section, key) == ("limits", "domain")
            for bound in ("domain_min", "domain_max") if both else (key,):
                if (earlier := seen.get((section, bound))) is not None:
                    raise AnalysisError(f"duplicate key '{key}'" if earlier == key
                                        else f"'{key}' sets a bound that '{earlier}' set")
                seen[section, bound] = key
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
        p.add_argument("--domain", type=_verify_domain, default=range(0, 4),
                       help="verification input domain, e.g. 0..3")
        p.add_argument("--dump-cfg", action="store_true")
        p.add_argument("--dump-expanded", action="store_true")
        p.add_argument("--transmit-nonspec", action="store_true",
                       help="treat explicit transmits as non-speculative")
    return parser


_quote = json.encoder.encode_basestring_ascii
_SCALARS = {int: int.__repr__, bool: lambda v: "true" if v else "false", type(None): lambda v: "null",
            float: lambda v: float.__repr__(v) if math.isfinite(v) else json.dumps(v)}


def _write(v, out: list[str], pad: str, memo: dict) -> None:
    """Append v as json.dumps(v, indent=2, sort_keys=True) writes it, nested
    at indent pad, to out. A list of strings is encoded once per object and
    indent: the report shares one knowledge list among equal masks."""
    if isinstance(v, str):
        out.append(_quote(v))
    elif isinstance(v, dict):
        if not v:
            return out.append("{}")
        inner = pad + "  "
        sep = "{\n" + inner
        for k, x in sorted(v.items()):
            out += (sep, _quote(k), ": ")
            _write(x, out, inner, memo)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(v, (list, tuple)):
        if not v:
            return out.append("[]")
        key, inner = (id(v), pad), pad + "  "
        if key not in memo and all(type(x) is str for x in v):
            memo[key] = "[\n" + inner + (",\n" + inner).join(map(_quote, v)) + "\n" + pad + "]"
        if key in memo:
            return out.append(memo[key])
        sep = "[\n" + inner
        for x in v:
            out.append(sep)
            _write(x, out, inner, memo)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    else:  # other scalars as json.dumps writes them, or its TypeError
        out.append(_SCALARS[type(v)](v) if type(v) in _SCALARS else json.dumps(v))


def emit_report(report: dict, fmt: str = "json") -> bytes:
    if fmt == "json":
        out: list[str] = []
        _write(report, out, "", {})
        out.append("\n")
        return "".join(out).encode()
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

        if args.dump_cfg or args.dump_expanded:
            check_constraints(program, constraints)
            sys.stdout.write(dump_cfgs(program) if args.dump_cfg else dump_expanded(program))
            return 0

        command = args.command
        config = RunConfig(
            refine=command in ("refine", "protect", "verify", "pipeline"),
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
        return 3 if verification is not None and not verification["passed"] else 0
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IRError, CfgError, AnalysisError, OracleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
