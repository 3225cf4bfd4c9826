"""Command-line experiment runner.

Subcommands:
    run <config.json> [...] [--out DIR]   execute scenarios, one after
                                          another in the order given
    gen <template> --seed K [--set k=v]   write a scenario file
    audit <traj.csv> --config <cfg.json>  re-check the inequality audits on
                                          an emitted series file

Exit codes: 0 success; 2 scenario parse/validation error; 3 integration
divergence; 4 audit violation; 5 declared expectation unmet; 1 anything else.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__, diagnostics
from .errors import DivergenceError, ScenarioError, StiefelSyncError, ValidationError
from .scenario import (
    Scenario,
    TEMPLATES,
    generate_scenario,
    parse_override_value,
    run_scenario,
)
from .series_io import read_series

__all__ = [
    "main",
    "build_parser",
    "run_scenario",
    "generate_scenario",
    "read_series",
    "Scenario",
]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SCENARIO = 2
EXIT_DIVERGENCE = 3
EXIT_AUDIT = 4
EXIT_EXPECTATION = 5


def _resolve_config(path: str) -> str:
    """A plain name that is not a file on disk falls back to the bundled
    scenario of that name."""
    if os.path.exists(path):
        return path
    candidate = os.path.join(os.path.dirname(__file__), "scenarios", f"{path}.json")
    if os.path.exists(candidate):
        return candidate
    raise ScenarioError(f"scenario not found: {path!r} (no such file or bundled name)")


def _report_exit_code(report: dict) -> int:
    if report["audits"] is not None and not all(a["passed"] for a in report["audits"]):
        return EXIT_AUDIT
    if any(not e["ok"] for e in report["expectations"]):
        return EXIT_EXPECTATION
    return EXIT_OK


def _audit_line(name: str, max_violation: float, tol: float, passed: bool) -> str:
    verdict = "pass" if passed else "FAIL"
    return f"audit {name}: max_violation={max_violation:.3e} tol={tol:.3e} {verdict}"


def _print_report(report: dict, out) -> None:
    print(f"scenario {report['scenario']}: {'ok' if report['ok'] else 'FAILED'}", file=out)
    if report["framework"] is not None:
        flags = ", ".join(
            f"{c['name']}={'ok' if c['satisfied'] else 'FAIL'}"
            for c in report["framework"]["conditions"]
        )
        print(f"  framework: {flags}", file=out)
    if report["consensus"] is not None:
        print(f"  consensus: {report['consensus']['kind']}", file=out)
    decay = report["decay"]
    if decay is not None:
        print(
            f"  decay: rate={decay['rate']:.6g} r2={decay['r_squared']:.6f}"
            f" bound={decay['delta_lower']:.6g}",
            file=out,
        )
    if report["gain"] is not None:
        gains = ", ".join(f"l{p}={g:.6g}" for p, g in sorted(report["gain"].items()))
        print(f"  gain: {gains}", file=out)
    if report["audits"] is not None:
        for audit in report["audits"]:
            print(f"  {_audit_line(**audit)}", file=out)
    for expectation in report["expectations"]:
        verdict = "ok" if expectation["ok"] else "UNMET"
        print(f"  expect {expectation['name']}: {verdict} ({expectation['detail']})", file=out)
    for artifact in report["artifacts"]:
        print(f"  wrote {artifact}", file=out)


def _cmd_run(args, out, err) -> int:
    paths = [_resolve_config(c) for c in args.configs]
    worst = EXIT_OK
    for path in paths:
        try:
            report = run_scenario(path, out_dir=args.out)
        except ScenarioError as exc:
            code, error = EXIT_SCENARIO, exc
        except DivergenceError as exc:
            code, error = EXIT_DIVERGENCE, exc
        except (StiefelSyncError, OSError) as exc:
            code, error = EXIT_ERROR, exc
        else:
            code, error = _report_exit_code(report), None
            _print_report(report, out)
        if error is not None:
            print(f"error in {path}: {error}", file=err)
        worst = max(worst, code)
    return worst


def _cmd_gen(args, out, err) -> int:
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ScenarioError(f"--set needs key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key] = parse_override_value(value)
    path = generate_scenario(args.template, args.seed, overrides, args.out)
    print(f"wrote {path}", file=out)
    return EXIT_OK


def _cmd_audit(args, out, err) -> int:
    try:
        scenario = Scenario.from_file(_resolve_config(args.config))
        series = read_series(args.series)
        if "t" not in series:
            raise ValidationError(f"{args.series}: series lacks the 't' column")
        # the run writes its recorded grid bit for bit, so a file cut at a
        # row boundary, or one of a run at another stride or step, parses
        # but holds another grid; it is named before any audit reads it
        times = scenario.integrator.recorded_steps() * scenario.integrator.h
        if not np.array_equal(series["t"], times):
            raise ValidationError(
                f"{args.series}: its t column ({series['t'].size} rows up to"
                f" t = {series['t'][-1]:.17g}) is not the scenario's recorded grid"
                f" ({times.size} snapshots up to its horizon t = {times[-1]:.17g}):"
                " a truncated file or another run"
            )
        audits = diagnostics.audit_series(series, scenario.model)
    except (StiefelSyncError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_SCENARIO

    for audit in audits:
        print(_audit_line(audit.name, audit.max_violation, audit.tol, audit.passed), file=out)
    return EXIT_OK if all(audit.passed for audit in audits) else EXIT_AUDIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stiefel-sync",
        description="Simulate and verify consensus dynamics on Stiefel manifolds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one or more scenario files")
    run_p.add_argument("configs", nargs="+", help="scenario paths or bundled names")
    run_p.add_argument("--out", default=".", help="output directory (default: cwd)")

    gen_p = sub.add_parser("gen", help="generate a scenario from a template")
    gen_p.add_argument("template", choices=TEMPLATES)
    gen_p.add_argument("--seed", type=int, required=True)
    gen_p.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help="override a field (dotted path)"
    )
    gen_p.add_argument("--out", default=None, help="output file (default: <name>.json)")

    audit_p = sub.add_parser("audit", help="re-run inequality audits on an emitted CSV")
    audit_p.add_argument("series", help="trajectory/diagnostics CSV")
    audit_p.add_argument("--config", required=True, help="scenario path or bundled name")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call: parsing
    leaves nothing in it, so one serves every call of a process."""
    return build_parser()


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, out, err)
        if args.command == "gen":
            return _cmd_gen(args, out, err)
        if args.command == "audit":
            return _cmd_audit(args, out, err)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ScenarioError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_SCENARIO
    except (StiefelSyncError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
