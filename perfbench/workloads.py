"""The benchmark's workloads: their inputs, made from the seed, their
operations, and the checks of each operation's outputs.

An operation is one ``stiefel_sync.cli.main`` call with the arguments a user
would type. A round is every operation of a workload once, in order.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import checks

# horizons and steps changed from the templates' defaults so that a run holds
# several rounds; each still shows what its workload is chosen for (see
# README.md)
PAIR_T_END = 1.0
HOMOGENEOUS = {"integrator.t_end": 10.0, "integrator.h": 0.004}
CIRCLE = {"integrator.t_end": 2.5}
PAIRS = 3


@dataclass
class Op:
    argv: list[str]
    outputs: list[str] = field(default_factory=list)


@dataclass
class Workload:
    """configs: the scenario files that set-up builds; check(op, record)
    returns the failures of one operation's outputs."""

    configs: list[str]
    ops: list[Op]
    check: Callable[[int, dict], list[str]]


def scenario_seeds(seed: int) -> list[int]:
    """Template seeds for one benchmark seed: three for the pair scenarios
    (shared by pair_audit and csv_reaudit), then four for the sweep."""
    return random.Random(seed).sample(range(1, 100_000), PAIRS + 4)


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    from stiefel_sync import cli

    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _gen(template: str, seed: int, overrides: dict, path: str) -> str:
    argv = ["gen", template, "--seed", str(seed), "--out", path]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    code, _, err = cli_call(argv)
    if code != 0:
        raise RuntimeError(f"stiefel-sync {' '.join(argv)} exited {code}: {err.strip()}")
    return path


def _name(config: str) -> str:
    return checks.load_json(config)["name"]


def _scenario_lines_ok(stdout: str, names: list[str]) -> list[str]:
    return [
        f"no 'scenario {name}: ok' line" for name in names if f"scenario {name}: ok" not in stdout
    ]


def _pair_configs(seed: int, work: str) -> list[str]:
    os.makedirs(work, exist_ok=True)
    return [
        _gen(
            "heterogeneous-framework",
            s,
            {"integrator.t_end": PAIR_T_END},
            os.path.join(work, f"framework_hetero_{s}.json"),
        )
        for s in scenario_seeds(seed)[:PAIRS]
    ]


def pair_reference(config: str) -> list[dict]:
    """Reference rows for a pair scenario, from the program's inputs."""
    from stiefel_sync.manifold import perturb_ensemble
    from stiefel_sync.scenario import Scenario

    sc = Scenario.from_file(config)
    partner = perturb_ensemble(sc.initial, sc.perturbation["radius"], sc.perturbation["seed"])
    return checks.reference_pair_rows(
        sc.model, sc.initial, partner, sc.integrator.h, checks.REFERENCE_ROWS
    )


def phase_reference(config: str):
    """Phase-model diameters for a kuramoto-circle scenario."""
    from stiefel_sync.scenario import Scenario

    sc = Scenario.from_file(config)
    theta0 = [math.atan2(s[1, 0], s[0, 0]) for s in sc.initial]
    icfg = sc.integrator
    steps = int(round(icfg.t_end / icfg.h))
    return checks.phase_diameters(theta0, sc.model.kappa, icfg.h, steps, icfg.record_stride)


def pair_audit(seed: int, work: str) -> Workload:
    configs = _pair_configs(seed, work)
    out_dir = os.path.join(work, "out")
    names = [_name(c) for c in configs]
    ops = [
        Op(
            ["run", config, "--out", out_dir],
            [os.path.join(out_dir, f"{name}{suffix}") for suffix in (".csv", "_pair.csv", "_report.json")],
        )
        for config, name in zip(configs, names)
    ]

    def check(index: int, record: dict) -> list[str]:
        failures = [] if record["code"] == 0 else [f"exit code {record['code']}, wanted 0"]
        failures += _scenario_lines_ok(record["out"], [names[index]])
        name = names[index]
        series = checks.load_csv(os.path.join(out_dir, f"{name}_pair.csv"))
        report = checks.load_json(os.path.join(out_dir, f"{name}_report.json"))
        return failures + checks.check_pair_run(series, report, pair_reference(configs[index]))

    return Workload(configs, ops, check)


def sweep(seed: int, work: str) -> Workload:
    seeds = scenario_seeds(seed)[PAIRS:]
    os.makedirs(work, exist_ok=True)
    drift = {"integrator.retraction": "on_drift"}
    specs = [
        ("homogeneous", seeds[0], HOMOGENEOUS),
        ("homogeneous", seeds[1], {**HOMOGENEOUS, **drift}),
        ("kuramoto-circle", seeds[2], CIRCLE),
        ("kuramoto-circle", seeds[3], {**CIRCLE, **drift}),
    ]
    configs = [
        _gen(template, s, overrides, os.path.join(work, f"{template}_{s}.json"))
        for template, s, overrides in specs
    ]
    names = [_name(c) for c in configs]
    out_dir = os.path.join(work, "out")
    ops = [
        Op(
            ["run", config, "--out", out_dir],
            [os.path.join(out_dir, f"{name}{suffix}") for suffix in (".csv", "_report.json")],
        )
        for config, name in zip(configs, names)
    ]

    def check(index: int, record: dict) -> list[str]:
        failures = [] if record["code"] == 0 else [f"exit code {record['code']}, wanted 0"]
        failures += _scenario_lines_ok(record["out"], [names[index]])
        name, config, template = names[index], configs[index], specs[index][0]
        series = checks.load_csv(os.path.join(out_dir, f"{name}.csv"))
        failures += checks.check_descent(series)
        if template == "homogeneous":
            report = checks.load_json(os.path.join(out_dir, f"{name}_report.json"))
            failures += checks.check_consensus(series, report)
        else:
            failures += checks.check_phase_model(series, phase_reference(config))
        return failures

    return Workload(configs, ops, check)


def csv_reaudit(seed: int, work: str) -> Workload:
    configs = _pair_configs(seed, work)
    out_dir = os.path.join(work, "pairs")
    code, _, err = cli_call(["run", *configs, "--out", out_dir])
    if code != 0:
        raise RuntimeError(f"making the pair CSVs exited {code}: {err.strip()}")
    doubled = []
    for config in configs:
        raw = checks.load_json(config)
        raw["kappa"] = 2.0 * raw["kappa"]
        path = config.replace(".json", "_kappa2.json")
        with open(path, "w") as handle:
            json.dump(raw, handle, indent=2, sort_keys=True)
        doubled.append(path)
    names = [_name(c) for c in configs]
    csvs = [os.path.join(out_dir, f"{name}_pair.csv") for name in names]
    ops = []
    for csv_path, own, twice in zip(csvs, configs, doubled):
        ops.append(Op(["audit", csv_path, "--config", own]))
        ops.append(Op(["audit", csv_path, "--config", twice]))

    def check(index: int, record: dict) -> list[str]:
        if index % 2:
            return checks.check_reaudit_doubled(record["out"], record["code"])
        report = checks.load_json(os.path.join(out_dir, f"{names[index // 2]}_report.json"))
        return checks.check_reaudit_own(record["out"], record["code"], report)

    return Workload(configs + doubled, ops, check)


WORKLOADS = {"pair_audit": pair_audit, "sweep": sweep, "csv_reaudit": csv_reaudit}
