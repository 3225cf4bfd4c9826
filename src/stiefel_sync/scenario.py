"""Scenario files: schema validation, deterministic generators for the
bundled templates, experiment execution, and machine-readable reports.
:func:`run_scenario` returns the report as the plain dict it writes as JSON.

A scenario is a single JSON object. Physical parameters (dimensions, kappa,
topology, frequencies, initial data) carry no defaults and must be explicit;
only the numerics (integrator settings, the perturbed partner) default, and
the parser fills every default in, so a run reads each value from the
parsed :class:`Scenario`. An analysis is a name and runs one fixed rule of
:mod:`~stiefel_sync.diagnostics`. See README for the full schema.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from . import diagnostics
from .errors import (
    InsufficientDataError, ProjectionError, ScenarioError, UnsupportedTopologyError, ValidationError
)
from .integrate import IntegratorConfig, Trajectory, integrate
from .manifold import (
    _chunk_rows,
    near_consensus_ensemble,
    perturb_ensemble,
    random_ensemble,
    validate_ensemble,
)
from .model import (
    ModelConfig,
    Topology,
    check_framework,
    common_frequencies,
    coupling_margin_threshold,
    decay_rate_bound,
    diameter_threshold,
    contraction_slack,
    potential,
    random_frequencies,
    random_skew,
    zero_frequencies,
)
from .series_io import BASE_COLUMNS, _replacing, emit_series

ANALYSIS_NAMES = ("framework", "consensus", "decay_fit", "stability", "audits", "cubic")
SEPARABLE_ONLY = ("framework", "decay_fit", "audits", "cubic")
# analyses that integrate a perturbed partner run next to the main run
PAIR_ANALYSES = ("decay_fit", "stability", "audits")

# integer fields must fit an int64, the widest integer numpy takes
_INT64 = np.iinfo(np.int64)


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"expected a number, got {value!r}", field=path)
    # JSON admits NaN, Infinity and integers beyond the float range; NaN
    # fails the comparison
    if not abs(value) <= sys.float_info.max:
        raise ScenarioError(f"expected a finite number, got {value!r}", field=path)
    return float(value)


def _need(raw: Mapping, key: str, kind, where: str = ""):
    path = f"{where}.{key}" if where else key
    if key not in raw:
        raise ScenarioError("required field is missing", field=path)
    value = raw[key]
    if kind is float:
        return _number(value, path)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"expected an integer, got {value!r}", field=path)
        # numpy takes only nonnegative seeds
        low = 0 if key == "seed" else _INT64.min
        if not low <= value <= _INT64.max:
            raise ScenarioError(
                f"expected an integer in [{low}, {_INT64.max}], got {value!r}", field=path
            )
        return value
    if not isinstance(value, kind):
        raise ScenarioError(f"expected {kind.__name__}, got {value!r}", field=path)
    return value


def _optional(raw: Mapping, key: str, kind, default, where: str = ""):
    if key not in raw:
        return default
    return _need(raw, key, kind, where)


def _number_array(raw: Mapping, key: str, shape: tuple, where: str) -> np.ndarray:
    """A list field as a float array of the given shape, every entry a
    finite number."""
    path = f"{where}.{key}"
    entries = np.array(_need(raw, key, list, where), dtype=object)
    if entries.shape != shape:
        raise ScenarioError(f"expected shape {shape}, got {entries.shape}", field=path)
    return np.array([_number(entry, path) for entry in entries.flat]).reshape(shape)


def _validated(build, *args, field: str, context: str = ""):
    """``build(*args)``, with a library error about the input reported
    against the scenario field that supplied it, after ``context``."""
    try:
        return build(*args)
    except (ValidationError, InsufficientDataError, ProjectionError) as exc:
        raise ScenarioError(f"{context}{exc}", field=field) from exc


def _read_file(path, field: str | None = None):
    """The contents of a file from outside the program: a ``.npy`` file as
    its one array, anything else as JSON. A file that cannot be read or
    parsed ends in a :class:`ScenarioError` naming ``field``."""
    try:
        if str(path).endswith(".npy"):
            data = np.load(path)
            if not isinstance(data, np.ndarray):
                data.close()  # an .npz archive holds its file open
                raise ValueError("an .npz archive, not one .npy array")
            return data
        with open(path) as handle:
            return json.load(handle)
    # a JSONDecodeError names its line; RecursionError is JSON nested too deep
    except (OSError, EOFError, ValueError, RecursionError) as exc:
        raise ScenarioError(f"cannot read file: {exc}", field=field) from exc


def _reject_unknown(raw: Mapping, allowed, where: str) -> None:
    for key in raw:
        if key not in allowed:
            raise ScenarioError("unknown field", field=f"{where}.{key}" if where else key)


# ---------------------------------------------------------------------------
# component builders


def build_topology(spec: Mapping, count: int) -> Topology:
    kind = _need(spec, "kind", str, "topology")
    if kind == "separable":
        if "xi" in spec:
            _reject_unknown(spec, {"kind", "xi"}, "topology")
            xi = _number_array(spec, "xi", (count,), "topology")
            return _validated(Topology.separable, xi, field="topology.xi")
        _reject_unknown(spec, {"kind", "center", "spread", "seed"}, "topology")
        center = _need(spec, "center", float, "topology")
        spread = _need(spec, "spread", float, "topology")
        seed = _need(spec, "seed", int, "topology")
        xi = generate_xi(count, center, spread, seed)
        return _validated(Topology.separable, xi, field="topology.center")
    if kind == "general":
        if "weights" in spec:
            _reject_unknown(spec, {"kind", "weights"}, "topology")
            weights = _number_array(spec, "weights", (count, count), "topology")
            return _validated(Topology.general, weights, field="topology.weights")
        _reject_unknown(spec, {"kind", "low", "high", "density", "seed"}, "topology")
        low = _need(spec, "low", float, "topology")
        high = _need(spec, "high", float, "topology")
        density = _optional(spec, "density", float, 1.0, "topology")
        seed = _need(spec, "seed", int, "topology")
        weights = generate_weights(count, low, high, density, seed)
        return _validated(Topology.general, weights, field="topology.high")
    raise ScenarioError(f"unknown topology kind {kind!r}", field="topology.kind")


def generate_xi(count: int, center: float, spread: float, seed: int) -> np.ndarray:
    """Positive factors with min/max pinned to center -+ spread/2, so the
    realized spread equals the request exactly (for count >= 2)."""
    if spread < 0:
        raise ScenarioError("spread must be nonnegative", field="topology.spread")
    if center - spread / 2.0 <= 0:
        raise ScenarioError("center - spread/2 must stay positive", field="topology.spread")
    rng = np.random.default_rng(seed)
    if count == 1 or spread == 0.0:
        return np.full(count, center)
    xi = rng.uniform(0.0, 1.0, size=count)
    xi = (xi - xi.min()) / (xi.max() - xi.min())  # exact 0..1 endpoints
    return center - spread / 2.0 + spread * xi


def generate_weights(count: int, low: float, high: float, density: float, seed: int) -> np.ndarray:
    """Random symmetric nonnegative weights, guaranteed connected by a ring
    of edges kept regardless of density."""
    if not 0 < density <= 1:
        raise ScenarioError("density must be in (0, 1]", field="topology.density")
    if not 0 <= low <= high:
        raise ScenarioError("need 0 <= low <= high", field="topology.low")
    rng = np.random.default_rng(seed)
    w = rng.uniform(low, high, size=(count, count))
    keep = rng.uniform(size=(count, count)) < density
    w = np.where(keep, w, 0.0)
    w = np.triu(w, k=1)
    w = w + w.T
    for i in range(count):  # ring keeps the graph connected
        j = (i + 1) % count
        if count > 1 and w[i, j] == 0.0:
            w[i, j] = w[j, i] = max(low, (low + high) / 2.0)
    return w


def build_frequencies(spec: Mapping, count: int, p: int) -> np.ndarray:
    kind = _need(spec, "kind", str, "frequencies")
    if kind == "zero":
        _reject_unknown(spec, {"kind"}, "frequencies")
        return zero_frequencies(count, p)
    if kind == "common":
        if "skew" in spec:
            _reject_unknown(spec, {"kind", "skew"}, "frequencies")
            skew = _number_array(spec, "skew", (p, p), "frequencies")
            return _validated(common_frequencies, skew, count, field="frequencies.skew")
        _reject_unknown(spec, {"kind", "scale", "seed"}, "frequencies")
        scale = _need(spec, "scale", float, "frequencies")
        seed = _need(spec, "seed", int, "frequencies")
        skew = _validated(random_skew, p, seed, scale, field="frequencies.scale")
        return common_frequencies(skew, count)
    if kind == "random":
        _reject_unknown(spec, {"kind", "spread", "seed"}, "frequencies")
        spread = _need(spec, "spread", float, "frequencies")
        seed = _need(spec, "seed", int, "frequencies")
        return _validated(random_frequencies, count, p, spread, seed, field="frequencies.spread")
    raise ScenarioError(f"unknown frequencies kind {kind!r}", field="frequencies.kind")


def build_initial(spec: Mapping, n: int, p: int, count: int, base_dir: str) -> np.ndarray:
    kind = _need(spec, "kind", str, "initial")
    if kind == "random":
        _reject_unknown(spec, {"kind", "seed"}, "initial")
        return random_ensemble(n, p, count, _need(spec, "seed", int, "initial"))
    if kind == "near_consensus":
        _reject_unknown(spec, {"kind", "radius", "seed"}, "initial")
        radius = _need(spec, "radius", float, "initial")
        if radius <= 0:
            raise ScenarioError("radius must be positive", field="initial.radius")
        seed = _need(spec, "seed", int, "initial")
        return _validated(
            near_consensus_ensemble, n, p, count, radius, seed, field="initial.radius"
        )
    if kind == "file":
        _reject_unknown(spec, {"kind", "path"}, "initial")
        path = _need(spec, "path", str, "initial")
        states = _read_file(os.path.join(base_dir, path), field="initial.path")
        try:
            states = np.asarray(states, dtype=float)
            if states.shape != (count, n, p):
                raise ValidationError(
                    f"states must have shape ({count}, {n}, {p}), got {states.shape}"
                )
            return validate_ensemble(states)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(str(exc), field="initial.path") from exc
    raise ScenarioError(f"unknown initial kind {kind!r}", field="initial.kind")


def build_integrator(spec: Mapping) -> IntegratorConfig:
    _reject_unknown(spec, {"h", "t_end", "retraction", "record_stride"}, "integrator")
    defaults = IntegratorConfig()
    try:
        return IntegratorConfig(
            h=_optional(spec, "h", float, defaults.h, "integrator"),
            t_end=_optional(spec, "t_end", float, defaults.t_end, "integrator"),
            retraction=_optional(spec, "retraction", str, defaults.retraction, "integrator"),
            record_stride=_optional(
                spec, "record_stride", int, defaults.record_stride, "integrator"
            ),
        )
    except ValidationError as exc:
        raise ScenarioError(str(exc), field="integrator") from exc


def _normalize_analyses(raw) -> list[str]:
    """The analyses list as its names, in the order given. An analysis is a
    name and takes no options: an object entry is rejected naming the first
    option it gives an analysis, else as ``analyses[k]``."""
    for k, name in enumerate(raw):
        if isinstance(name, dict) and len(name) == 1:
            ((analysis, options),) = name.items()
            if analysis in ANALYSIS_NAMES and isinstance(options, dict):
                _reject_unknown(options, (), f"analyses.{analysis}")
        if not isinstance(name, str):
            raise ScenarioError("each analysis is a name", field=f"analyses[{k}]")
        if name not in ANALYSIS_NAMES:
            raise ScenarioError(f"unknown analysis {name!r}", field=f"analyses[{k}]")
        if name in raw[:k]:
            raise ScenarioError(f"duplicate analysis {name!r}", field=f"analyses[{k}]")
    return list(raw)


def _check_storage(integrator: IntegratorConfig, count: int, n: int, p: int, pair: bool) -> None:
    """Reject a run whose arrays cannot fit in physical memory: what a
    streamed run holds (see :class:`_RunSeries`), its float64 series
    columns and one recorded chunk of the run and its partner, and the
    N x N weights. Dims that cannot fit one chunk and the weights are
    named, else ``h``."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    runs = 2 if pair else 1
    snapshots = integrator.snapshot_count
    # t, the potential and each run's drift and diameters; a pair adds
    # the gap, its two parts, the l1 and l2 distances and N agent distances
    columns = 2 + 2 * runs + (5 + count if pair else 0)
    snapshot = count * n * p
    # the first chunk integrate records is its longest
    chunk = next(_chunk_rows(snapshots, runs * snapshot)).stop * runs * snapshot
    fixed = 8 * (chunk + count * count)
    need = 8 * snapshots * columns + fixed
    if need <= memory:
        return
    raise ScenarioError(
        f"{runs} run(s) of {snapshots} snapshots of {count} x {n} x {p} float64 hold"
        f" {columns} series columns and one recorded chunk; with the {count} x {count}"
        f" weights that is {need:.3g} bytes, more than the {memory:.3g} bytes of physical memory",
        field="dims" if fixed > memory else "integrator.h",
    )


def _check_analysis_grid(name: str, times: np.ndarray) -> None:
    """Reject an analysis that cannot run on the recorded grid ``times``,
    with the rule the analysis runs, naming the horizon."""
    grid = f" on the recorded grid of {times.shape[0]} snapshots up to t = {times[-1]:g}: "
    field = "integrator.t_end"
    if name == "decay_fit":
        context = f"a decay fit over the trailing half of the span{grid}"
        _validated(diagnostics.fit_window_mask, times, field=field, context=context)
    elif name == "audits":
        context = f"the audits' slopes{grid}"
        _validated(diagnostics.slope_spacing, times, field=field, context=context)


# ---------------------------------------------------------------------------
# the scenario object


@dataclass
class Scenario:
    """Validated scenario: built model objects, every numeric setting with
    its defaults filled in, and the names of the analyses in the order
    given."""

    name: str
    model: ModelConfig
    initial: np.ndarray
    integrator: IntegratorConfig
    analyses: list[str]
    perturbation: dict
    expect: dict

    @classmethod
    def from_dict(cls, raw: Mapping, base_dir: str = ".") -> "Scenario":
        _reject_unknown(
            raw,
            {
                "name",
                "dims",
                "kappa",
                "topology",
                "frequencies",
                "initial",
                "integrator",
                "perturbation",
                "analyses",
                "expect",
            },
            "",
        )
        name = _need(raw, "name", str)
        if not name or not all(c.isalnum() or c in "_-" for c in name):
            raise ScenarioError(
                "name must be nonempty and use only letters, digits, '_', '-'", field="name"
            )
        dims = _need(raw, "dims", dict)
        _reject_unknown(dims, {"n", "p", "N"}, "dims")
        n = _need(dims, "n", int, "dims")
        p = _need(dims, "p", int, "dims")
        count = _need(dims, "N", int, "dims")
        if count < 1 or not 1 <= p <= n:
            raise ScenarioError(f"need N >= 1 and 1 <= p <= n, got N={count}, p={p}, n={n}", field="dims")
        integrator = build_integrator(_optional(raw, "integrator", dict, {}))
        analyses = _normalize_analyses(_optional(raw, "analyses", list, []))
        # before anything of the run's size is allocated, the grid included
        _check_storage(integrator, count, n, p, any(a in PAIR_ANALYSES for a in analyses))
        times = integrator.recorded_steps() * integrator.h
        for analysis in analyses:
            _check_analysis_grid(analysis, times)
        kappa = _need(raw, "kappa", float)
        if kappa < 0:
            raise ScenarioError("kappa must be nonnegative", field="kappa")
        topology = build_topology(_need(raw, "topology", dict), count)
        freqs = build_frequencies(_need(raw, "frequencies", dict), count, p)
        try:
            model = ModelConfig(kappa=kappa, topology=topology, freqs=freqs, n=n, p=p)
        except (ValidationError, ValueError) as exc:
            raise ScenarioError(str(exc)) from exc
        initial = build_initial(_need(raw, "initial", dict), n, p, count, base_dir)
        for analysis in SEPARABLE_ONLY:
            if analysis in analyses and topology.kind != "separable":
                raise ScenarioError(
                    f"analysis {analysis!r} needs a separable topology", field="analyses"
                )
        spec = _optional(raw, "perturbation", dict, {})
        _reject_unknown(spec, {"radius", "seed"}, "perturbation")
        perturbation = {
            "radius": _optional(spec, "radius", float, 1e-3, "perturbation"),
            "seed": _optional(spec, "seed", int, 1000003, "perturbation"),
        }
        if perturbation["radius"] <= 0:
            raise ScenarioError("radius must be positive", field="perturbation.radius")
        expect = _optional(raw, "expect", dict, {})
        _reject_unknown(expect, {"consensus", "framework"}, "expect")
        if "consensus" in expect and expect["consensus"] not in ("complete", "partial", "none"):
            raise ScenarioError(
                "expected one of complete/partial/none", field="expect.consensus"
            )
        if "framework" in expect and not isinstance(expect["framework"], bool):
            raise ScenarioError("expected a boolean", field="expect.framework")
        if "framework" in expect and "framework" not in analyses:
            raise ScenarioError(
                "framework expectation needs the framework analysis", field="expect.framework"
            )
        if "consensus" in expect and "consensus" not in analyses:
            raise ScenarioError(
                "consensus expectation needs the consensus analysis", field="expect.consensus"
            )
        return cls(
            name=name,
            model=model,
            initial=initial,
            integrator=integrator,
            analyses=analyses,
            perturbation=perturbation,
            expect=dict(expect),
        )

    @classmethod
    def from_file(cls, path) -> "Scenario":
        raw = _read_file(path)
        if not isinstance(raw, dict):
            raise ScenarioError("scenario file must hold a JSON object")
        return cls.from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))

    @property
    def needs_pair(self) -> bool:
        return any(a in self.analyses for a in PAIR_ANALYSES)


# ---------------------------------------------------------------------------
# execution


def _framework_to_dict(report, traj) -> dict:
    """The framework entry: the four conditions at t = 0 and, when they all
    hold, whether every recorded diameter stays below the threshold they
    bound it by (``None`` otherwise)."""
    below = (
        bool(np.all(traj.diameters < report.initial_diameter.rhs)) if report.satisfied else None
    )
    return {
        "satisfied": report.satisfied,
        "delta_lower": report.delta_lower,
        "diameter_stays_below": below,
        "conditions": [
            {
                "name": c.name,
                "lhs": c.lhs,
                "rhs": c.rhs,
                "margin": c.margin,
                "satisfied": c.satisfied,
            }
            for c in report.conditions()
        ],
    }


def _audit_to_dict(audit) -> dict:
    return {
        "name": audit.name,
        "max_violation": audit.max_violation,
        "tol": audit.tol,
        "passed": audit.passed,
    }


class _RunSeries:
    """The sink a scenario run hands to ``integrate``: what the run keeps
    of its recorded chunks. Of each chunk it takes the main run's potential
    and, for a pair, the pair series (``diagnostics._PairSeries``), and it
    copies the main run's last state, so that after the last chunk
    ``final`` holds the state ``consensus_status`` classifies. Nothing else
    of a chunk outlives the call. So a run holds its series columns and one
    chunk, not its trajectory."""

    def __init__(self, sc: Scenario):
        total = sc.integrator.snapshot_count
        self.topology = sc.model.topology
        self.potential = np.empty(total)
        count = self.topology.agent_count
        self.pair = diagnostics._PairSeries(total, count) if sc.needs_pair else None
        self.final = None

    def __call__(self, rows: slice, chunk: Trajectory) -> None:
        run, *partner = chunk.members()
        self.potential[rows] = potential(run.states, self.topology)
        if self.pair is not None:
            self.pair.add(rows, run, partner[0])
        # integrate overwrites the chunk's buffer with the next chunk
        self.final = run.states[-1].copy()


def run_scenario(source, out_dir: str = ".") -> dict:
    """Execute a scenario file (or a prebuilt :class:`Scenario`): integrate,
    run every requested analysis, and write the series CSVs and report JSON
    into ``out_dir``, each through a temporary file that replaces it once
    complete. Returns the report dict as written, with the report file's
    own path appended to ``artifacts``.

    Raises :class:`ScenarioError` on config problems and
    :class:`DivergenceError` when the integration blows up. Analysis
    failures (audit violations, unmet expectations) do not raise; they are
    recorded in the report and reflected in ``ok``.
    """
    sc = source if isinstance(source, Scenario) else Scenario.from_file(source)
    os.makedirs(out_dir, exist_ok=True)

    initials = [sc.initial]
    if sc.needs_pair:
        radius, seed = sc.perturbation["radius"], sc.perturbation["seed"]
        initials.append(
            _validated(perturb_ensemble, sc.initial, radius, seed, field="perturbation.radius")
        )
    series = _RunSeries(sc)
    # the main run and its perturbed partner, if any, step as one batch,
    # and each recorded chunk of both goes to the series
    members = integrate(np.stack(initials), sc.model, sc.integrator, sink=series).members()
    traj = members[0]
    pair = series.pair.columns(traj, members[1]) if sc.needs_pair else None

    framework_dict = None
    if "framework" in sc.analyses:
        framework_dict = _framework_to_dict(check_framework(sc.model, sc.initial), traj)

    cubic_dict = None
    if "cubic" in sc.analyses:
        cubic_dict = dataclasses.asdict(diagnostics.cubic_analysis(sc.model))
        # a list, as the report file reads back
        cubic_dict["roots_in_range"] = list(cubic_dict["roots_in_range"])

    consensus_dict = None
    if "consensus" in sc.analyses:
        # classified after the loop, not in the sink, so that it is a phase
        # of its own
        status = diagnostics.consensus_status(series.final, sc.model)
        consensus_dict = {
            "kind": status.kind,
            "max_identity_gap": status.max_identity_gap,
            "max_rate": status.max_rate,
            "rate_tol": status.rate_tol,
            "tol": diagnostics.CONSENSUS_TOL,
        }

    decay_dict = None
    if "decay_fit" in sc.analyses:
        rate, r_squared = diagnostics.fit_decay_rate(pair["t"], pair["diam_A"])
        slack_sup = float(
            np.max(contraction_slack(sc.model, pair["diam_S"], pair["diam_S_tilde"]))
        )
        decay_dict = {
            "rate": rate,
            "r_squared": r_squared,
            "delta_lower": decay_rate_bound(sc.model, slack_sup),
            "fit_window": list(diagnostics.decay_fit_window(pair["t"])),
        }

    audit_dicts = None
    if "audits" in sc.analyses:
        audit_dicts = [_audit_to_dict(a) for a in diagnostics.audit_series(pair, sc.model)]

    gain_dict = None
    if "stability" in sc.analyses:
        gain_dict = {
            str(p_exp): diagnostics.stability_gain(pair, p_exp)
            for p_exp in diagnostics.GAIN_EXPONENTS
        }

    artifacts = []
    base_csv = os.path.join(out_dir, f"{sc.name}.csv")
    emit_series(traj, {"V": series.potential}, base_csv)
    artifacts.append(base_csv)
    if pair is not None:
        pair_csv = os.path.join(out_dir, f"{sc.name}_pair.csv")
        extra = {name: values for name, values in pair.items() if name not in BASE_COLUMNS}
        emit_series(traj, extra, pair_csv)
        artifacts.append(pair_csv)

    expectations = []
    if "consensus" in sc.expect:
        wanted = sc.expect["consensus"]
        got = consensus_dict["kind"] if consensus_dict else "missing"
        expectations.append(
            {"name": "consensus", "ok": got == wanted, "detail": f"wanted {wanted}, got {got}"}
        )
    if "framework" in sc.expect:
        wanted = sc.expect["framework"]
        got = framework_dict["satisfied"] if framework_dict else None
        expectations.append(
            {"name": "framework", "ok": got == wanted, "detail": f"wanted {wanted}, got {got}"}
        )

    ok = all(e["ok"] for e in expectations) and (
        audit_dicts is None or all(a["passed"] for a in audit_dicts)
    )
    report = {
        "scenario": sc.name,
        "framework": framework_dict,
        "cubic": cubic_dict,
        "consensus": consensus_dict,
        "decay": decay_dict,
        "gain": gain_dict,
        "audits": audit_dicts,
        "artifacts": artifacts,
        "expectations": expectations,
        "ok": ok,
    }
    report_path = os.path.join(out_dir, f"{sc.name}_report.json")
    with _replacing(report_path) as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    artifacts.append(report_path)
    return report


# ---------------------------------------------------------------------------
# template generation


def _apply_overrides(params: dict, overrides: Mapping[str, Any]) -> None:
    for dotted, value in overrides.items():
        node = params
        parts = dotted.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value


def parse_override_value(text: str):
    """Interpret an override value: JSON literal if it parses, raw string
    otherwise (so --set name=run7 works without quoting)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def generate_scenario(
    template: str,
    seed: int,
    overrides: Mapping[str, Any] | None = None,
    out_path: str | None = None,
) -> str:
    """Write a scenario file for one of the bundled templates and return its
    path. Overrides use dotted keys (``dims.n``, ``integrator.t_end``, ...).

    The overridden template is parsed first, so a bad override is reported
    against its field. The solved templates then solve for the coupling
    strength with a 10% margin in the frequency condition and pick an
    initial radius well inside the diameter threshold; explicit ``kappa`` or
    ``initial.radius`` overrides suppress the solving. Generation fails with
    :class:`ScenarioError` when the requested parameters cannot satisfy the
    template's contract (for solved templates, the sufficient conditions
    checked on the generated initial data).
    """
    overrides = dict(overrides or {})
    if template not in _TEMPLATES:
        raise ScenarioError(f"unknown template {template!r}; choose from {TEMPLATES}")
    build = _TEMPLATES[template]
    params = build(seed)
    _apply_overrides(params, overrides)
    scenario = Scenario.from_dict(params)
    if build in _SOLVED:
        # the second parse reads the solved values; a library error on them
        # is reported against the field the solve wrote
        try:
            _solve_framework_parameters(params, overrides, scenario.model)
            scenario = Scenario.from_dict(params)
            report = check_framework(scenario.model, scenario.initial)
        except UnsupportedTopologyError as exc:
            raise ScenarioError(str(exc), field="topology") from exc
        except ValidationError as exc:
            raise ScenarioError(str(exc), field="kappa") from exc
        if not report.satisfied:
            failing = [c.name for c in report.conditions() if not c.satisfied]
            raise ScenarioError(
                "generation cannot satisfy the sufficient conditions "
                f"with these overrides (failing: {', '.join(failing)})"
            )

    if out_path is None:
        out_path = f"{scenario.name}.json"
    with open(out_path, "w") as handle:
        json.dump(params, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return out_path


def _solve_framework_parameters(params: dict, overrides: Mapping, model: ModelConfig) -> None:
    """Fill kappa (10% margin in the frequency condition) and the initial
    radius of a near-consensus start (35% of the diameter threshold) unless
    explicitly overridden. ``model`` is the parsed template's; the margin
    and the frequency spread do not read its kappa."""
    if "kappa" not in overrides:
        margin = coupling_margin_threshold(model)
        if margin <= 0:
            message = "weight spread leaves no coupling margin; reduce topology.spread"
            raise ScenarioError(message, field="topology")
        spread = model.freq_spread
        params["kappa"] = round(2.0 / margin if spread == 0.0 else spread / (0.9 * margin), 6)
    # of the starts, only a near-consensus one parses with a radius
    if "radius" in params["initial"] and "initial.radius" not in overrides:
        bound = diameter_threshold(dataclasses.replace(model, kappa=float(params["kappa"])))
        if bound <= 0:
            raise ScenarioError("diameter threshold is not positive; increase kappa", field="kappa")
        params["initial"]["radius"] = round(0.35 * bound, 9)


def _template_homogeneous(seed: int) -> dict:
    count = 6
    return {
        "name": f"homogeneous_{seed}",
        "dims": {"n": 4, "p": 2, "N": count},
        "kappa": 2.0,
        "topology": {"kind": "separable", "xi": [1.0] * count},
        "frequencies": {"kind": "common", "scale": 0.5, "seed": seed},
        "initial": {"kind": "near_consensus", "radius": 0.45, "seed": seed + 1},
        "integrator": {"h": 0.002, "t_end": 30.0, "record_stride": 10},
        "analyses": ["consensus"],
        "expect": {"consensus": "complete"},
    }


def _template_heterogeneous_framework(seed: int) -> dict:
    return {
        "name": f"framework_hetero_{seed}",
        "dims": {"n": 6, "p": 2, "N": 8},
        "kappa": 0.0,  # solved during generation, as is the initial radius
        "topology": {"kind": "separable", "center": 1.0, "spread": 0.02, "seed": seed},
        "frequencies": {"kind": "random", "spread": 0.02, "seed": seed + 1},
        "initial": {"kind": "near_consensus", "radius": 0.1, "seed": seed + 2},
        "integrator": {"h": 0.001, "t_end": 10.0, "record_stride": 1},
        "perturbation": {"radius": 0.001, "seed": seed + 3},
        "analyses": ["framework", "cubic", "consensus", "decay_fit", "audits"],
        "expect": {"framework": True},
    }


def _template_stability_pair(seed: int) -> dict:
    return {
        "name": f"stability_pair_{seed}",
        "dims": {"n": 5, "p": 2, "N": 6},
        "kappa": 0.0,  # solved during generation, as is the initial radius
        "topology": {"kind": "separable", "center": 1.0, "spread": 0.02, "seed": seed},
        "frequencies": {"kind": "common", "scale": 0.4, "seed": seed + 1},
        "initial": {"kind": "near_consensus", "radius": 0.1, "seed": seed + 2},
        "integrator": {"h": 0.002, "t_end": 50.0, "record_stride": 10},
        "perturbation": {"radius": 0.002, "seed": seed + 3},
        "analyses": ["framework", "stability"],
        "expect": {"framework": True},
    }


def _template_kuramoto_circle(seed: int) -> dict:
    count = 3
    return {
        "name": f"kuramoto_circle_{seed}",
        "dims": {"n": 2, "p": 1, "N": count},
        "kappa": 1.5,
        "topology": {"kind": "separable", "xi": [1.0] * count},
        "frequencies": {"kind": "zero"},
        "initial": {"kind": "random", "seed": seed},
        "integrator": {"h": 0.001, "t_end": 10.0, "record_stride": 10},
        "analyses": ["consensus"],
    }


_TEMPLATES = {
    "homogeneous": _template_homogeneous,
    "heterogeneous-framework": _template_heterogeneous_framework,
    "stability-pair": _template_stability_pair,
    "kuramoto-circle": _template_kuramoto_circle,
}
TEMPLATES = tuple(_TEMPLATES)
# templates whose kappa and initial radius generation solves for
_SOLVED = {_template_heterogeneous_framework, _template_stability_pair}
