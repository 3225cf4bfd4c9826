"""Scenario schema, template generation, run orchestration, CSV round-trip,
and the command-line interface."""

import copy
import errno
import importlib
import io
import json
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from stiefel_sync.cli import (
    EXIT_AUDIT,
    EXIT_DIVERGENCE,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_SCENARIO,
    main,
)
from stiefel_sync import cli, diagnostics, series_io
from stiefel_sync import scenario as scenario_module
from stiefel_sync.errors import InsufficientDataError, ScenarioError, ValidationError
from stiefel_sync.integrate import IntegratorConfig, Trajectory, integrate
from stiefel_sync.manifold import perturb_ensemble, random_ensemble
from stiefel_sync.model import ModelConfig, Topology, zero_frequencies
from stiefel_sync.scenario import (
    ANALYSIS_NAMES,
    Scenario,
    generate_scenario,
    generate_xi,
    run_scenario,
)
from stiefel_sync.series_io import emit_series, read_series
from stiefel_sync.tolerances import NEWTON_SCHULZ_DEFECT

from conftest import savetxt_series

BUNDLED = os.path.join(os.path.dirname(__file__), "..", "src", "stiefel_sync", "scenarios")


def minimal_scenario(tmp_path, **overrides):
    raw = {
        "name": "tiny",
        "dims": {"n": 3, "p": 1, "N": 3},
        "kappa": 1.5,
        "topology": {"kind": "separable", "xi": [1.0, 1.0, 1.0]},
        "frequencies": {"kind": "zero"},
        "initial": {"kind": "near_consensus", "radius": 0.2, "seed": 1},
        "integrator": {"h": 0.002, "t_end": 6.0, "record_stride": 5},
        "analyses": ["consensus"],
    }
    raw.update(overrides)
    path = tmp_path / f"{raw.get('name', 'tiny')}.json"
    path.write_text(json.dumps(raw))
    return str(path)


NAN, INF = float("nan"), float("inf")
SEPARABLE = {"kind": "separable", "center": 1.0, "spread": 0.2, "seed": 1}
GENERAL = {"kind": "general", "low": 0.5, "high": 1.0, "seed": 1}
PLANES = {"n": 3, "p": 2, "N": 3}  # p = 2, so frequencies are not all zero
SOLIDS = {"n": 6, "p": 3, "N": 3}

# one non-finite number per scenario field read as a float, with the rest of
# the scenario set up so that the field is read and, if let through, used;
# JSON writes these as NaN, Infinity and a 401-digit integer
NON_FINITE_FIELDS = {
    "initial.radius": {"initial": {"kind": "near_consensus", "radius": NAN, "seed": 1}},
    "perturbation.radius": {"perturbation": {"radius": NAN}, "analyses": ["stability"]},
    "topology.center": {"topology": {**SEPARABLE, "center": INF}},
    "topology.spread": {"topology": {**SEPARABLE, "spread": NAN}},
    "topology.low": {"topology": {**GENERAL, "low": NAN}},
    "topology.high": {"topology": {**GENERAL, "high": INF}},
    "topology.density": {"topology": {**GENERAL, "density": NAN}},
    "frequencies.scale": {
        "dims": PLANES, "frequencies": {"kind": "common", "scale": NAN, "seed": 1}
    },
    "frequencies.spread": {
        "dims": PLANES, "frequencies": {"kind": "random", "spread": INF, "seed": 1}
    },
    "kappa": {"kappa": 10 ** 400},
    "integrator.t_end": {"integrator": {"h": 0.002, "t_end": -(10 ** 400)}},
}



# one integer per scenario field read as an integer that numpy cannot take:
# a negative seed, or a value beyond int64; the rest of the scenario is set
# up so that the field is read
BAD_INTEGER_FIELDS = {
    "topology-seed-negative": ("topology.seed", {"topology": {**SEPARABLE, "seed": -1}}),
    "frequencies-seed-negative": (
        "frequencies.seed",
        {"dims": PLANES, "frequencies": {"kind": "common", "scale": 0.5, "seed": -1}},
    ),
    "initial-seed-negative": ("initial.seed", {"initial": {"kind": "random", "seed": -1}}),
    "initial-seed-beyond-int64": (
        "initial.seed", {"initial": {"kind": "random", "seed": 2 ** 63}}
    ),
    "perturbation-seed-negative": (
        "perturbation.seed", {"perturbation": {"seed": -1}, "analyses": ["stability"]}
    ),
    "record_stride-huge": (
        "integrator.record_stride",
        {"integrator": {"h": 0.002, "t_end": 6.0, "record_stride": 10 ** 400}},
    ),
    "dims-n-huge": ("dims.n", {"dims": {"n": 10 ** 400, "p": 1, "N": 3}}),
    "dims-N-huge": ("dims.N", {"dims": {"n": 3, "p": 1, "N": 10 ** 400}, "topology": SEPARABLE}),
}


def near_consensus_radius(radius):
    return {"initial": {"kind": "near_consensus", "radius": radius, "seed": 1}}


# finite numbers whose use overflows: retracting agents displaced by the
# radius, or symmetrizing the generated weights
OVERFLOWING_FIELDS = {
    "initial-radius-1e200": ("initial.radius", near_consensus_radius(1e200)),
    "initial-radius-1e308": ("initial.radius", near_consensus_radius(1e308)),
    "perturbation-radius-1e200": (
        "perturbation.radius", {"perturbation": {"radius": 1e200}, "analyses": ["stability"]}
    ),
    "perturbation-radius-1e308": (
        "perturbation.radius", {"perturbation": {"radius": 1e308}, "analyses": ["stability"]}
    ),
    # with three columns a^T a overflows to NaN, which eigh does not take
    "initial-radius-1e200-three-columns": (
        "initial.radius", {"dims": SOLIDS, **near_consensus_radius(1e200)}
    ),
    "perturbation-radius-1e200-three-columns": (
        "perturbation.radius",
        {"dims": SOLIDS, "perturbation": {"radius": 1e200}, "analyses": ["stability"]},
    ),
    # the one point of S^0 has no tangent but zero
    "perturbation-radius-points-of-s0": (
        "perturbation.radius",
        {
            "dims": {"n": 1, "p": 1, "N": 3},
            "initial": {"kind": "random", "seed": 1},
            "analyses": ["stability"],
        },
    ),
    "topology-high-1e308": ("topology.high", {"topology": {**GENERAL, "high": 1e308}}),
    # the separable weights overflow, or underflow to a disconnected graph
    "topology-center-1e300": ("topology.center", {"topology": {**SEPARABLE, "center": 1e300}}),
    "topology-center-1e-300": (
        "topology.center", {"topology": {**SEPARABLE, "center": 1e-300, "spread": 0.0}}
    ),
    "topology-xi-1e300": (
        "topology.xi", {"topology": {"kind": "separable", "xi": [1.0, 1e300, 1.0]}}
    ),
    # the generators are finite, their distances overflow
    "frequencies-spread-1e300": (
        "frequencies.spread",
        {"dims": PLANES, "frequencies": {"kind": "random", "spread": 1e300, "seed": 1}},
    ),
    # x + x^T and ||x|| both overflow: the skew test is scaled
    "frequencies-skew-symmetric-1e308": (
        "frequencies.skew",
        {"dims": PLANES, "frequencies": {"kind": "common", "skew": [[0, 1e308], [1e308, 0]]}},
    ),
    # the generated generator's rescaling to its norm overflows
    "frequencies-scale-1e308": (
        "frequencies.scale",
        {"dims": PLANES, "frequencies": {"kind": "common", "scale": 1e308, "seed": 1}},
    ),
}


# one negative spread or scale per generated component, with the rest of
# the scenario set up so that the field is read
NEGATIVE_FIELDS = {
    "topology.spread": {"topology": {**SEPARABLE, "spread": -0.2}},
    "frequencies.scale": {
        "dims": PLANES, "frequencies": {"kind": "common", "scale": -0.5, "seed": 1}
    },
    "frequencies.spread": {
        "dims": PLANES, "frequencies": {"kind": "random", "spread": -0.1, "seed": 1}
    },
}


def xi_case(entry):
    return {"topology": {"kind": "separable", "xi": [1.0, entry, 1.0]}}


def weights_case(entry):
    return {"topology": {"kind": "general", "weights": [[0, 1, entry], [1, 0, 1], [entry, 1, 0]]}}


def skew_case(upper, lower):
    return {"dims": PLANES, "frequencies": {"kind": "common", "skew": [[0, upper], [lower, 0]]}}


# one bad entry per list field of a scenario; each field is checked entry by
# entry in the parser, then by the library object built from it
BAD_LIST_FIELDS = {
    "xi-nan": ("topology.xi", xi_case(NAN)),
    "xi-inf": ("topology.xi", xi_case(INF)),
    "xi-negative": ("topology.xi", xi_case(-1.0)),
    "xi-string": ("topology.xi", xi_case("1.0")),
    "weights-nan": ("topology.weights", weights_case(NAN)),
    "weights-inf": ("topology.weights", weights_case(INF)),
    "weights-negative": ("topology.weights", weights_case(-0.5)),
    "weights-string": ("topology.weights", weights_case("x")),
    "skew-nan": ("frequencies.skew", skew_case(NAN, -0.3)),
    "skew-inf": ("frequencies.skew", skew_case(0.3, -INF)),
    "skew-not-skew": ("frequencies.skew", skew_case(0.3, 0.3)),
}

class TestScenarioParsing:
    def test_missing_kappa_names_field(self, tmp_path):
        path = tmp_path / "bad.json"
        raw = json.loads(Path(minimal_scenario(tmp_path)).read_text())
        del raw["kappa"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ScenarioError) as err:
            Scenario.from_file(path)
        assert err.value.field == "kappa"

    def test_unknown_field_rejected(self, tmp_path):
        path = minimal_scenario(tmp_path)
        raw = json.loads(Path(path).read_text())
        raw["kapa"] = 1.0
        Path(path).write_text(json.dumps(raw))
        with pytest.raises(ScenarioError) as err:
            Scenario.from_file(path)
        assert "kapa" in str(err.value)

    def test_xi_length_mismatch(self, tmp_path):
        path = minimal_scenario(tmp_path, topology={"kind": "separable", "xi": [1.0, 1.0]})
        with pytest.raises(ScenarioError) as err:
            Scenario.from_file(path)
        assert err.value.field == "topology.xi"

    def test_generated_xi_spans_exactly_the_spread(self):
        xi = generate_xi(5, 1.0, 0.5, 3)
        assert (xi.min(), xi.max()) == (0.75, 1.25)
        with pytest.raises(ScenarioError, match="spread must be nonnegative") as err:
            generate_xi(5, 1.0, -0.5, 3)
        assert err.value.field == "topology.spread"

    def test_json_nested_too_deep_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        with pytest.raises(ScenarioError, match="cannot read file"):
            Scenario.from_file(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "dims": }')
        with pytest.raises(ScenarioError) as err:
            Scenario.from_file(path)
        assert "line 2" in str(err.value)

    def test_separable_only_analyses_rejected_on_general(self, tmp_path):
        path = minimal_scenario(
            tmp_path,
            topology={"kind": "general", "weights": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]},
            analyses=["audits"],
        )
        with pytest.raises(ScenarioError) as err:
            Scenario.from_file(path)
        assert "separable" in str(err.value)

    def test_expectation_requires_matching_analysis(self, tmp_path):
        path = minimal_scenario(tmp_path, analyses=[], expect={"consensus": "complete"})
        with pytest.raises(ScenarioError):
            Scenario.from_file(path)

    def test_explicit_state_file(self, tmp_path):
        states = random_ensemble(3, 1, 3, seed=2)
        np.save(tmp_path / "init.npy", states)
        path = minimal_scenario(tmp_path, initial={"kind": "file", "path": "init.npy"})
        scenario = Scenario.from_file(path)
        assert np.array_equal(scenario.initial, states)

    def test_weights_matrix_accepted(self, tmp_path):
        path = minimal_scenario(
            tmp_path,
            topology={"kind": "general", "weights": [[0, 1, 0.5], [1, 0, 1], [0.5, 1, 0]]},
        )
        scenario = Scenario.from_file(path)
        assert scenario.model.topology.kind == "general"


class TestResolvedDefaults:
    def test_parser_fills_every_default(self, tmp_path):
        path = minimal_scenario(tmp_path, analyses=["stability", "consensus", "decay_fit"])
        scenario = Scenario.from_file(path)
        # analyses are their names, in the order given
        assert scenario.analyses == ["stability", "consensus", "decay_fit"]
        assert scenario.perturbation == {"radius": 1e-3, "seed": 1000003}

    @pytest.mark.parametrize("h, t_end, stride", [(0.002, 6.0, 5), (0.003, 1.0, 1), (0.1, 0.7, 3)])
    def test_window_is_a_fifth_of_the_recorded_span(self, tmp_path, h, t_end, stride):
        path = minimal_scenario(
            tmp_path, integrator={"h": h, "t_end": t_end, "record_stride": stride}
        )
        scenario = Scenario.from_file(path)
        times = integrate(scenario.initial, scenario.model, scenario.integrator).times
        span = float(times[-1] - times[0])
        report = run_scenario(path, out_dir=str(tmp_path))
        assert report["consensus"]["window"] == 0.2 * span
        assert report["consensus"]["tol"] == diagnostics.CONSENSUS_TOL

    def test_fixed_rules_reported(self, tmp_path):
        # the decay fit runs on the trailing half of the span and the
        # stability analysis reports the l1, l2 and l4 gains
        path = minimal_scenario(tmp_path, analyses=["decay_fit", "stability"])
        report = run_scenario(path, out_dir=str(tmp_path))
        assert report["decay"]["fit_window"] == [3.0, 6.0]
        assert list(report["gain"]) == ["1.0", "2.0", "4.0"]
        columns = read_series(tmp_path / "tiny_pair.csv")
        for key, gain in report["gain"].items():
            assert gain == diagnostics.stability_gain(columns, float(key))


def scalar_leaves(node, path=()):
    """Key paths of every scalar in a JSON value, list entries included."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in children for leaf in scalar_leaves(child, path + (key,))]


def load_bundled() -> dict:
    scenarios = {}
    for entry in sorted(os.listdir(BUNDLED)):
        with open(os.path.join(BUNDLED, entry)) as handle:
            scenarios[entry.removesuffix(".json")] = json.load(handle)
    return scenarios


BUNDLED_RAW = load_bundled()

# each scalar leaf of each bundled scenario is set to each of these in turn;
# a huge integer must be rejected by the parser, before anything is sized by it
FUZZ_VALUES = {
    "nan": NAN, "inf": INF, "-inf": -INF, "str": "1.0", "neg": -1, "zero": 0, "huge": 10 ** 400,
}
FUZZ_CASES = [
    pytest.param(name, leaf, value, id=f"{name}:{'.'.join(map(str, leaf))}={label}")
    for name, raw in BUNDLED_RAW.items()
    for leaf in scalar_leaves(raw)
    for label, value in FUZZ_VALUES.items()
]


@pytest.mark.parametrize("name, leaf, value", FUZZ_CASES)
def test_mutated_bundled_leaf_parses_or_names_its_field(name, leaf, value):
    raw = copy.deepcopy(BUNDLED_RAW[name])
    node = raw
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    try:
        Scenario.from_dict(raw)
    except ScenarioError as exc:
        assert exc.field
    # any other exception fails the test


# the bundled scenarios each template regenerates byte for byte, as
# (template, seed, scenario name)
REGENERATED = [
    ("heterogeneous-framework", 11, "framework_hetero"),
    ("stability-pair", 5, "stability_pair"),
    ("homogeneous", 7, "homogeneous_complete"),
    ("kuramoto-circle", 3, "kuramoto_circle"),
]
# the templates that solve kappa and the initial radius, by the bundled
# scenario each regenerates; the scenario has the template's keys
SOLVED = {"heterogeneous-framework": "framework_hetero", "stability-pair": "stability_pair"}


def object_keys(node, path=()):
    """Key paths of every object in a JSON value below the top level."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return []
    paths = [path] if isinstance(node, dict) and path else []
    return paths + [key for k, child in children for key in object_keys(child, path + (k,))]


def mutation_override(raw: dict, path: tuple, value) -> dict:
    """The ``--set`` override that puts ``value`` at ``path``: a dotted key
    down to the first list on the path, which is then set whole."""
    keys = []
    for key in path:
        if isinstance(key, int):
            whole = copy.deepcopy(raw)
            node = whole
            for part in path[:-1]:
                node = node[part]
            node[path[-1]] = value
            for part in keys:
                whole = whole[part]
            return {".".join(keys): whole}
        keys.append(key)
    return {".".join(keys): value}


GEN_FUZZ_CASES = [
    pytest.param(template, leaf, value, id=f"{template}:{'.'.join(map(str, leaf))}={label}")
    for template, name in SOLVED.items()
    for leaf, label, value in [
        (leaf, label, value)
        for leaf in scalar_leaves(BUNDLED_RAW[name])
        for label, value in FUZZ_VALUES.items()
    ] + [(key, "3", 3) for key in object_keys(BUNDLED_RAW[name])]
]


@pytest.mark.parametrize("template, leaf, value", GEN_FUZZ_CASES)
def test_mutated_solved_template_generates_or_raises_scenario_error(
    tmp_path, template, leaf, value
):
    overrides = mutation_override(BUNDLED_RAW[SOLVED[template]], leaf, value)
    out = str(tmp_path / "gen.json")
    try:
        generate_scenario(template, 1, overrides, out)
    except ScenarioError:
        assert not os.path.exists(out)
    else:
        Scenario.from_file(out)
    # any other exception fails the test


class TestGeneration:
    def test_deterministic_bytes(self, tmp_path):
        a = generate_scenario("homogeneous", 7, {}, str(tmp_path / "a.json"))
        b = generate_scenario("homogeneous", 7, {}, str(tmp_path / "b.json"))
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_framework_template_satisfies_conditions(self, tmp_path):
        from stiefel_sync.model import check_framework

        path = generate_scenario(
            "heterogeneous-framework", 21, {}, str(tmp_path / "fw.json")
        )
        scenario = Scenario.from_file(path)
        assert check_framework(scenario.model, scenario.initial).satisfied

    def test_override_applies(self, tmp_path):
        path = generate_scenario(
            "homogeneous", 3, {"dims.n": 5, "kappa": 3.5}, str(tmp_path / "o.json")
        )
        raw = json.loads(Path(path).read_text())
        assert raw["dims"]["n"] == 5
        assert raw["kappa"] == 3.5

    def test_unsatisfiable_override_is_generation_error(self, tmp_path):
        # a huge weight spread breaks the spread condition regardless of kappa
        with pytest.raises(ScenarioError):
            generate_scenario(
                "heterogeneous-framework",
                4,
                {"topology.spread": 0.9},
                str(tmp_path / "x.json"),
            )

    @pytest.mark.parametrize("template, seed, name", REGENERATED, ids=[r[2] for r in REGENERATED])
    def test_regenerates_bundled_scenario_bytes(self, tmp_path, template, seed, name):
        out = str(tmp_path / f"{name}.json")
        argv = ["gen", template, "--seed", str(seed), "--set", f"name={name}", "--out", out]
        assert main(argv, out=io.StringIO(), err=io.StringIO()) == EXIT_OK
        assert Path(out).read_bytes() == Path(BUNDLED, f"{name}.json").read_bytes()

    @pytest.mark.parametrize(
        "setting, field",
        [
            ("dims.N=0", "dims"),
            ("dims=3", "dims"),
            ("topology=3", "topology"),
            ("frequencies=3", "frequencies"),
            ("initial=3", "initial"),
            ("kappa=abc", "kappa"),
            ("kappa=null", "kappa"),
            ("dims.N=100000000", "dims"),
            ("kappa=-1", "kappa"),
            ("kappa=0", "kappa"),
            ("frequencies.spread=1e300", "frequencies.spread"),
        ],
    )
    @pytest.mark.parametrize("template", SOLVED)
    def test_bad_override_of_solved_template_exit_code(self, tmp_path, template, setting, field):
        # the overridden template is parsed before kappa and the radius are
        # solved on it
        out, err = io.StringIO(), io.StringIO()
        target = tmp_path / "x.json"
        argv = ["gen", template, "--seed", "1", "--set", setting, "--out", str(target)]
        code = main(argv, out=out, err=err)
        assert code == EXIT_SCENARIO
        assert out.getvalue() == ""
        assert "Traceback" not in err.getvalue()
        assert f"{field}: " in err.getvalue()
        assert not target.exists()

    def test_set_without_value_exit_code(self, tmp_path):
        err = io.StringIO()
        code = main(["gen", "homogeneous", "--seed", "1", "--set", "kappa"], out=err, err=err)
        assert code == EXIT_SCENARIO
        assert err.getvalue() == "error: --set needs key=value, got 'kappa'\n"

    def test_unknown_template(self, tmp_path):
        with pytest.raises(ScenarioError):
            generate_scenario("mystery", 0, {}, str(tmp_path / "m.json"))


class TestSeriesIO:
    def make_traj(self):
        cfg = ModelConfig(
            kappa=1.0,
            topology=Topology.separable(np.ones(2)),
            freqs=zero_frequencies(2, 1),
            n=3,
            p=1,
        )
        init = random_ensemble(3, 1, 2, seed=3)
        return integrate(init, cfg, IntegratorConfig(h=1e-2, t_end=0.5, record_stride=5))

    def test_round_trip_bitwise(self, tmp_path):
        traj = self.make_traj()
        rng = np.random.default_rng(4)
        extra = {"V": rng.uniform(size=traj.times.shape) * 1e-7}
        path = tmp_path / "series.csv"
        emit_series(traj, extra, path)
        back = read_series(path)
        assert list(back) == ["t", "drift", "diam_S", "V"]
        assert np.array_equal(back["t"], traj.times)
        assert np.array_equal(back["drift"], traj.drift)
        assert np.array_equal(back["diam_S"], traj.diameters)
        assert np.array_equal(back["V"], extra["V"])

    @staticmethod
    def series_of(rows: int):
        """A trajectory of ``rows`` snapshots with one extra column; the
        values include -0.0, the least subnormal, 1e308 and 1e-17."""
        rng = np.random.default_rng(rows)
        table = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-30, 30, (rows, 4))
        specials = np.array([-0.0, 5e-324, 1e308, 1e-17])
        table.flat[: min(table.size, 16)] = np.resize(specials, min(table.size, 16))
        traj = Trajectory(
            times=np.arange(rows) * 0.1,
            states=np.empty((rows, 1, 1, 1)),
            drift=table[:, 0],
            diameters=table[:, 1],
        )
        return traj, {"V": table[:, 2], "W": table[:, 3]}

    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 1001])
    def test_bytes_are_savetxt_bytes(self, tmp_path, rows):
        traj, extra = self.series_of(rows)
        emit_series(traj, extra, tmp_path / "blocks.csv")
        columns = {"t": traj.times, "drift": traj.drift, "diam_S": traj.diameters, **extra}
        savetxt_series(columns, tmp_path / "savetxt.csv")
        written = (tmp_path / "blocks.csv").read_bytes()
        assert written == (tmp_path / "savetxt.csv").read_bytes()
        assert written.count(b"\n") == rows + 1
        back = read_series(tmp_path / "blocks.csv")
        assert list(back) == list(columns)
        for name, values in columns.items():
            assert np.array_equal(back[name], values)
            assert np.array_equal(np.signbit(back[name]), np.signbit(values))

    def test_read_opens_the_file_once(self, tmp_path, monkeypatch):
        traj = self.make_traj()
        path = tmp_path / "series.csv"
        emit_series(traj, {}, path)
        opened = []

        def counted_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(series_io, "open", counted_open, raising=False)
        back = read_series(path)
        assert opened == [path]
        assert np.array_equal(back["t"], traj.times)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValidationError, match="no newline after the last row"):
            read_series(path)
        assert opened == [path, path]

    def test_empty_trajectory_guard(self, tmp_path):
        traj = self.make_traj()
        empty = type(traj)(
            times=np.empty(0),
            states=np.empty((0, 2, 3, 1)),
            drift=np.empty(0),
            diameters=np.empty(0),
        )
        target = tmp_path / "never.csv"
        with pytest.raises(ValidationError):
            emit_series(empty, {}, target)
        assert not target.exists()

    def test_misaligned_column_rejected_without_partial_file(self, tmp_path):
        traj = self.make_traj()
        target = tmp_path / "never.csv"
        with pytest.raises(Exception):
            emit_series(traj, {"V": np.ones(3)}, target)
        assert not target.exists()

    @pytest.mark.parametrize("column", ["t", "drift", "V", "W"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_column_rejected_without_partial_file(self, tmp_path, column, value):
        # read_series would reject the file, so it is not written; a file
        # already at the target is left as it was
        traj, extra = self.series_of(5)
        columns = {"t": traj.times, "drift": traj.drift, "diam_S": traj.diameters, **extra}
        columns[column] = columns[column].copy()
        columns[column][3] = value
        traj = Trajectory(columns["t"], traj.states, columns["drift"], columns["diam_S"])
        target = tmp_path / "kept.csv"
        target.write_text("earlier\n")
        with pytest.raises(ValidationError, match=f"column '{column}' holds .* at data row 4"):
            emit_series(traj, {"V": columns["V"], "W": columns["W"]}, target)
        assert target.read_text() == "earlier\n"
        assert os.listdir(tmp_path) == ["kept.csv"]


# how often each series is computed in one run of each bundled scenario,
# counted where the scenario and diagnostics modules bind them, as the
# benchmark's tracer wraps them: the potential once a run and the
# correlation gap series once a pair, each snapshot once (they are called
# once per recorded chunk, so they count the snapshots they are given, in
# runs), consensus detection once a consensus analysis, and the slack once
# for the decay fit's bound (scenario) and once for the correlation audit
# (diagnostics)
SERIES_CALLS = {
    "framework_hetero": (1, 1, 1, 1, 1),
    "homogeneous_complete": (1, 0, 0, 1, 0),
    "kuramoto_circle": (1, 0, 0, 1, 0),
    "stability_pair": (1, 0, 1, 0, 0),
}
# (module, name, whether the calls count the snapshots of their first
# argument)
COUNTED_SERIES = [
    ("stiefel_sync.scenario", "potential", True),
    ("stiefel_sync.scenario", "contraction_slack", False),
    ("stiefel_sync.diagnostics", "correlation_gap_series", True),
    ("stiefel_sync.diagnostics", "consensus_status", False),
    ("stiefel_sync.diagnostics", "contraction_slack", False),
]


class TestRunScenario:
    @pytest.mark.parametrize("name", SERIES_CALLS)
    def test_each_series_is_computed_once(self, monkeypatch, tmp_path, name):
        calls = [0] * len(COUNTED_SERIES)

        def counted(index, fn, snapshots):
            def wrapper(*args, **kwargs):
                calls[index] += len(args[0]) if snapshots else 1
                return fn(*args, **kwargs)

            return wrapper

        for index, (module_name, attr, snapshots) in enumerate(COUNTED_SERIES):
            module = importlib.import_module(module_name)
            monkeypatch.setattr(module, attr, counted(index, getattr(module, attr), snapshots))
        path = os.path.join(BUNDLED, f"{name}.json")
        assert run_scenario(path, str(tmp_path))["ok"]
        total = Scenario.from_file(path).integrator.snapshot_count
        expected = [
            count * total if snapshots else count
            for count, (_, _, snapshots) in zip(SERIES_CALLS[name], COUNTED_SERIES)
        ]
        assert calls == expected

    # a generated heterogeneous pair with every analysis, at p = 1 (the
    # generators are then zero), 2 and 3: 501 snapshots, which integrate
    # records in 5, 9 and 14 chunks
    STREAMED = {
        1: {"dims.p": 1, "frequencies": {"kind": "zero"}},
        2: {},
        3: {"dims.p": 3},
    }

    @pytest.mark.parametrize("p", STREAMED)
    def test_streamed_run_writes_what_a_stored_run_does(self, monkeypatch, tmp_path, p):
        """A run streamed chunk by chunk writes the bytes, and reports the
        analyses, that the same run gives when its trajectory is stored and
        each series is taken from the whole of it."""
        overrides = {"integrator.t_end": 0.5, "analyses": list(ANALYSIS_NAMES), **self.STREAMED[p]}
        path = generate_scenario(
            "heterogeneous-framework", 11, overrides, str(tmp_path / "pair.json")
        )
        sc = Scenario.from_file(path)
        chunks = []
        potential = scenario_module.potential
        monkeypatch.setattr(
            scenario_module, "potential", lambda *args: chunks.append(1) or potential(*args)
        )
        report = run_scenario(sc, str(tmp_path / "streamed"))
        assert len(chunks) > 3

        stored = tmp_path / "stored"
        stored.mkdir()
        partner = perturb_ensemble(sc.initial, sc.perturbation["radius"], sc.perturbation["seed"])
        traj, other = integrate(np.stack([sc.initial, partner]), sc.model, sc.integrator).members()
        pair = diagnostics.pair_columns(traj, other)
        emit_series(traj, {"V": potential(traj.states, sc.model.topology)}, stored / "base.csv")
        base = series_io.BASE_COLUMNS
        extra = {name: values for name, values in pair.items() if name not in base}
        emit_series(traj, extra, stored / "pair.csv")
        for name, written in (("base.csv", f"{sc.name}.csv"), ("pair.csv", f"{sc.name}_pair.csv")):
            assert (stored / name).read_bytes() == (tmp_path / "streamed" / written).read_bytes()

        status = diagnostics.consensus_status(traj.times, traj.states)
        assert report["consensus"]["kind"] == status.kind
        assert report["consensus"]["max_identity_gap"] == status.max_identity_gap
        assert report["consensus"]["max_variation"] == status.max_variation
        audits = diagnostics.audit_series(pair, sc.model)
        assert [a["max_violation"] for a in report["audits"]] == [
            a.max_violation for a in audits
        ]
        rate = diagnostics.fit_decay_rate(pair["t"], pair["diam_A"])
        assert (report["decay"]["rate"], report["decay"]["r_squared"]) == rate
        assert report["gain"] == {
            str(p_exp): diagnostics.stability_gain(pair, p_exp)
            for p_exp in diagnostics.GAIN_EXPONENTS
        }

    @pytest.mark.parametrize(
        "stride, snapshots, rows", [(1, 3001, 601), (5, 601, 121), (7, 430, 87)]
    )
    def test_sink_keeps_the_consensus_window_rows(
        self, monkeypatch, tmp_path, stride, snapshots, rows
    ):
        # a run of 3000 steps to t = 6: the window from t = 4.8 on is all
        # that consensus_status reads, and all that the run keeps of states
        calls = []
        status = diagnostics.consensus_status
        monkeypatch.setattr(
            diagnostics, "consensus_status",
            lambda times, states: calls.append((len(times), states.shape)) or status(times, states),
        )
        integrator = {"h": 0.002, "t_end": 6.0, "record_stride": stride}
        report = run_scenario(minimal_scenario(tmp_path, integrator=integrator), str(tmp_path))
        assert calls == [(snapshots, (rows, 3, 3, 1))]
        assert report["consensus"]["kind"] == "complete"

    def test_bundled_homogeneous_complete(self, bundled_runs):
        report = bundled_runs["homogeneous_complete"].report
        assert report["ok"]
        assert report["consensus"]["kind"] == "complete"
        for artifact in report["artifacts"]:
            assert os.path.exists(artifact)

    def test_pair_csv_columns(self, tmp_path):
        path = minimal_scenario(
            tmp_path,
            name="paircols",
            analyses=["consensus", "stability"],
        )
        report = run_scenario(path, out_dir=str(tmp_path))
        pair_csv = [a for a in report["artifacts"] if a.endswith("_pair.csv")]
        assert pair_csv
        columns = read_series(pair_csv[0])
        for required in ("t", "drift", "diam_S", "diam_A", "corr_sq", "corr_skew_sq",
                         "diam_S_tilde", "dist_l1", "dist_l2", "dist_agent_0"):
            assert required in columns
        assert report["gain"] is not None
        assert set(report["gain"]) == {"1.0", "2.0", "4.0"}

    @pytest.mark.parametrize("analyses", [["consensus"], list(ANALYSIS_NAMES)])
    def test_report_json_schema(self, tmp_path, analyses):
        path = minimal_scenario(
            tmp_path, name="schema", analyses=analyses, expect={"consensus": "complete"}
        )
        report = run_scenario(path, out_dir=str(tmp_path))
        report_path = str(tmp_path / "schema_report.json")
        on_disk = json.loads(Path(report_path).read_text())
        for key in ("scenario", "framework", "cubic", "consensus", "decay", "gain",
                    "audits", "artifacts", "expectations", "ok"):
            assert key in on_disk
        assert on_disk["scenario"] == "schema"
        assert on_disk["consensus"]["kind"] == "complete"
        assert on_disk["ok"] is True
        # the returned report is the written one, plus the report's own path
        assert report["artifacts"][-1] == report_path
        assert on_disk == {**report, "artifacts": report["artifacts"][:-1]}

    @pytest.mark.parametrize("kappa, satisfied, below", [(1.5, True, True), (1e-3, False, None)])
    def test_diameter_stays_below_only_under_the_conditions(
        self, tmp_path, kappa, satisfied, below
    ):
        # at kappa 1e-3 the coupling condition fails and the diameter is
        # not judged against a threshold the conditions no longer give
        path = minimal_scenario(
            tmp_path,
            dims=PLANES,
            kappa=kappa,
            frequencies={"kind": "random", "spread": 0.01, "seed": 5},
            initial={"kind": "near_consensus", "radius": 0.05, "seed": 1},
            integrator={"h": 0.01, "t_end": 1.0},
            analyses=["framework"],
        )
        framework = run_scenario(path, out_dir=str(tmp_path))["framework"]
        assert framework["satisfied"] is satisfied
        assert framework["diameter_stays_below"] is below

    def test_unmet_expectation_reported(self, tmp_path):
        # a decoupled heterogeneous run cannot reach complete consensus
        path = minimal_scenario(
            tmp_path,
            name="unmet",
            dims={"n": 3, "p": 2, "N": 3},
            kappa=0.0,
            frequencies={"kind": "random", "spread": 1.0, "seed": 5},
            initial={"kind": "random", "seed": 6},
            expect={"consensus": "complete"},
        )
        report = run_scenario(path, out_dir=str(tmp_path))
        assert not report["ok"]
        assert report["expectations"][0]["ok"] is False


class HalfWritten:
    """A text file whose second write writes half its text and raises the
    OSError of a full disk."""

    def __init__(self, handle):
        self.handle, self.writes = handle, 0

    def write(self, text):
        self.writes += 1
        if self.writes < 2:
            return self.handle.write(text)
        self.handle.write(text[: len(text) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()


class TestCli:
    @pytest.mark.parametrize("target", ["tiny.csv", "tiny_pair.csv", "tiny_report.json"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, target):
        path = minimal_scenario(tmp_path, analyses=["stability"])
        out_dir = tmp_path / "out"
        assert main(["run", path, "--out", str(out_dir)], out=io.StringIO()) == EXIT_OK
        written = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        # in the order run writes them
        order = ["tiny.csv", "tiny_pair.csv", "tiny_report.json"]
        assert sorted(written) == order

        def failing_open(file, *args, **kwargs):
            handle = open(file, *args, **kwargs)
            return HalfWritten(handle) if str(file).endswith(f"{target}.tmp") else handle

        monkeypatch.setattr(series_io, "open", failing_open, raising=False)
        # over the files of the first run, and into a directory with none
        for directory in (out_dir, tmp_path / "fresh"):
            out, err = io.StringIO(), io.StringIO()
            code = main(["run", path, "--out", str(directory)], out=out, err=err)
            assert code == EXIT_ERROR
            assert out.getvalue() == ""
            assert os.strerror(errno.ENOSPC) in err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert not any(p.name.endswith(".tmp") for p in directory.iterdir())
        # the failed file and those after it are the first run's, or absent
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == written
        fresh = sorted(p.name for p in (tmp_path / "fresh").iterdir())
        assert fresh == order[: order.index(target)]

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exits:
            main(["--version"])
        assert exits.value.code == 0
        assert "stiefel-sync" in capsys.readouterr().out

    def test_gen_and_run_roundtrip(self, tmp_path):
        out = io.StringIO()
        code = main(
            [
                "gen",
                "homogeneous",
                "--seed",
                "9",
                "--set",
                "name=quick",
                "--set",
                "integrator.t_end=12.0",
                "--out",
                str(tmp_path / "quick.json"),
            ],
            out=out,
            err=out,
        )
        assert code == EXIT_OK
        code = main(
            ["run", str(tmp_path / "quick.json"), "--out", str(tmp_path)], out=out, err=out
        )
        assert code == EXIT_OK
        text = out.getvalue()
        assert "consensus: complete" in text

    def test_run_resolves_bundled_name(self, bundled_runs):
        # the shared runs call `run kuramoto_circle`, a bundled name, not a path
        assert bundled_runs["kuramoto_circle"].exit_code == EXIT_OK

    def test_diverging_pair_names_first_member(self, tmp_path):
        # the partner starts far from consensus and blows up before the
        # near-consensus main run
        path = minimal_scenario(
            tmp_path,
            name="diverging_pair",
            dims={"n": 4, "p": 2, "N": 3},
            kappa=3000.0,
            initial={"kind": "near_consensus", "radius": 1e-6, "seed": 5},
            integrator={"h": 0.001, "t_end": 1.0, "retraction": "never"},
            analyses=["stability"],
            perturbation={"radius": 0.5, "seed": 1},
        )
        err = io.StringIO()
        code = main(["run", path, "--out", str(tmp_path)], out=io.StringIO(), err=err)
        assert code == EXIT_DIVERGENCE
        assert "non-finite state in member 1" in err.getvalue()

    def test_malformed_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        err = io.StringIO()
        code = main(["run", str(bad), "--out", str(tmp_path)], out=err, err=err)
        assert code == EXIT_SCENARIO

    @pytest.mark.parametrize(
        "field, value, extra",
        [
            ("h", float("nan"), {}),
            ("h", float("inf"), {}),
            ("t_end", float("nan"), {}),
            ("t_end", float("inf"), {}),
            ("kappa", float("nan"), {}),
            ("kappa", float("inf"), {}),
        ],
        ids=["h-nan", "h-inf", "t_end-nan", "t_end-inf", "kappa-nan", "kappa-inf"],
    )
    def test_non_finite_setting_exit_code(self, tmp_path, field, value, extra):
        if field == "kappa":
            path = minimal_scenario(tmp_path, kappa=value)
        else:
            integrator = {"h": 0.002, "t_end": 1.0, "record_stride": 5, **extra, field: value}
            path = minimal_scenario(tmp_path, integrator=integrator)
        err = io.StringIO()
        code = main(["run", path, "--out", str(tmp_path)], out=io.StringIO(), err=err)
        assert code == EXIT_SCENARIO
        assert "Traceback" not in err.getvalue()
        assert field in err.getvalue()

    # three agents on St(2, 4) with distinct generators; at h 0.02 a run
    # without retraction drifts past the retraction's bound of 1e-8
    ON_DRIFT = {
        "dims": {"n": 4, "p": 2, "N": 3},
        "kappa": 2.0,
        "frequencies": {"kind": "random", "spread": 0.5, "seed": 2},
        "initial": {"kind": "random", "seed": 3},
        "integrator": {"h": 0.02, "t_end": 2.0, "retraction": "on_drift", "record_stride": 1},
    }

    def test_on_drift_run_keeps_drift_within_the_retraction_bound(self, tmp_path):
        drift = {}
        for policy in ("on_drift", "never"):
            out = tmp_path / policy
            out.mkdir()
            integrator = {**self.ON_DRIFT["integrator"], "retraction": policy}
            path = minimal_scenario(out, **{**self.ON_DRIFT, "integrator": integrator})
            err = io.StringIO()
            code = main(["run", path, "--out", str(out)], out=io.StringIO(), err=err)
            assert code == EXIT_OK, err.getvalue()
            drift[policy] = read_series(out / "tiny.csv")["drift"]
        assert (drift["on_drift"] <= NEWTON_SCHULZ_DEFECT).all()
        assert drift["never"].max() > NEWTON_SCHULZ_DEFECT

    def test_drift_threshold_is_an_unknown_field(self, tmp_path):
        integrator = {**self.ON_DRIFT["integrator"], "drift_threshold": 1e-8}
        path = minimal_scenario(tmp_path, **{**self.ON_DRIFT, "integrator": integrator})
        err = io.StringIO()
        code = main(["run", path, "--out", str(tmp_path)], out=io.StringIO(), err=err)
        assert code == EXIT_SCENARIO
        assert "integrator.drift_threshold: unknown field" in err.getvalue()
        assert "Traceback" not in err.getvalue()

    def test_common_scale_is_an_unknown_field(self, tmp_path):
        frequencies = {"kind": "random", "spread": 0.1, "seed": 1, "common_scale": 0.5}
        path = minimal_scenario(tmp_path, dims=PLANES, frequencies=frequencies)
        err = io.StringIO()
        code = main(["run", path, "--out", str(tmp_path)], out=io.StringIO(), err=err)
        assert code == EXIT_SCENARIO
        assert "frequencies.common_scale: unknown field" in err.getvalue()
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("h", [1e-300, 5e-324])
    def test_step_count_beyond_any_array_exit_code(self, tmp_path, h):
        path = minimal_scenario(tmp_path, integrator={"h": h, "t_end": 1.0})
        err = io.StringIO()
        code = main(["run", path, "--out", str(tmp_path)], out=io.StringIO(), err=err)
        assert code == EXIT_SCENARIO
        assert "Traceback" not in err.getvalue()
        assert "integrator" in err.getvalue() and "h =" in err.getvalue()

    @pytest.mark.parametrize(
        "entry, field",
        [
            ({"consensus": {"window": 2.0}}, "analyses.consensus.window"),
            ({"consensus": {"tol": 1e-5}}, "analyses.consensus.tol"),
            ({"decay_fit": {"fit_fraction": 0.5}}, "analyses.decay_fit.fit_fraction"),
            ({"stability": {"p_exp": [1.0, 2.0, 4.0]}}, "analyses.stability.p_exp"),
            ({"consensus": {}}, "analyses[1]"),
            ({"consensus": None}, "analyses[1]"),
            ({"consensus": {}, "stability": {}}, "analyses[1]"),
            # the values the retired options once rejected, and those of the
            # fixed rules, name the retired field all the same
            ({"consensus": {"window": NAN}}, "analyses.consensus.window"),
            ({"consensus": {"window": "x"}}, "analyses.consensus.window"),
            ({"consensus": {"window": -1.0}}, "analyses.consensus.window"),
            ({"consensus": {"tol": diagnostics.CONSENSUS_TOL}}, "analyses.consensus.tol"),
            ({"consensus": {"tol": "1e-6"}}, "analyses.consensus.tol"),
            ({"consensus": {"tol": INF}}, "analyses.consensus.tol"),
            ({"consensus": {"tol": 0.0}}, "analyses.consensus.tol"),
            ({"decay_fit": {"fit_fraction": 1.5}}, "analyses.decay_fit.fit_fraction"),
            ({"decay_fit": {"fit_fraction": NAN}}, "analyses.decay_fit.fit_fraction"),
            ({"decay_fit": {"fit_fraction": 0.0}}, "analyses.decay_fit.fit_fraction"),
            ({"stability": {"p_exp": [2.0, NAN]}}, "analyses.stability.p_exp"),
            ({"stability": {"p_exp": [2.0, 10 ** 400]}}, "analyses.stability.p_exp"),
            ({"stability": {"p_exp": []}}, "analyses.stability.p_exp"),
            ({"stability": {"p_exp": [1.0, 2.0]}}, "analyses.stability.p_exp"),
        ],
        ids=["window", "tol", "fit_fraction", "p_exp", "object", "object-not-options",
             "object-two-keys", "window-nan", "window-str", "window-neg", "tol-rule",
             "tol-str", "tol-inf", "tol-zero", "fit_fraction-above-one", "fit_fraction-nan",
             "fit_fraction-zero", "p_exp-nan", "p_exp-huge", "p_exp-empty", "p_exp-pair"],
    )
    def test_analysis_options_retired_exit_code(self, tmp_path, entry, field):
        # an analysis is a name and runs one fixed rule: an option names
        # its field, any other object its entry
        path = minimal_scenario(tmp_path, analyses=["framework", entry])
        out, err = io.StringIO(), io.StringIO()
        code = main(["run", path, "--out", str(tmp_path)], out=out, err=err)
        assert code == EXIT_SCENARIO
        assert out.getvalue() == ""
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().startswith(f"error in {path}: {field}: ")

    @pytest.mark.parametrize("field", NON_FINITE_FIELDS)
    def test_non_finite_scenario_number_exit_code(self, tmp_path, field):
        path = minimal_scenario(tmp_path, **NON_FINITE_FIELDS[field])
        out, err = io.StringIO(), io.StringIO()
        code = main(["run", path, "--out", str(tmp_path)], out=out, err=err)
        assert code == EXIT_SCENARIO
        assert out.getvalue() == ""
        assert "Traceback" not in err.getvalue()
        assert f"{field}: expected a finite number" in err.getvalue()

    @pytest.mark.parametrize("field", NEGATIVE_FIELDS)
    def test_negative_spread_or_scale_exit_code(self, tmp_path, field):
        path = minimal_scenario(tmp_path, **NEGATIVE_FIELDS[field])
        out, err = io.StringIO(), io.StringIO()
        code = main(["run", path, "--out", str(tmp_path)], out=out, err=err)
        assert code == EXIT_SCENARIO
        assert out.getvalue() == ""
        assert "Traceback" not in err.getvalue()
        assert f"{field}: " in err.getvalue() and "must be nonnegative" in err.getvalue()

    @pytest.mark.parametrize("case", BAD_LIST_FIELDS)
    def test_bad_list_field_entry_exit_code(self, tmp_path, case):
        field, overrides = BAD_LIST_FIELDS[case]
        path = minimal_scenario(tmp_path, **overrides)
        out, err = io.StringIO(), io.StringIO()
        code = main(["run", path, "--out", str(tmp_path)], out=out, err=err)
        assert code == EXIT_SCENARIO
        assert out.getvalue() == ""
        assert "Traceback" not in err.getvalue()
        assert f"{field}: " in err.getvalue()

    @pytest.mark.parametrize("case", BAD_INTEGER_FIELDS)
    def test_bad_integer_field_exit_code(self, tmp_path, case):
        field, overrides = BAD_INTEGER_FIELDS[case]
        path = minimal_scenario(tmp_path, **overrides)
        out, err = io.StringIO(), io.StringIO()
        code = main(["run", path, "--out", str(tmp_path)], out=out, err=err)
        assert code == EXIT_SCENARIO
        assert out.getvalue() == ""
        assert "Traceback" not in err.getvalue()
        assert f"{field}: expected an integer in [" in err.getvalue()

    @pytest.mark.parametrize("key", ["perturbation", "seed"])
    def test_stability_partner_fields_are_unknown(self, tmp_path, key):
        # the top-level perturbation block alone sets the partner run
        path = minimal_scenario(tmp_path, analyses=[{"stability": {key: 1}}])
        out, err = io.StringIO(), io.StringIO()
        code = main(["run", path, "--out", str(tmp_path)], out=out, err=err)
        assert code == EXIT_SCENARIO
        assert out.getvalue() == ""
        assert f"analyses.stability.{key}: unknown field" in err.getvalue()

    @pytest.mark.parametrize(
        "integrator",
        [
            {"h": 0.002, "t_end": 0.0},
            # one step: a single snapshot after the first
            {"h": 0.002, "t_end": 0.002},
            # the window, a fifth of the span, is shorter than the spacing
            {"h": 0.1, "t_end": 1.0, "record_stride": 5},
            # two steps: the window of 0.0008 holds the last snapshot only
            {"h": 0.002, "t_end": 0.004},
            # recorded at t = 0 and 6 only: the window of 1.2 holds one snapshot
            {"h": 0.002, "t_end": 6.0, "record_stride": 3000},
        ],
        ids=["t_end-zero", "one-step", "default-window-below-spacing", "two-steps",
             "stride-at-horizon"],
    )
    def test_horizon_short_for_consensus_window_exit_code(self, tmp_path, integrator):
        path = minimal_scenario(tmp_path, integrator=integrator, analyses=["consensus"])
        out, err = io.StringIO(), io.StringIO()
        code = main(["run", path, "--out", str(tmp_path)], out=out, err=err)
        assert code == EXIT_SCENARIO
        assert out.getvalue() == ""
        assert "Traceback" not in err.getvalue()
        assert "integrator.t_end: a consensus window" in err.getvalue()

    @staticmethod
    def _grid_sweep(tmp_path, stride, analysis, runs):
        """Parse a two-agent scenario of one ``analysis`` at every horizon
        0, h, ..., 2.5 with h = 0.1 and the given stride, and assert that it
        parses exactly when ``runs`` succeeds on the trajectory it
        integrates; multiples of h hit the boundaries, where the grid times
        and the window edges round. Both outcomes must occur."""
        cfg = ModelConfig(
            kappa=1.0, topology=Topology.separable(np.ones(2)),
            freqs=zero_frequencies(2, 1), n=2, p=1,
        )
        outcomes = set()
        for t_end in [k * 0.1 for k in range(26)] + [k / 10 for k in range(26)]:
            integrator = {"h": 0.1, "t_end": t_end, "record_stride": stride}
            path = minimal_scenario(
                tmp_path, dims={"n": 2, "p": 1, "N": 2},
                topology={"kind": "separable", "xi": [1.0, 1.0]},
                integrator=integrator, analyses=[analysis],
            )
            try:
                Scenario.from_file(path)
                parsed = True
            except ScenarioError:
                parsed = False
            traj = integrate(random_ensemble(2, 1, 2, seed=3), cfg, IntegratorConfig(**integrator))
            try:
                runs(traj)
                ran = True
            except (InsufficientDataError, ValidationError):
                ran = False
            assert parsed == ran, t_end
            outcomes.add(parsed)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("stride", [1, 3, 5])
    def test_consensus_window_check_matches_consensus_status(self, tmp_path, stride):
        # the parser accepts a horizon exactly when consensus_status can
        # classify a fifth of the span of the run's grid
        self._grid_sweep(
            tmp_path, stride, "consensus",
            lambda traj: diagnostics.consensus_status(traj.times, traj.states),
        )

    @pytest.mark.parametrize(
        "integrator, analysis, field",
        [
            ({"h": 0.002, "t_end": 0.002}, "decay_fit", "integrator.t_end"),
            ({"h": 0.002, "t_end": 0.0}, "decay_fit", "integrator.t_end"),
            # recorded at t = 0, 3 and 6: two points in the trailing half
            ({"h": 0.002, "t_end": 6.0, "record_stride": 1500}, "decay_fit", "integrator.t_end"),
            ({"h": 0.002, "t_end": 0.002}, "audits", "integrator.t_end"),
            ({"h": 0.002, "t_end": 0.0}, "audits", "integrator.t_end"),
            # 25 steps recorded every 7th and at the last: not uniform
            ({"h": 0.002, "t_end": 0.05, "record_stride": 7}, "audits", "integrator.t_end"),
        ],
        ids=["decay-one-step", "decay-t_end-zero", "decay-half-below-spacing",
             "audits-one-step", "audits-t_end-zero", "audits-uneven-grid"],
    )
    def test_horizon_short_for_decay_fit_or_audits_exit_code(
        self, tmp_path, integrator, analysis, field
    ):
        # rejected by the parser, before anything is integrated
        path = minimal_scenario(tmp_path, integrator=integrator, analyses=[analysis])
        out, err = io.StringIO(), io.StringIO()
        code = main(["run", path, "--out", str(tmp_path)], out=out, err=err)
        assert code == EXIT_SCENARIO
        assert out.getvalue() == ""
        assert "Traceback" not in err.getvalue()
        assert f"{field}: " in err.getvalue()
        assert not os.path.exists(tmp_path / "tiny.csv")

    @pytest.mark.parametrize("stride", [1, 3, 5])
    def test_decay_fit_check_matches_fit_decay_rate(self, tmp_path, stride):
        # the parser accepts a horizon exactly when fit_decay_rate can fit
        # the trailing half of the run's grid, from t_end / 2 on
        self._grid_sweep(
            tmp_path, stride, "decay_fit",
            lambda traj: diagnostics.fit_decay_rate(traj.times, traj.diameters),
        )

    @pytest.mark.parametrize(
        "overrides, field",
        [
            # five billion snapshots
            ({"integrator": {"h": 1e-9, "t_end": 50.0}}, "integrator.h"),
            # one snapshot of one agent is 8 TiB
            ({"dims": {"n": 2 ** 40, "p": 1, "N": 3}}, "dims"),
            # the weights alone are 8 EiB
            ({"dims": {"n": 3, "p": 1, "N": 2 ** 30}, "topology": SEPARABLE}, "dims"),
        ],
        ids=["h", "dims-n", "dims-N"],
    )
    def test_storage_beyond_memory_exit_code(self, tmp_path, overrides, field):
        # rejected before the grid, the topology or the initial data exist
        path = minimal_scenario(tmp_path, **overrides)
        out, err = io.StringIO(), io.StringIO()
        code = main(["run", path, "--out", str(tmp_path)], out=out, err=err)
        assert code == EXIT_SCENARIO
        assert out.getvalue() == ""
        assert "Traceback" not in err.getvalue()
        assert f"{field}: " in err.getvalue() and "physical memory" in err.getvalue()

    def test_storage_bound_counts_the_partner(self, tmp_path, monkeypatch):
        # 601 snapshots of 3 x 3 x 1: one run holds 4 series columns (19,232
        # bytes), 122 snapshots of its consensus window (8,784) and one
        # chunk of all 601 snapshots (43,272), with the 3 x 3 weights 71,360
        # bytes; with the partner, 14 columns (67,312) and a chunk of both
        # runs (86,544) make it 162,712
        memory = 100_000
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        Scenario.from_file(minimal_scenario(tmp_path))
        with pytest.raises(ScenarioError, match="physical memory") as caught:
            Scenario.from_file(minimal_scenario(tmp_path, analyses=["consensus", "stability"]))
        assert caught.value.field == "integrator.h"

    def test_storage_bound_counts_one_chunk_not_the_trajectory(self, tmp_path, monkeypatch):
        # 3001 snapshots of 8 x 6 x 2: the stored trajectory would be 2.3 MB;
        # a streamed run holds 4 series columns (96,032 bytes), 602 snapshots
        # of its consensus window (462,336) and one chunk of 112 snapshots
        # (86,016), with the 8 x 8 weights 644,896 bytes
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 644_896}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        dims = {"n": 6, "p": 2, "N": 8}
        topology = {"kind": "separable", "xi": [1.0] * 8}
        integrator = {"h": 0.002, "t_end": 6.0, "record_stride": 1}
        path = minimal_scenario(tmp_path, dims=dims, topology=topology, integrator=integrator)
        Scenario.from_file(path)
        pages["SC_PHYS_PAGES"] = 644_895
        with pytest.raises(ScenarioError, match="physical memory") as caught:
            Scenario.from_file(path)
        assert caught.value.field == "integrator.h"

    def test_storage_bound_counts_every_consensus_window_row(self, monkeypatch):
        """The consensus rows the storage bound counts, K // 5 + 2 of K
        snapshots, are at least the K - first rows a run's sink keeps, on
        random grids (h, t_end, stride) that have a consensus window; on some
        grids they are exactly those rows, so K // 5 + 1 would fall short.
        With no memory, the bound's error states the rows it counted."""
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 0}.__getitem__)
        rng = np.random.default_rng(2027)
        spare = []
        for _ in range(3000):
            h = float(rng.choice([1e-3, 2e-3, 0.01, 0.07, 0.1, 0.25, 0.3]))
            steps = int(rng.integers(1, 1500))
            # a multiple of h, where the grid's times and the window's edge
            # round, or a horizon between steps
            t_end = steps * h if rng.random() < 0.5 else float(rng.uniform(0.0, steps * h))
            integrator = IntegratorConfig(h=h, t_end=t_end, record_stride=int(rng.integers(1, 40)))
            times = integrator.recorded_steps() * integrator.h
            try:
                first = diagnostics.trailing_window_start(times)
            except InsufficientDataError:
                continue
            with pytest.raises(ScenarioError) as caught:
                scenario_module._check_storage(integrator, 1, 1, 1, False, True)
            counted = re.search(r"(\d+) snapshots of the consensus window", str(caught.value))
            spare.append(int(counted.group(1)) - (len(times) - first))
        assert len(spare) > 2000
        assert min(spare) == 0

    @pytest.mark.parametrize("case", OVERFLOWING_FIELDS)
    def test_overflowing_number_exit_code(self, tmp_path, case):
        field, overrides = OVERFLOWING_FIELDS[case]
        path = minimal_scenario(tmp_path, **overrides)
        out, err = io.StringIO(), io.StringIO()
        code = main(["run", path, "--out", str(tmp_path)], out=out, err=err)
        assert code == EXIT_SCENARIO
        assert out.getvalue() == ""
        assert "Traceback" not in err.getvalue()
        assert f"{field}: " in err.getvalue()

    @pytest.mark.parametrize(
        "name, content",
        [
            ("init.json", b"{bad json"),
            ("init.json", b"[1,2"),
            ("init.json", b"[[[1.0]], [[1.0], [0.0]], [[1.0]]]"),
            ("init.npy", b"not the bytes of an array"),
            ("init.npy", "object"),
            ("init.npy", "npz"),
            ("init.json", b"[" * 100000 + b"]" * 100000),
        ],
        ids=["json-broken-object", "json-cut-list", "json-ragged", "npy-not-npy",
             "npy-object-dtype", "npy-holding-npz", "json-nested-too-deep"],
    )
    def test_unreadable_state_file_exit_code(self, tmp_path, name, content):
        states = tmp_path / name
        if content == "object":
            np.save(states, np.array([None, 1.0, "x"], dtype=object))
        elif content == "npz":
            with open(states, "wb") as handle:
                np.savez(handle, states=random_ensemble(3, 1, 3, seed=2))
        else:
            states.write_bytes(content)
        path = minimal_scenario(tmp_path, initial={"kind": "file", "path": name})
        out, err = io.StringIO(), io.StringIO()
        code = main(["run", path, "--out", str(tmp_path)], out=out, err=err)
        assert code == EXIT_SCENARIO
        assert out.getvalue() == ""
        assert "Traceback" not in err.getvalue()
        assert "initial.path: " in err.getvalue()

    def test_run_into_existing_file_exit_code(self, tmp_path):
        # the next scenario named in the call still runs
        occupied = tmp_path / "occupied"
        occupied.write_text("")
        path = minimal_scenario(tmp_path)
        out, err = io.StringIO(), io.StringIO()
        code = main(["run", "kuramoto_circle", path, "--out", str(occupied)], out=out, err=err)
        assert code == EXIT_ERROR
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().count("File exists") == 2

    def test_gen_into_missing_directory_exit_code(self, tmp_path):
        target = tmp_path / "missing" / "x.json"
        out, err = io.StringIO(), io.StringIO()
        code = main(["gen", "homogeneous", "--seed", "1", "--out", str(target)], out=out, err=err)
        assert code == EXIT_ERROR
        assert "Traceback" not in err.getvalue()
        assert "No such file or directory" in err.getvalue()

    def test_missing_scenario_exit_code(self, tmp_path):
        err = io.StringIO()
        code = main(["run", "no_such_scenario", "--out", str(tmp_path)], out=err, err=err)
        assert code == EXIT_SCENARIO

    def test_end_to_end_determinism(self, tmp_path):
        path = minimal_scenario(tmp_path, name="determinism")
        out = io.StringIO()
        dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", path, "--out", dir_a], out=out, err=out) == EXIT_OK
        assert main(["run", path, "--out", dir_b], out=out, err=out) == EXIT_OK
        csv_a = Path(dir_a, "determinism.csv").read_bytes()
        csv_b = Path(dir_b, "determinism.csv").read_bytes()
        assert csv_a == csv_b

    def test_batch_run(self, tmp_path):
        p1 = minimal_scenario(tmp_path, name="batch_one")
        p2 = minimal_scenario(tmp_path, name="batch_two")
        out = io.StringIO()
        code = main(["run", p1, p2, "--out", str(tmp_path)], out=out, err=out)
        assert code == EXIT_OK
        assert os.path.exists(tmp_path / "batch_one_report.json")
        assert os.path.exists(tmp_path / "batch_two_report.json")

    def test_audit_subcommand_on_single_column_pair(self, tmp_path):
        # single-column scenario: every stated bound holds, audit exits clean
        path = minimal_scenario(
            tmp_path,
            name="audit_me",
            integrator={"h": 0.002, "t_end": 4.0, "record_stride": 1},
            analyses=["consensus", "stability"],
        )
        out = io.StringIO()
        assert main(["run", path, "--out", str(tmp_path)], out=out, err=out) == EXIT_OK
        pair_csv = str(tmp_path / "audit_me_pair.csv")
        code = main(["audit", pair_csv, "--config", path], out=out, err=out)
        assert code == EXIT_OK
        assert "audit diameter_bound" in out.getvalue()
        assert "audit correlation_contraction" in out.getvalue()
        assert "audit agent_distance_bound" in out.getvalue()

    def test_audit_subcommand_flags_two_column_deficit(self, tmp_path, bundled_runs):
        # the bundled heterogeneous scenario has two columns and its audits
        # pass; re-auditing its pair CSV against the same scenario with
        # kappa doubled asks for twice the contraction the run shows, which
        # the audit must flag
        run = bundled_runs["framework_hetero"]
        assert run.exit_code == EXIT_OK
        with open(os.path.join(BUNDLED, "framework_hetero.json")) as handle:
            raw = json.load(handle)
        raw["kappa"] *= 2.0
        doubled = tmp_path / "doubled_kappa.json"
        doubled.write_text(json.dumps(raw))
        pair_csv = run.csvs["framework_hetero_pair.csv"]
        out = io.StringIO()
        code = main(["audit", pair_csv, "--config", str(doubled)], out=out, err=out)
        assert code == EXIT_AUDIT
        lines = out.getvalue().splitlines()
        flagged = [line for line in lines if line.startswith("audit correlation_contraction")]
        assert len(flagged) == 1 and flagged[0].endswith("FAIL")

    def test_repeated_calls_in_one_process(self, tmp_path, capsys):
        # one process calls main again and again, as a benchmark worker or a
        # notebook does: one parser serves every call, and a failed call
        # leaves nothing behind for the next
        path = minimal_scenario(
            tmp_path,
            name="again",
            integrator={"h": 0.01, "t_end": 1.0, "record_stride": 1},
            analyses=["stability"],
        )
        run = ["run", path, "--out", str(tmp_path)]
        audit = ["audit", str(tmp_path / "again_pair.csv"), "--config", path]
        bad_gen = ["gen", "homogeneous", "--seed", "1", "--set", "kappa=-1",
                   "--out", str(tmp_path / "never.json")]

        def call(argv):
            out, err = io.StringIO(), io.StringIO()
            return main(argv, out=out, err=err), out.getvalue()

        first = [call(run), call(audit)]
        assert [code for code, _ in first] == [EXIT_OK, EXIT_OK]
        assert call(bad_gen) == (EXIT_SCENARIO, "")
        with pytest.raises(SystemExit) as usage:
            call(["audit", str(tmp_path / "again_pair.csv")])
        assert usage.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert call(audit) == first[1]
        assert call(run) == first[0]
        assert call(bad_gen) == (EXIT_SCENARIO, "")
        assert not (tmp_path / "never.json").exists()

    def test_main_parses_with_one_parser(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def _pair_run(self, tmp_path, name="bad_csv"):
        path = minimal_scenario(
            tmp_path,
            name=name,
            integrator={"h": 0.01, "t_end": 1.0, "record_stride": 1},
            analyses=["stability"],
        )
        out = io.StringIO()
        assert main(["run", path, "--out", str(tmp_path)], out=out, err=out) == EXIT_OK
        return path, tmp_path / f"{name}_pair.csv"

    def test_audit_rejects_non_finite_values(self, tmp_path):
        path, pair_csv = self._pair_run(tmp_path)
        lines = pair_csv.read_text().splitlines()
        names = lines[0].split(",")
        row = lines[50].split(",")
        for column in ("diam_A", "corr_sq"):
            row[names.index(column)] = "nan"
        lines[50] = ",".join(row)
        pair_csv.write_text("\n".join(lines) + "\n")
        out, err = io.StringIO(), io.StringIO()
        code = main(["audit", str(pair_csv), "--config", path], out=out, err=err)
        assert code == EXIT_SCENARIO
        assert out.getvalue() == ""
        message = err.getvalue()
        assert message.startswith("error:")
        assert "'diam_A'" in message and "row 50" in message

    @pytest.mark.parametrize(
        "old, new",
        [
            (b"drift", b"dr\xffift"),
            (b"dist_agent_7", b"dist_agent_x"),
            (b"dist_agent_7", b"dist_agent_"),
            (b"diam_S_tilde", b"diam_S"),
            (b"dist_agent_7", b"dist_agent_06"),
        ],
        ids=[
            "not_utf8", "agent_not_a_number", "agent_unnumbered", "column_twice", "agent_skipped"
        ],
    )
    def test_audit_rejects_malformed_header(self, tmp_path, bundled_runs, old, new):
        # each edit to the header of a bundled pair CSV either fails to
        # decode, names a column twice, or leaves dist_agent_0 ... dist_agent_7
        # without one of its names
        source = bundled_runs["framework_hetero"].csvs["framework_hetero_pair.csv"]
        data = Path(source).read_bytes()
        header, rest = data.split(b"\n", 1)
        assert old in header
        pair_csv = tmp_path / "framework_hetero_pair.csv"
        pair_csv.write_bytes(header.replace(old, new, 1) + b"\n" + rest)
        out, err = io.StringIO(), io.StringIO()
        code = main(["audit", str(pair_csv), "--config", "framework_hetero"], out=out, err=err)
        assert code == EXIT_SCENARIO
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
        assert "Traceback" not in err.getvalue()

    def test_audit_rejects_truncated_csv(self, tmp_path):
        path, pair_csv = self._pair_run(tmp_path)
        data = pair_csv.read_bytes()
        pair_csv.write_bytes(data[: len(data) // 2])
        err = io.StringIO()
        code = main(["audit", str(pair_csv), "--config", path], out=err, err=err)
        assert code == EXIT_SCENARIO
        assert err.getvalue().startswith("error:")

    def test_audit_rejects_csv_without_rows(self, tmp_path):
        path, pair_csv = self._pair_run(tmp_path)
        pair_csv.write_text(pair_csv.read_text().splitlines()[0] + "\n")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["audit", str(pair_csv), "--config", path], out=out, err=err)
        assert code == EXIT_SCENARIO
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and "no data rows" in err.getvalue()

    def test_audit_rejects_csv_cut_inside_last_field(self, tmp_path):
        # cut 5 bytes before the end of data row 60: the last field keeps
        # enough digits to parse, so only the missing newline shows the cut
        path, pair_csv = self._pair_run(tmp_path)
        data = pair_csv.read_bytes()
        row_end = [k for k, byte in enumerate(data) if byte == ord("\n")][60]
        cut = data[: row_end - 5]
        float(cut.rsplit(b",", 1)[1])
        pair_csv.write_bytes(cut)
        out, err = io.StringIO(), io.StringIO()
        code = main(["audit", str(pair_csv), "--config", path], out=out, err=err)
        assert code == EXIT_SCENARIO
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and "truncated" in err.getvalue()

    def test_audit_rejects_csv_cut_at_row_boundary(self, tmp_path):
        # a cut just after the newline of data row 60 leaves a valid shorter
        # table; only the scenario's grid shows the cut
        path, pair_csv = self._pair_run(tmp_path)
        data = pair_csv.read_bytes()
        row_end = [k for k, byte in enumerate(data) if byte == ord("\n")][60]
        pair_csv.write_bytes(data[: row_end + 1])
        out, err = io.StringIO(), io.StringIO()
        code = main(["audit", str(pair_csv), "--config", path], out=out, err=err)
        assert code == EXIT_SCENARIO
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
        assert "(60 rows up to t = " in err.getvalue()
        assert "(101 snapshots up to its horizon t = 1)" in err.getvalue()

    @pytest.mark.parametrize("run_stride, audit_stride", [(4, 1), (1, 4), (4, 2)])
    def test_audit_rejects_csv_of_another_stride(self, tmp_path, run_stride, audit_stride):
        # the runs end at the same horizon, and a coarser grid's slopes pass
        # the finer grid's tolerance, so only the whole t column shows that
        # the file is another run's
        def scenario(name, stride):
            return minimal_scenario(
                tmp_path, name=name, dims={"n": 3, "p": 2, "N": 3},
                topology={"kind": "separable", "xi": [1.0, 1.2, 0.9]},
                frequencies={"kind": "random", "spread": 0.3, "seed": 5},
                integrator={"h": 0.01, "t_end": 2.0, "record_stride": stride},
                analyses=["audits"],
            )

        ran = scenario("ran", run_stride)
        out = io.StringIO()
        assert main(["run", ran, "--out", str(tmp_path)], out=out, err=out) == EXIT_OK
        pair_csv = str(tmp_path / "ran_pair.csv")
        assert main(["audit", pair_csv, "--config", ran], out=out, err=out) == EXIT_OK
        out, err = io.StringIO(), io.StringIO()
        other = scenario("other", audit_stride)
        code = main(["audit", pair_csv, "--config", other], out=out, err=err)
        assert code == EXIT_SCENARIO
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and "another run" in err.getvalue()

    def test_run_and_csv_reaudit_agree_bitwise(self, tmp_path, monkeypatch):
        # the run audits its in-memory pair columns and the re-audit the
        # CSV written from them; both go through diagnostics.audit_series
        audit_series = diagnostics.audit_series
        in_memory = []

        def recording(columns, cfg):
            audits = audit_series(columns, cfg)
            in_memory.extend(audits)
            return audits

        monkeypatch.setattr(diagnostics, "audit_series", recording)
        path = minimal_scenario(
            tmp_path,
            name="agree",
            dims={"n": 3, "p": 2, "N": 3},
            topology={"kind": "separable", "xi": [1.0, 1.2, 0.9]},
            frequencies={"kind": "random", "spread": 0.3, "seed": 5},
            initial={"kind": "random", "seed": 6},
            integrator={"h": 0.01, "t_end": 2.0, "record_stride": 1},
            analyses=["audits"],
        )
        report = run_scenario(path, out_dir=str(tmp_path))
        monkeypatch.undo()
        reaudit = diagnostics.audit_series(
            read_series(tmp_path / "agree_pair.csv"), Scenario.from_file(path).model
        )
        assert [a.name for a in reaudit] == [
            "diameter_bound", "correlation_contraction", "agent_distance_bound"
        ]
        assert [a.max_violation for a in reaudit] == [
            a["max_violation"] for a in report["audits"]
        ]
        assert len(in_memory) == 3
        for ours, theirs in zip(in_memory, reaudit):
            for field in ("times", "lhs", "rhs", "audited"):
                assert np.array_equal(getattr(ours, field), getattr(theirs, field))
