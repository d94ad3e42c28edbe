"""Lane-free DSE scoring: the search scores candidates from the grid
kernel's columns, and every result equals the sweep runner's.

* a Hypothesis property over random small spaces, every objective and
  strategy, one and two workers: the default engine's
  ``SearchResult.to_dict()`` equals that of an engine over the scalar
  runner, and a pruned search reduces only the rows its walk reaches;
* failing candidates fail only when the walk reaches them, exactly as
  on the runner path;
* routing: what keeps the runner, and that the lane-free route builds
  no lanes;
* the column reducer equals the ``ModelResult`` it stands for, bit for
  bit, on every zoo model and paper machine.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repro.core import grid
from repro.core.batch import (
    NullCache,
    ResultCache,
    SweepJobError,
    SweepRunner,
    _model_structure,
)
from repro.core.budget import CampaignBudget
from repro.core.layer import LayerSet
from repro.core.simulator import Simulator
from repro.dse import SearchEngine, SearchSpace
from repro.dse.search import OBJECTIVES, STRATEGIES
from repro.dse.space import build_simulator
from repro.models.zoo import EXTENDED_MODELS, get_model
from repro.validate import machine_zoo

_TINY = {
    "machine": ["spacx"],
    "k_granularity": [8, 16],
    "ef_granularity": [8, 16],
    "model": ["MobileNetV2"],
}

_SMALL_MODELS = ("VGG-16", "MobileNetV2", "EfficientNet-B0")


def _outcome(dims, objective, strategy, runner):
    """``to_dict()`` of one search, or the error it raised."""
    engine = SearchEngine(
        SearchSpace.from_dict(dims), objective=objective, runner=runner
    )
    try:
        return engine.search(strategy).to_dict()
    except Exception as exc:  # compared, not swallowed
        return (type(exc).__name__, str(exc))
    finally:
        runner.close()


@st.composite
def _spaces(draw):
    machines = draw(
        st.lists(
            st.sampled_from(["spacx", "simba", "popstar"]),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    dims = {"machine": machines}
    if "spacx" in machines:
        if draw(st.booleans()):
            dims["dataflow"] = draw(
                st.lists(
                    st.sampled_from(["spacx", "ws", "os_ef"]),
                    min_size=1,
                    max_size=2,
                    unique=True,
                )
            )
        # 3 divides neither default dimension: a rejected candidate.
        for knob in ("k_granularity", "ef_granularity"):
            dims[knob] = draw(
                st.lists(
                    st.sampled_from([3, 4, 8, 16, 32]),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
    dims["model"] = draw(
        st.lists(
            st.sampled_from(_SMALL_MODELS), min_size=1, max_size=2, unique=True
        )
    )
    if draw(st.booleans()):
        dims["batch"] = draw(
            st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=2, unique=True)
        )
    return dims


class _ReduceSpy:
    """Collects every row :func:`repro.core.grid.workload_score`
    reduces to a score."""

    def __init__(self):
        self.rows: list = []
        self._real = grid.workload_score

    def __call__(self, *args, **kwargs):
        row = self._real(*args, **kwargs)
        self.rows.append(row)
        return row


def _triple(score) -> tuple:
    """A ``CandidateScore`` (or its ``to_dict()``) as the reducer's
    ``(execution_time_s, energy_mj, mean_utilization)``."""
    if isinstance(score, dict):
        return (
            score["execution_time_s"],
            score["energy_mj"],
            score["mean_utilization"],
        )
    return (score.execution_time_s, score.energy_mj, score.mean_utilization)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@example(dims=_TINY, objective="execution_time", strategy="pruned", workers=1)
@given(
    dims=_spaces(),
    objective=st.sampled_from(OBJECTIVES),
    strategy=st.sampled_from(STRATEGIES),
    workers=st.sampled_from([1, 2]),
)
def test_lane_free_search_equals_scalar_runner(dims, objective, strategy, workers):
    # Cache-free runners: the reference is always the scalar oracle (no
    # lane another test cached), and the default engine takes the
    # lane-free route wherever the grid can score.
    spy = _ReduceSpy()
    runner = SweepRunner(max_workers=workers, cache=NullCache(), manifest=False)
    with mock.patch.object(grid, "workload_score", spy):
        fast = _outcome(dims, objective, strategy, runner)
    slow = _outcome(
        dims,
        objective,
        strategy,
        SweepRunner(
            max_workers=workers,
            vectorize=False,
            cache=NullCache(),
            manifest=False,
        ),
    )
    assert json.dumps(fast, sort_keys=True) == json.dumps(slow, sort_keys=True)
    if isinstance(fast, dict) and strategy == "pruned" and not runner.stats:
        # The walk reduced a row only when it evaluated the candidate:
        # one reduction per evaluated candidate, none for a pruned one.
        assert len(spy.rows) == fast["n_evaluated"]
        assert sorted(spy.rows) == sorted(map(_triple, fast["evaluated"]))
        if fast["n_pruned"]:
            event("pruned search reduced no pruned candidate's row")


def test_pruned_search_drops_speculative_scores():
    spy = _ReduceSpy()
    with mock.patch.object(grid, "workload_score", spy):
        result = _tiny_pruned()
    assert result.n_feasible == 4 and result.n_pruned > 0
    assert len(result.evaluated) == 4 - result.n_pruned
    assert result.failures == [] and result.outcome is None
    # Rows reduced == candidates evaluated, and no pruned candidate's
    # row was reduced (its exhaustive score never came out of the spy).
    assert len(spy.rows) == result.n_evaluated
    assert sorted(spy.rows) == sorted(map(_triple, result.evaluated))
    exhaustive = SearchEngine(
        SearchSpace.from_dict(_TINY),
        objective="execution_time",
        runner=SweepRunner(cache=NullCache(), manifest=False),
    ).search("exhaustive")
    by_index = {s.index: _triple(s) for s in exhaustive.evaluated}
    for pruned in result.pruned:
        assert by_index[pruned.index] not in spy.rows


# ----------------------------------------------------------------------
# Failing candidates
# ----------------------------------------------------------------------
class _Broken(Simulator):
    """A machine whose layers cannot be simulated; the grid declines
    it (not a stock ``Simulator``), so the runner's scalar path runs it."""

    def simulate_layer(self, layer, layer_by_layer=False):
        raise RuntimeError(f"broken machine cannot simulate {layer.name}")


def _factory(broken: dict):
    def build(config):
        simulator = build_simulator(config)
        if all(config.get(k) == v for k, v in broken.items()):
            return _Broken(
                simulator.spec,
                simulator.compute_energy,
                simulator.network_energy,
                strict=simulator.strict,
            )
        return simulator

    return build


def _tiny_pruned():
    return SearchEngine(
        SearchSpace.from_dict(_TINY),
        objective="execution_time",
        runner=SweepRunner(cache=NullCache(), manifest=False),
    ).search("pruned")


def _failing_search(broken, on_error, *, budget):
    """A pruned search over the tiny space with one broken candidate.

    ``budget=True`` attaches an all-``None`` budget, which limits
    nothing and keeps the sequential runner walk: the reference.
    """
    runner = SweepRunner(
        cache=NullCache(),
        manifest=False,
        on_error=on_error,
        budget=CampaignBudget() if budget else False,
    )
    engine = SearchEngine(
        SearchSpace.from_dict(_TINY),
        objective="execution_time",
        runner=runner,
        simulator_factory=_factory(broken),
    )
    try:
        result = engine.search("pruned")
    except SweepJobError as exc:
        f = exc.failure
        return "raised", (f.index, f.model, f.accelerator, f.error_type, f.message)
    return "returned", result.to_dict()


@pytest.mark.parametrize("on_error", ["skip", "raise"])
def test_reached_failing_candidate_fails_as_on_runner_path(on_error):
    best = _tiny_pruned().best.config_dict()
    broken = {k: best[k] for k in ("k_granularity", "ef_granularity")}
    lane_free = _failing_search(broken, on_error, budget=False)
    reference = _failing_search(broken, on_error, budget=True)
    assert lane_free == reference
    if on_error == "raise":
        assert lane_free[0] == "raised"
    else:
        (failure,) = lane_free[1]["failures"]
        assert failure["error_type"] == "RuntimeError"


@pytest.mark.parametrize("on_error", ["skip", "raise"])
def test_pruned_failing_candidate_never_fails(on_error):
    clean = _tiny_pruned()
    victim = clean.pruned[0]
    broken = {
        k: dict(victim.config)[k] for k in ("k_granularity", "ef_granularity")
    }
    lane_free = _failing_search(broken, on_error, budget=False)
    assert lane_free == _failing_search(broken, on_error, budget=True)
    assert lane_free == ("returned", clean.to_dict())


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
def test_lane_free_route_builds_no_lanes():
    runner = SweepRunner(cache=ResultCache(), manifest=False)
    with mock.patch.object(
        SweepRunner, "run", side_effect=AssertionError("runner called")
    ), mock.patch.object(
        grid, "evaluate_grid", side_effect=AssertionError("lanes built")
    ):
        for strategy in STRATEGIES:
            result = SearchEngine(
                SearchSpace.from_dict(_TINY), objective="edp", runner=runner
            ).search(strategy)
            assert result.best is not None and result.outcome is None
    assert runner.grid_lanes == 0
    assert runner.cache.stats.puts == 0


@pytest.mark.parametrize("route", ["disk-cache", "budget", "scalar"])
def test_persistent_budgeted_or_scalar_runner_keeps_runner_path(
    tmp_path, route
):
    if route == "disk-cache":
        runner = SweepRunner(cache=ResultCache(cache_dir=tmp_path), manifest=False)
    elif route == "budget":
        runner = SweepRunner(
            cache=ResultCache(),
            manifest=False,
            budget=CampaignBudget(deadline_s=3600.0),
        )
    else:
        runner = SweepRunner(cache=ResultCache(), manifest=False, vectorize=False)
    result = SearchEngine(
        SearchSpace.from_dict(_TINY), objective="edp", runner=runner
    ).search("pruned")
    assert runner.cache.stats.puts > 0
    assert runner.stats
    assert result.outcome is runner.outcome
    lane_free = SearchEngine(
        SearchSpace.from_dict(_TINY),
        objective="edp",
        runner=SweepRunner(cache=ResultCache(), manifest=False),
    ).search("pruned")
    assert result.to_dict() == lane_free.to_dict()


def test_empty_workload_still_fails_inv_empty():
    runner = SweepRunner(cache=NullCache(), manifest=False, on_error="skip")
    result = SearchEngine(
        SearchSpace.from_dict({"machine": ["spacx"], "k_granularity": [8]}),
        workload=LayerSet("empty", []),
        objective="edp",
        runner=runner,
    ).search("exhaustive")
    (failure,) = result.failures
    assert failure.error_type == "InvariantViolationError"
    assert "INV-EMPTY" in failure.message
    assert result.best is None


# ----------------------------------------------------------------------
# The column reducer
# ----------------------------------------------------------------------
def _hex(triple):
    return tuple(float(value).hex() for value in triple)


def _energy_columns(lanes):
    """The nine energy components of each lane, in ``grid._ENERGY_COLS``
    order."""
    return [
        [getattr(r.energy, name) for r in lanes]
        for name in ("mac_mj", "pe_buffer_mj", "gb_mj", "dram_mj")
    ] + [
        [getattr(r.energy.network, name) for r in lanes]
        for name in ("eo_mj", "oe_mj", "heating_mj", "laser_mj", "electrical_mj")
    ]


@pytest.mark.parametrize("machine", ["simba", "popstar", "spacx"])
def test_reducer_equals_model_result_on_every_zoo_model(machine):
    simulator = machine_zoo()[machine]()
    params = simulator.spec.mapping_parameters()
    for name in EXTENDED_MODELS:
        model = get_model(name)
        result = simulator.simulate_model(model)
        lanes = result.layers
        utilizations = [r.mapping.utilization(params) for r in lanes]
        expected = _hex(
            (
                result.execution_time_s,
                result.energy.total_mj,
                sum(utilizations) / len(utilizations),
            )
        )
        from_result = grid.workload_score(
            range(len(lanes)),
            [r.execution_time_s for r in lanes],
            _energy_columns(lanes),
            [r.mapping.layer.macs for r in lanes],
            [r.mapping.compute_cycles for r in lanes],
            params,
        )
        assert _hex(from_result) == expected, (machine, name)
        unique, _, occ, _ = _model_structure(model)
        _, (scorer,) = grid.search_grid([simulator], unique, [occ])
        assert _hex(scorer()) == expected, (machine, name)
