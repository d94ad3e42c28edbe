"""One pass per searched machine.

* every preset, objective and strategy: the default (lane-free) engine
  answers exactly as an engine over the scalar oracle runner, pruned
  candidates' ``lower_bound`` included;
* the work of one pruned campaign of the benchmark's shape (12 SPACX
  candidates on the paper suite, ``edp``, ``physics``): one admission,
  one lowering and one scoring stage, one X and one Y path-budget walk
  per machine, and one score reduction per evaluated candidate;
  bounding those candidates alone builds no scoring stage.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import ExitStack
from unittest import mock

import pytest

from repro.core import grid
from repro.core.batch import NullCache, SweepRunner
from repro.dse import PRESETS, SearchEngine, SearchSpace
from repro.dse.bounds import frontier_bounds
from repro.dse.search import OBJECTIVES, STRATEGIES
from repro.dse.space import build_simulator, resolve_workload
from repro.errors import ConfigError
from repro.spacx.power import SpacxPowerModel

#: The ``dse-search`` benchmark's space: 3 x 1 x 2 x 2 SPACX machines
#: on the default workload (the paper suite).
_BENCHMARK_SPACE = {
    "machine": ["spacx"],
    "chiplets": [16, 36, 64],
    "pes_per_chiplet": [32],
    "k_granularity": [1, 2],
    "ef_granularity": [1, 2],
}


def _outcome(preset, objective, strategy, runner):
    """``to_dict()`` of one search, or the error it raised."""
    engine = SearchEngine(
        preset.space(),
        objective=objective,
        validation=preset.validation,
        runner=runner,
    )
    try:
        return engine.search(strategy).to_dict()
    except Exception as exc:  # compared, not swallowed
        return (type(exc).__name__, str(exc))
    finally:
        runner.close()


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_matches_scalar_oracle(name):
    preset = PRESETS[name]
    for objective in OBJECTIVES:
        for strategy in STRATEGIES:
            fast = _outcome(
                preset,
                objective,
                strategy,
                SweepRunner(cache=NullCache(), manifest=False),
            )
            slow = _outcome(
                preset,
                objective,
                strategy,
                SweepRunner(vectorize=False, cache=NullCache(), manifest=False),
            )
            assert json.dumps(fast, sort_keys=True) == json.dumps(
                slow, sort_keys=True
            ), (name, objective, strategy)
            if name == "fig18-bandwidth" and objective == "static_power":
                # Simba has no static network power: both engines fail
                # with the same configuration error.
                assert fast[0] == ConfigError.__name__, strategy
            else:
                assert isinstance(fast, dict) and fast["ok"], (
                    name, objective, strategy,
                )


def _counting(owner, name, counts):
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    return mock.patch.object(owner, name, wrapper)


def test_benchmark_campaign_does_each_step_once():
    space = SearchSpace.from_dict(_BENCHMARK_SPACE)
    for _ in range(2):  # per campaign: nothing is carried over
        counts: Counter = Counter()
        with ExitStack() as stack:
            for owner, name in (
                (grid, "_admit"),
                (grid, "_grid_lower"),
                (grid, "_pass_columns"),
                (grid, "workload_score"),
                (SpacxPowerModel, "_walk_x_path"),
                (SpacxPowerModel, "_walk_y_path"),
            ):
                stack.enter_context(_counting(owner, name, counts))
            runner = SweepRunner(max_workers=1, cache=NullCache(), manifest=False)
            result = SearchEngine(
                space, objective="edp", validation="physics", runner=runner
            ).search("pruned")
        assert (result.n_candidates, result.n_feasible) == (12, 12)
        assert (result.n_evaluated, result.n_pruned) == (7, 5)
        assert result.outcome is None and not runner.stats
        assert counts == {
            "_admit": 1,
            "_grid_lower": 1,
            "_pass_columns": 1,
            "_walk_x_path": 12,
            "_walk_y_path": 12,
            "workload_score": result.n_evaluated,
        }


def test_frontier_bounds_alone_builds_no_scoring_stage():
    """Bounds need admission, lowering and floors only: the timing,
    network-energy and audit stage waits for a scorer call."""
    space = SearchSpace.from_dict(_BENCHMARK_SPACE)
    pairs = [
        (build_simulator(c.config), resolve_workload(c.config))
        for c in space.candidates()
    ]
    assert len(pairs) == 12
    counts: Counter = Counter()
    with ExitStack() as stack:
        for name in ("_admit", "_grid_lower", "_pass_columns"):
            stack.enter_context(_counting(grid, name, counts))
        bounds = frontier_bounds(pairs, "edp")
    assert counts == {"_admit": 1, "_grid_lower": 1}
    assert all(bound > 0 for bound in bounds)
