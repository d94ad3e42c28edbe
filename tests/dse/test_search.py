"""Tests for the search engine: strategies, pruning correctness,
validation modes and accounting."""

import pytest

from repro.core.batch import NullCache, SweepRunner
from repro.dse import (
    PRESETS,
    SearchEngine,
    SearchSpace,
    get_preset,
)
from repro.errors import ConfigError
from repro.models.zoo import get_model


def _tiny_space():
    return SearchSpace.from_dict(
        {
            "machine": ["spacx"],
            "k_granularity": [8, 16],
            "ef_granularity": [8, 16],
            "model": ["MobileNetV2"],
        }
    )


def _engine(space=None, **kwargs):
    """An engine with an isolated (memory-only) cache."""
    kwargs.setdefault("runner", SweepRunner(cache=NullCache(), manifest=False))
    kwargs.setdefault("objective", "execution_time")
    return SearchEngine(space or _tiny_space(), **kwargs)


class TestEngineConstruction:
    def test_rejects_unknown_objective(self):
        with pytest.raises(ConfigError):
            SearchEngine(_tiny_space(), objective="happiness")

    def test_rejects_unknown_validation(self):
        with pytest.raises(ConfigError):
            SearchEngine(_tiny_space(), validation="vibes")

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ConfigError):
            _engine().search(strategy="simulated-annealing")


class TestExhaustive:
    def test_evaluates_every_feasible_candidate(self):
        result = _engine().search(strategy="exhaustive")
        assert result.n_candidates == 4
        assert result.n_evaluated == 4
        assert result.n_pruned == 0
        assert [s.index for s in result.evaluated] == [0, 1, 2, 3]

    def test_best_minimises_objective(self):
        result = _engine().search(strategy="exhaustive")
        best = result.best
        values = [s.execution_time_s for s in result.evaluated]
        assert best.execution_time_s == min(values)

    def test_ranked_is_deterministic(self):
        ranked = _engine().search(strategy="exhaustive").ranked()
        keys = [(s.execution_time_s, s.index) for s in ranked]
        assert keys == sorted(keys)


class TestPruned:
    @pytest.mark.parametrize("objective", ["execution_time", "energy", "edp"])
    def test_bit_identical_argmin(self, objective):
        exhaustive = _engine(objective=objective).search("exhaustive")
        pruned = _engine(objective=objective).search("pruned")
        assert pruned.best.config == exhaustive.best.config
        assert pruned.best.objective(objective) == exhaustive.best.objective(
            objective
        )

    def test_prunes_without_simulating(self):
        result = _engine().search("pruned")
        assert result.n_evaluated + result.n_pruned == result.n_feasible
        assert result.n_evaluated < result.n_feasible  # something pruned
        for p in result.pruned:
            # The pruning certificate: bound strictly above incumbent.
            assert p.lower_bound > p.incumbent

    def test_pruned_incumbent_is_final_best(self):
        result = _engine().search("pruned")
        best = result.best.objective("execution_time")
        for p in result.pruned:
            assert p.incumbent <= best * (1 + 1e-12) or p.incumbent == best

    def test_every_preset_prunes_enough(self):
        """The ISSUE acceptance bar: on every preset space the pruned
        strategy matches the exhaustive argmin bit-for-bit while
        dispatching <= 60% of the candidates to the simulator."""
        for name, preset in PRESETS.items():
            exhaustive = _engine(
                preset.space(),
                objective=preset.objective,
                validation=preset.validation,
            ).search("exhaustive")
            pruned = _engine(
                preset.space(),
                objective=preset.objective,
                validation=preset.validation,
            ).search("pruned")
            assert pruned.best.config == exhaustive.best.config, name
            assert pruned.best.objective(
                preset.objective
            ) == exhaustive.best.objective(preset.objective), name
            assert (
                pruned.n_evaluated <= 0.6 * exhaustive.n_evaluated
            ), (name, pruned.n_evaluated, exhaustive.n_evaluated)

    def test_argmin_stable_across_workers(self):
        serial = _engine().search("pruned")
        parallel = _engine(
            runner=SweepRunner(
                max_workers=2, cache=NullCache(), manifest=False
            )
        ).search("pruned")
        assert parallel.best.config == serial.best.config
        assert (
            parallel.best.execution_time_s == serial.best.execution_time_s
        )


class TestHalving:
    def test_returns_a_real_configuration(self):
        space = SearchSpace.from_dict(
            {
                "machine": ["spacx"],
                "k_granularity": [4, 8, 16, 32],
                "ef_granularity": [4, 8, 16, 32],
                "model": ["MobileNetV2"],
            }
        )
        result = _engine(space, validation="none").search("halving")
        assert result.best is not None
        assert result.n_proxy_evaluated > 0
        # Finalists (only) run the full workload.
        assert 0 < result.n_evaluated < result.n_feasible

    def test_tiny_space_skips_rungs(self):
        result = _engine().search("halving")
        # 4 candidates: one rung of 2x-shrunk proxies, 2 finalists.
        assert result.best is not None
        assert result.n_evaluated == 2


class TestValidationModes:
    def test_physics_rejects_infeasible_corners(self):
        space = SearchSpace.from_dict(
            {
                "machine": ["spacx"],
                "k_granularity": [16, 32],
                "ef_granularity": [16, 32],
                "model": ["MobileNetV2"],
            }
        )
        physics = _engine(space, validation="physics").search("exhaustive")
        unchecked = _engine(space, validation="none").search("exhaustive")
        assert unchecked.n_rejected == 0
        assert physics.n_rejected > 0  # Eq. 2 link budget fails up there
        codes = {
            d.code for r in physics.rejected for d in r.diagnostics
        }
        assert "PHO-LINK-BUDGET" in codes

    def test_structural_rejects_bad_divisibility(self):
        space = SearchSpace.from_dict(
            {
                "machine": ["spacx"],
                "k_granularity": [7, 8],
                "model": ["MobileNetV2"],
            }
        )
        result = _engine(space, validation="none").search("exhaustive")
        assert result.n_rejected == 1
        codes = {d.code for r in result.rejected for d in r.diagnostics}
        assert codes == {"DSE-GRAN-K"}

    def test_nothing_feasible_yields_no_best(self):
        space = SearchSpace.from_dict(
            {"machine": ["spacx"], "k_granularity": [7], "model": ["VGG-16"]}
        )
        result = _engine(space).search("pruned")
        assert result.best is None
        assert result.n_evaluated == 0
        assert result.to_dict()["ok"] is False


class TestWorkloadOverride:
    def test_explicit_workload_wins_without_model_dimension(self):
        space = SearchSpace.from_dict(
            {"machine": ["spacx"], "k_granularity": [8, 16]}
        )
        model = get_model("MobileNetV2")
        result = _engine(space, workload=model).search("exhaustive")
        assert result.n_evaluated == 2
        assert result.best is not None


class TestStaticPowerObjective:
    def test_photonic_space_ranks_by_standing_power(self):
        result = _engine(objective="static_power").search("pruned")
        best = result.best
        assert best.static_network_power_w is not None
        # The bound is exact, so everything after the first chunk of
        # evaluations is pruned.
        assert result.n_evaluated < result.n_feasible

    def test_electrical_machine_rejects_objective(self):
        space = SearchSpace.from_dict(
            {"machine": ["simba"], "model": ["MobileNetV2"]}
        )
        result = _engine(space, objective="static_power").search("exhaustive")
        with pytest.raises(ConfigError):
            result.best  # noqa: B018 - ranking needs the objective


class TestResultSerialisation:
    def test_to_dict_schema(self):
        payload = _engine().search("pruned").to_dict(top=2)
        for key in (
            "ok",
            "objective",
            "strategy",
            "validation",
            "n_candidates",
            "n_feasible",
            "n_evaluated",
            "n_proxy_evaluated",
            "n_pruned",
            "n_rejected",
            "best",
            "evaluated",
            "pruned",
            "rejected",
            "failures",
        ):
            assert key in payload, key
        assert payload["ok"] is True
        assert len(payload["evaluated"]) <= 2
        import json

        json.dumps(payload)  # JSON-clean end to end

    def test_frontier_over_evaluated(self):
        result = _engine().search("exhaustive")
        frontier = result.frontier(("execution_time", "static_power"))
        assert frontier.front  # non-empty
        for member in frontier.front:
            assert member in result.evaluated
