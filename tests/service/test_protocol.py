"""Campaign spec validation, normalization and digest contracts."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core.batch import NullCache, SweepRunner
from repro.errors import ConfigError
from repro.service.protocol import CampaignSpec, results_digest

SWEEP = {"kind": "sweep", "machines": ["spacx", "simba"], "models": ["MobileNetV2"]}


class TestSweepNormalization:
    def test_defaults_are_filled(self):
        spec = CampaignSpec.from_dict(SWEEP)
        params = spec.params
        assert params["batch"] == 1
        assert params["layer_by_layer"] is False
        assert params["budget"] is None

    def test_equivalent_submissions_share_content_id(self):
        """The dedupe key must not depend on key order or on spelling
        out the defaults."""
        a = CampaignSpec.from_dict(SWEEP)
        b = CampaignSpec.from_dict(
            {
                "models": ["MobileNetV2"],
                "machines": ["spacx", "simba"],
                "kind": "sweep",
                "batch": 1,
                "layer_by_layer": False,
            }
        )
        assert a.content_id == b.content_id

    def test_machine_order_is_significant(self):
        a = CampaignSpec.from_dict(SWEEP)
        b = CampaignSpec.from_dict(
            {**SWEEP, "machines": ["simba", "spacx"]}
        )
        assert a.content_id != b.content_id

    def test_n_jobs_is_exact_for_sweeps(self):
        spec = CampaignSpec.from_dict(
            {
                "kind": "sweep",
                "machines": ["spacx", "simba", "popstar"],
                "models": ["MobileNetV2", "ResNet-50"],
            }
        )
        assert spec.n_jobs == 6

    def test_job_order_is_models_outer_machines_inner(self):
        spec = CampaignSpec.from_dict(
            {
                "kind": "sweep",
                "machines": ["spacx", "simba"],
                "models": ["MobileNetV2", "ResNet-50"],
            }
        )
        _, labels = spec.build_sweep_jobs()
        assert labels == [
            ("MobileNetV2", "spacx"),
            ("MobileNetV2", "simba"),
            ("ResNet-50", "spacx"),
            ("ResNet-50", "simba"),
        ]


class TestValidationErrors:
    @pytest.mark.parametrize(
        "raw",
        [
            {"kind": "nope"},
            {"kind": "sweep", "machines": ["warp-drive"], "models": ["MobileNetV2"]},
            {"kind": "sweep", "machines": ["spacx"], "models": ["NoSuchNet"]},
            {"kind": "sweep", "machines": ["spacx", "spacx"], "models": ["MobileNetV2"]},
            {"kind": "sweep", "machines": [], "models": ["MobileNetV2"]},
            {"kind": "sweep", "machines": ["spacx"], "models": ["MobileNetV2"], "batch": 0},
            {"kind": "sweep", "machines": ["spacx"], "models": ["MobileNetV2"], "frobnicate": 1},
            {"kind": "sweep", "machines": ["spacx"], "models": ["MobileNetV2"], "budget": {"deadline_s": -1}},
            {"kind": "faults", "model": "MobileNetV2", "samples": 0},
            {"kind": "faults", "model": "MobileNetV2", "rates": []},
            {"kind": "search", "space": "no-such-preset"},
            {"kind": "search", "space": 7},
            "not an object",
            {"kind": "sweep", "machines": ["spacx"], "models": ["MobileNetV2"], "budget": {"deadline_s": 0}},
            {"kind": "sweep", "machines": ["spacx"], "models": ["MobileNetV2"], "budget": {"max_rss_mb": 0}},
            {"kind": "search", "space": {"machine": [["spacx"]]}},
            {"kind": "search", "space": {"dimensions": {"machine": [{}]}}},
        ],
    )
    def test_invalid_campaigns_raise_config_error(self, raw):
        with pytest.raises(ConfigError):
            CampaignSpec.from_dict(raw)

    @pytest.mark.parametrize(
        "space",
        [
            {"machine": ["spacx"], "k_granularity": 8},
            {"machine": "spacx", "k_granularity": [8, 16]},
            {"dimensions": {"machine": ["spacx"], "k_granularity": [8, 16]}},
        ],
    )
    def test_inline_space_is_normalized_through_the_space(self, space):
        """Every form ``SearchSpace.from_dict`` accepts normalizes to
        the ``{name: [values]}`` it means there, so the submission
        runs the space the file would and shares its content id."""
        from repro.dse.space import SearchSpace

        spec = CampaignSpec.from_dict({"kind": "search", "space": space})
        dimensions = SearchSpace.from_dict(space).to_dict()["dimensions"]
        assert spec.params["space"] == dimensions
        assert spec.content_id == CampaignSpec.from_dict(
            {"kind": "search", "space": dimensions}
        ).content_id

    def test_search_preset_supplies_objective_and_validation(self):
        spec = CampaignSpec.from_dict({"kind": "search", "space": "tiny"})
        from repro.dse.presets import PRESETS

        params = spec.params
        assert params["objective"] == PRESETS["tiny"].objective
        assert params["validation"] == PRESETS["tiny"].validation
        assert params["strategy"] == "pruned"

    def test_requested_budget_round_trips(self):
        spec = CampaignSpec.from_dict(
            {**SWEEP, "budget": {"deadline_s": 60, "max_failures": 3}}
        )
        budget = spec.requested_budget()
        assert budget.deadline_s == 60.0
        assert budget.max_failures == 3


class TestResultsDigest:
    def test_matches_the_golden_serialization_exactly(self):
        """results_digest must hash the same canonical JSON as the
        golden suite's _sweep_digest -- sorted keys over the
        model_result_to_dict tree -- so service digests are comparable
        against direct-runner digests."""
        from repro.serialization import model_result_to_dict

        spec = CampaignSpec.from_dict(
            {"kind": "sweep", "machines": ["spacx"], "models": ["MobileNetV2"]}
        )
        jobs, labels = spec.build_sweep_jobs()
        runner = SweepRunner(
            cache=NullCache(), manifest=False, budget=False
        )
        try:
            results = runner.run(jobs)
        finally:
            runner.close()
        tree = {}
        for (model, machine), result in zip(labels, results):
            tree.setdefault(model, {})[machine] = result
        manual = hashlib.sha256(
            json.dumps(
                {
                    model: {
                        machine: model_result_to_dict(result)
                        for machine, result in per_machine.items()
                    }
                    for model, per_machine in tree.items()
                },
                sort_keys=True,
            ).encode()
        ).hexdigest()
        assert results_digest(tree) == manual
