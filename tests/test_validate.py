"""Tests for the physics-aware config validator (:mod:`repro.validate`)."""

import json

import pytest

from repro.errors import ConfigError
from repro.photonics.components import (
    AGGRESSIVE_PARAMETERS,
    MODERATE_PARAMETERS,
)
from repro.photonics.crosstalk import CrosstalkModel
from repro.spacx.topology import SpacxTopology
from repro.validate import (
    MAX_LAUNCH_POWER_PER_WAVELENGTH_MW,
    MAX_WAVELENGTHS_PER_WAVEGUIDE,
    Diagnostic,
    ValidationReport,
    crosstalk_limited_channels,
    machine_zoo,
    validate_link_budget,
    validate_model,
    validate_photonic_parameters,
    validate_raw_config,
    validate_simulator,
    validate_spec,
    validate_wdm_density,
    validate_zoo,
)
from repro.models.zoo import EXTENDED_MODELS, get_model


class TestDiagnostic:
    def test_roundtrips_to_dict(self):
        diag = Diagnostic(
            code="X-1",
            severity="error",
            message="broken",
            subject="thing",
            hint="fix it",
            context={"value": 3},
        )
        payload = diag.to_dict()
        assert payload["code"] == "X-1"
        assert payload["severity"] == "error"
        assert payload["context"] == {"value": 3}
        json.dumps(payload)  # must be JSON-serialisable

    def test_rejects_bad_severity(self):
        with pytest.raises(ConfigError):
            Diagnostic(code="X", severity="fatal", message="nope")

    def test_describe_is_one_line(self):
        diag = Diagnostic(code="X", severity="warning", message="hm")
        assert "\n" not in diag.describe()


class TestValidationReport:
    def test_error_and_warning_partition(self):
        report = ValidationReport(subject="s")
        report.error("E-1", "bad")
        report.warning("W-1", "meh")
        assert len(report.errors) == 1
        assert len(report.warnings) == 1
        assert not report.ok
        assert not report.clean

    def test_clean_vs_ok(self):
        report = ValidationReport(subject="s")
        assert report.clean and report.ok
        report.warning("W-1", "meh")
        assert report.ok and not report.clean

    def test_merge(self):
        a = ValidationReport(subject="a")
        a.error("E-1", "x")
        b = ValidationReport(subject="b")
        b.merge(a)
        assert "E-1" in b.codes()

    def test_raise_if_errors(self):
        report = ValidationReport(subject="s")
        report.error("E-1", "boom")
        with pytest.raises(ConfigError) as excinfo:
            report.raise_if_errors()
        assert getattr(excinfo.value, "diagnostics", None)

    def test_json_roundtrip(self):
        report = ValidationReport(subject="s")
        report.error("E-1", "boom", knob=7)
        payload = json.loads(report.to_json())
        assert payload["subject"] == "s"
        assert payload["diagnostics"][0]["code"] == "E-1"


class TestPhotonicParameters:
    def test_shipped_parameter_sets_are_clean(self):
        assert validate_photonic_parameters(MODERATE_PARAMETERS).clean
        assert validate_photonic_parameters(AGGRESSIVE_PARAMETERS).clean

    def test_negative_loss_is_error(self):
        report = validate_photonic_parameters({"coupler_db": -1.0})
        assert any(d.code == "PHO-PARAM" for d in report.errors)

    def test_positive_sensitivity_is_error(self):
        report = validate_photonic_parameters(
            {"receiver_sensitivity_dbm": 3.0}
        )
        assert any(d.code == "PHO-SENS" for d in report.errors)


class TestWdmDensity:
    def test_crosstalk_limit_exceeds_density_cap_at_defaults(self):
        # At 25 dB suppression the first-order crosstalk limit is far
        # beyond the 64-channel density cap: density binds first.
        assert crosstalk_limited_channels() > MAX_WAVELENGTHS_PER_WAVEGUIDE

    def test_in_range_counts_are_clean(self):
        assert validate_wdm_density(24).ok
        assert validate_wdm_density(MAX_WAVELENGTHS_PER_WAVEGUIDE).ok

    def test_over_dense_is_error(self):
        report = validate_wdm_density(MAX_WAVELENGTHS_PER_WAVEGUIDE + 1)
        assert any(d.code == "PHO-WDM-DENSITY" for d in report.errors)

    def test_crosstalk_limited_with_poor_suppression(self):
        weak = CrosstalkModel(suppression_db=8.0, rolloff_db_per_channel=0.0)
        report = validate_wdm_density(32, crosstalk=weak)
        assert any(d.code == "PHO-XTALK" for d in report.errors)


class TestChannelCeilingCost:
    """The ceiling walk is O(n) once per model, and free after that."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        aggressor_ratio = CrosstalkModel.aggressor_ratio

        def counting(model, distance):
            calls.append(distance)
            return aggressor_ratio(model, distance)

        monkeypatch.setattr(CrosstalkModel, "aggressor_ratio", counting)
        return calls

    @pytest.mark.parametrize(
        "model",
        [CrosstalkModel(), CrosstalkModel(8.0, 0.0), CrosstalkModel(12.0)],
        ids=["default", "8dB-flat", "12dB"],
    )
    @pytest.mark.parametrize("search_limit", [1, 2, 64, 512])
    def test_cold_call_is_linear(self, evaluations, model, search_limit):
        crosstalk_limited_channels.cache_clear()
        crosstalk_limited_channels(model, search_limit)
        assert len(evaluations) <= search_limit

    def test_equal_model_is_served_from_memory(self, evaluations):
        crosstalk_limited_channels.cache_clear()
        first = crosstalk_limited_channels(CrosstalkModel(25.0, 3.0))
        del evaluations[:]
        assert crosstalk_limited_channels(CrosstalkModel(25.0, 3.0)) == first
        assert evaluations == []

    def test_warm_simulator_validation_is_cheap(self, evaluations):
        simulator = machine_zoo()["spacx"]()
        validate_simulator(simulator)
        del evaluations[:]
        assert validate_simulator(simulator).clean
        # Only the machine's own penalty sum remains: one term per
        # co-propagating channel, never the ceiling walk again.
        assert len(evaluations) <= MAX_WAVELENGTHS_PER_WAVEGUIDE


class TestLinkBudget:
    def test_shipped_topology_closes(self):
        report = validate_link_budget(SpacxTopology(32, 32, 8, 16))
        assert report.ok

    def test_tiny_ceiling_fails(self):
        report = validate_link_budget(
            SpacxTopology(32, 32, 8, 16), max_launch_power_mw=0.001
        )
        assert any(d.code == "PHO-LINK-BUDGET" for d in report.errors)

    def test_coarse_granularity_blows_the_default_ceiling(self):
        # The all-broadcast corner (g_ef = M, g_k = N) pays the full
        # 1/(M*N) splitting penalty: hundreds of mW per wavelength,
        # far above the default ceiling.
        report = validate_link_budget(SpacxTopology(32, 32, 32, 32))
        assert any(d.code == "PHO-LINK-BUDGET" for d in report.errors)

    def test_ceiling_is_physical(self):
        assert MAX_LAUNCH_POWER_PER_WAVELENGTH_MW == pytest.approx(100.0)


class TestSpecValidation:
    def test_zoo_specs_are_clean(self):
        for name, factory in machine_zoo().items():
            report = validate_spec(factory().spec)
            assert report.clean, f"{name}: {report.describe()}"

    def test_split_caps_must_sum(self):
        import dataclasses

        spec = machine_zoo()["spacx-ba"]().spec
        if not spec.gb_weight_egress_gbps:
            spec = machine_zoo()["spacx"]().spec
        broken = dataclasses.replace(
            spec, gb_weight_egress_gbps=spec.gb_egress_gbps * 2
        )
        report = validate_spec(broken)
        assert any(
            d.code in ("CFG-SPLIT-SUM", "CFG-SPLIT-PAIR")
            for d in report.errors + report.warnings
        )


class TestModelValidation:
    def test_all_zoo_models_are_clean(self):
        for name in EXTENDED_MODELS:
            report = validate_model(get_model(name))
            assert report.clean, f"{name}: {report.describe()}"

    def test_empty_model_is_error(self):
        from repro.core.layer import LayerSet

        report = validate_model(LayerSet("empty", []))
        assert any(d.code == "MDL-EMPTY" for d in report.errors)


class TestSimulatorAndZoo:
    def test_every_zoo_machine_validates_cleanly(self):
        for name, factory in machine_zoo().items():
            report = validate_simulator(factory(), subject=name)
            assert report.clean, f"{name}: {report.describe()}"

    def test_attached_floorplan_is_validated(self):
        # 16 x 32 at k = 32, e/f = 1: the Y path needs 98.9 mW per
        # wavelength on the pitch constants, 129.2 mW on the layout the
        # attached model's laser power comes from.
        from repro.dse.space import build_simulator
        from repro.spacx.floorplan import Floorplan
        from repro.spacx.power import SpacxPowerModel

        simulator = build_simulator(
            {
                "machine": "spacx",
                "chiplets": 16,
                "pes_per_chiplet": 32,
                "k_granularity": 32,
                "ef_granularity": 1,
            }
        )
        network = simulator.network_energy
        assert validate_simulator(simulator).ok
        simulator.network_energy = SpacxPowerModel(
            network.topology,
            network.params,
            floorplan=Floorplan(network.topology),
        )
        (error,) = validate_simulator(simulator).errors
        assert error.code == "PHO-LINK-BUDGET"
        assert error.context["required_mw"] == pytest.approx(129.241)
        # The topology-level check keeps judging the pitch constants.
        assert validate_link_budget(network.topology, network.params).ok

    def test_validate_zoo_covers_machines_and_models(self):
        reports = validate_zoo(["spacx"], ["ResNet-50"])
        assert len(reports) == 2
        assert all(r.ok for r in reports)

    def test_validate_zoo_rejects_unknown_machine(self):
        with pytest.raises(ConfigError):
            validate_zoo(["warp-drive"])

    def test_validate_zoo_rejects_unknown_model(self):
        with pytest.raises(ConfigError):
            validate_zoo([], ["AlexNet-9000"])


class TestRawConfig:
    def test_default_configs_are_clean(self):
        for machine in ("spacx", "simba", "popstar"):
            report = validate_raw_config({"machine": machine})
            assert report.clean, f"{machine}: {report.describe()}"

    def test_negative_laser_power_is_error(self):
        report = validate_raw_config(
            {"machine": "spacx", "laser_power_mw": -5}
        )
        assert any(d.code == "PHO-LASER" for d in report.errors)

    def test_over_dense_wdm_is_error(self):
        report = validate_raw_config(
            {"machine": "spacx", "wavelengths_per_waveguide": 96}
        )
        assert any(d.code == "PHO-WDM-DENSITY" for d in report.errors)

    def test_unknown_machine_is_error(self):
        report = validate_raw_config({"machine": "hal9000"})
        assert any(d.code == "DOC-MACHINE" for d in report.errors)

    def test_unknown_key_is_warning(self):
        report = validate_raw_config({"machine": "spacx", "turbo": True})
        assert any(d.code == "DOC-KEY" for d in report.warnings)

    def test_non_integer_knob_is_error(self):
        report = validate_raw_config({"machine": "spacx", "chiplets": "many"})
        assert not report.ok

    def test_config_crosstalk_applies_to_link_budget(self):
        # 34 carriers per waveguide at 12 dB suppression cost 1.27 dB
        # of crosstalk penalty, which pushes the Y path past 100 mW.
        probe = {
            "machine": "spacx",
            "chiplets": 16,
            "pes_per_chiplet": 32,
            "ef_granularity": 2,
            "k_granularity": 32,
            "crosstalk": {"suppression_db": 12},
        }
        report = validate_raw_config(probe)
        [error] = report.errors
        assert error.code == "PHO-LINK-BUDGET"
        assert error.context["path"] == "Y (single-chiplet)"
        assert error.context["required_mw"] == pytest.approx(128.5, abs=0.05)
        # Without a crosstalk section the budget carries no penalty,
        # as for a built simulator: it closes, with little margin.
        del probe["crosstalk"]
        report = validate_raw_config(probe)
        assert report.ok
        assert report.codes() == {"PHO-LINK-MARGIN"}

    @pytest.mark.parametrize(
        "value", [10**400, float("nan"), True], ids=["huge-int", "nan", "bool"]
    )
    def test_non_numeric_crosstalk_is_type_error(self, value):
        # Each once crashed the doctor (huge int: OverflowError), passed
        # every check (NaN fails every comparison) or read as 1 dB (bool).
        report = validate_raw_config(
            {"machine": "spacx", "crosstalk": {"suppression_db": value}}
        )
        [error] = report.errors
        assert error.code == "DOC-TYPE"
        assert "suppression_db" in error.message

    def test_report_is_json_serialisable(self):
        report = validate_raw_config(
            {"machine": "spacx", "laser_power_mw": -1, "bogus": 1}
        )
        json.dumps(report.to_dict())
