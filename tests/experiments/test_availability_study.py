"""Tests for the Monte-Carlo degraded-mode availability study."""

import pytest

from repro.core.layer import ConvLayer, LayerSet
from repro.errors import ConfigError
from repro.experiments.resilience import (
    DEFAULT_FAILURE_RATES,
    AvailabilityPoint,
    DeviceFailureScale,
    availability_ascii_curve,
    availability_study,
    availability_table,
)


@pytest.fixture(scope="module")
def workload():
    return LayerSet(
        "probe",
        [
            ConvLayer(name="a", c=64, k=64, r=3, s=3, h=14, w=14),
            ConvLayer(name="b", c=128, k=128, r=1, s=1, h=7, w=7),
        ],
    )


@pytest.fixture(scope="module")
def points(workload):
    return availability_study(
        model=workload, rates=(0.001, 0.01), samples=32, seed=11
    )


class TestStudy:
    def test_grid_is_complete(self, points):
        cells = {(p.accelerator, p.failure_rate) for p in points}
        assert cells == {
            (acc, rate)
            for acc in ("Simba", "POPSTAR", "SPACX")
            for rate in (0.001, 0.01)
        }
        assert all(p.samples == 32 for p in points)

    def test_deterministic_in_seed(self, workload, points):
        again = availability_study(
            model=workload, rates=(0.001, 0.01), samples=32, seed=11
        )
        assert again == points

    def test_seed_changes_the_draws(self, workload, points):
        other = availability_study(
            model=workload, rates=(0.001, 0.01), samples=32, seed=12
        )
        assert [p.mean_faults for p in other] != [
            p.mean_faults for p in points
        ]

    def test_availability_decreases_with_failure_rate(self, points):
        for acc in ("Simba", "POPSTAR", "SPACX"):
            subset = sorted(
                (p for p in points if p.accelerator == acc),
                key=lambda p: p.failure_rate,
            )
            assert subset[0].availability >= subset[-1].availability
            assert subset[0].mean_faults <= subset[-1].mean_faults

    def test_sane_statistics(self, points):
        for p in points:
            assert 0.0 <= p.availability <= 1.0
            assert 0.0 <= p.dead_fraction <= 1.0
            assert p.mean_slowdown >= 1.0
            assert p.p95_slowdown >= 1.0
            assert 0.0 <= p.expected_throughput <= 1.0

    def test_total_failure_rate_kills_everything(self, workload):
        points = availability_study(
            model=workload, rates=(1.0,), samples=4, seed=1
        )
        for p in points:
            assert p.dead_fraction == 1.0
            assert p.availability == 0.0
            assert p.expected_throughput == 0.0
            assert p.mean_slowdown == float("inf")

    def test_zero_rate_is_fault_free(self, workload):
        points = availability_study(
            model=workload, rates=(0.0,), samples=4, seed=1
        )
        for p in points:
            assert p.mean_faults == 0.0
            assert p.availability == 1.0
            assert p.mean_slowdown == 1.0

    def test_failure_scale_skews_one_class(self, workload):
        """Zeroing every class removes all faults; scaling one up
        brings them back."""
        quiet = availability_study(
            model=workload,
            rates=(0.02,),
            samples=8,
            seed=2,
            scale=DeviceFailureScale(
                x_carrier=0.0,
                y_carrier=0.0,
                splitter=0.0,
                router=0.0,
                link=0.0,
            ),
        )
        assert all(p.mean_faults == 0.0 for p in quiet)

    def test_failed_degraded_machine_fails_the_study(
        self, workload, monkeypatch
    ):
        """A degraded machine the runner fails under ``on_error="skip"``
        ends the study with the runner's failure; it is never simulated
        again outside the runner."""
        from repro.core.batch import NullCache, SweepJobError, SweepRunner
        from repro.experiments import resilience
        from repro.spacx.architecture import spacx_simulator

        calls: dict = {}

        class Failing:
            """A degraded SPACX machine whose every simulation raises."""

            def __init__(self, inner, config):
                self.inner, self.config = inner, config

            def _strike(self, *args, **kwargs):
                calls[self.config] = calls.get(self.config, 0) + 1
                raise RuntimeError(f"injected failure on {self.config}")

            simulate_model = simulate_layer = _strike

            def __getattr__(self, name):
                if name.startswith("_") or name in ("inner", "config"):
                    raise AttributeError(name)
                return getattr(self.inner, name)

        def builder(chiplets, pes_per_chiplet):
            inner = spacx_simulator(chiplets, pes_per_chiplet)
            if (chiplets, pes_per_chiplet) == (32, 32):
                return inner
            return Failing(inner, (chiplets, pes_per_chiplet))

        monkeypatch.setattr(resilience, "spacx_simulator", builder)
        runner = SweepRunner(
            max_workers=1,
            cache=NullCache(),
            manifest=False,
            budget=False,
            on_error="skip",
            retries=1,
            backoff_s=0.0,
        )
        try:
            with pytest.raises(SweepJobError) as err:
                availability_study(
                    model=workload,
                    rates=(0.01, 0.05),
                    samples=16,
                    seed=3,
                    accelerators=("SPACX",),
                    runner=runner,
                )
        finally:
            runner.close()
        assert err.value.failure is runner.failures[0]
        assert err.value.failure.index == 0
        assert len(calls) >= 2
        assert all(count == 2 for count in calls.values()), calls

    def test_validation(self, workload):
        with pytest.raises(ValueError):
            availability_study(model=workload, samples=0)
        with pytest.raises(ValueError):
            availability_study(model=workload, slowdown_threshold=0.5)
        with pytest.raises(ValueError):
            availability_study(
                model=workload, rates=(-0.1,), samples=2
            )
        nan = float("nan")
        with pytest.raises(ConfigError):
            availability_study(model=workload, slowdown_threshold=nan)
        with pytest.raises(ConfigError):
            availability_study(model=workload, rates=(nan,), samples=2)
        with pytest.raises(ConfigError):
            # checked before the first simulation, however late it is
            availability_study(model=workload, rates=(0.01, -1.0), samples=2)
        with pytest.raises(KeyError):
            availability_study(
                model=workload, accelerators=("TPU",), samples=2
            )
        with pytest.raises(ValueError):
            DeviceFailureScale(router=-1.0)
        with pytest.raises(ConfigError):
            DeviceFailureScale(router=nan)

    def test_default_rates_are_sorted_probabilities(self):
        assert list(DEFAULT_FAILURE_RATES) == sorted(DEFAULT_FAILURE_RATES)
        assert all(0.0 < r < 1.0 for r in DEFAULT_FAILURE_RATES)


class TestRendering:
    def test_table(self, points):
        text = availability_table(points)
        assert "avail %" in text
        assert "SPACX" in text and "Simba" in text and "POPSTAR" in text
        assert "0.001" in text

    def test_ascii_curve(self, points):
        text = availability_ascii_curve(points, width=20)
        assert "SPACX" in text
        assert "#" in text
        assert "%" in text
        for line in text.splitlines():
            assert len(line) < 100

    def test_point_container(self):
        p = AvailabilityPoint(
            accelerator="SPACX",
            failure_rate=0.01,
            samples=8,
            mean_faults=1.0,
            dead_fraction=0.0,
            availability=0.875,
            mean_slowdown=1.1,
            p95_slowdown=1.4,
            expected_throughput=0.9,
            slowdown_threshold=1.5,
        )
        assert p.availability == 0.875
