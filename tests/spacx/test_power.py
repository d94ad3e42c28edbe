"""Tests for the SPACX network power model (Figures 19-21)."""

import pytest

from repro.photonics.components import AGGRESSIVE_PARAMETERS, MODERATE_PARAMETERS
from repro.spacx.power import SpacxPowerModel, granularity_sweep
from repro.spacx.topology import SpacxTopology


def _model(ef=8, k=16, params=MODERATE_PARAMETERS):
    topo = SpacxTopology(
        chiplets=32, pes_per_chiplet=32, ef_granularity=ef, k_granularity=k
    )
    return SpacxPowerModel(topo, params)


class TestLinkBudgets:
    def test_x_path_includes_broadcast_split(self):
        model = _model()
        breakdown = model.x_path_budget().breakdown()
        assert any("broadcast split" in label for label in breakdown)

    def test_y_path_includes_pe_split(self):
        model = _model()
        breakdown = model.y_path_budget().breakdown()
        assert any("1/16 broadcast split" in label for label in breakdown)

    def test_coarser_granularity_increases_loss(self):
        fine = _model(ef=4, k=4)
        coarse = _model(ef=32, k=32)
        assert (
            coarse.x_path_budget().total_loss_db
            > fine.x_path_budget().total_loss_db
        )
        assert (
            coarse.y_path_budget().total_loss_db
            > fine.y_path_budget().total_loss_db
        )


class TestFigure19And20Shapes:
    """The paper's three qualitative surface claims."""

    def _surfaces(self, params):
        return granularity_sweep(32, 32, params)

    @pytest.mark.parametrize(
        "params", [MODERATE_PARAMETERS, AGGRESSIVE_PARAMETERS]
    )
    def test_laser_minimum_at_finest_granularity(self, params):
        sweep = self._surfaces(params)
        best = min(sweep, key=lambda key: sweep[key].laser_w)
        assert best == (4, 4)

    @pytest.mark.parametrize(
        "params", [MODERATE_PARAMETERS, AGGRESSIVE_PARAMETERS]
    )
    def test_transceiver_minimum_at_coarsest_granularity(self, params):
        sweep = self._surfaces(params)
        best = min(sweep, key=lambda key: sweep[key].transceiver_w)
        assert best == (32, 32)

    @pytest.mark.parametrize(
        "params", [MODERATE_PARAMETERS, AGGRESSIVE_PARAMETERS]
    )
    def test_overall_minimum_is_interior(self, params):
        """Laser and transceiver minima disagree, so the overall
        optimum sits strictly between the grid corners."""
        sweep = self._surfaces(params)
        best = min(sweep, key=lambda key: sweep[key].overall_w)
        assert best not in ((4, 4), (32, 32))

    def test_laser_grows_exponentially_with_ef_granularity(self):
        sweep = self._surfaces(MODERATE_PARAMETERS)
        ladder = [sweep[(16, ef)].laser_w for ef in (4, 8, 16, 32)]
        growth = [b / a for a, b in zip(ladder, ladder[1:])]
        assert growth[-1] > growth[0] > 1.0

    def test_aggressive_parameters_cut_power(self):
        """Fig. 20 vs Fig. 19: every configuration gets cheaper."""
        moderate = self._surfaces(MODERATE_PARAMETERS)
        aggressive = self._surfaces(AGGRESSIVE_PARAMETERS)
        for key in moderate:
            assert aggressive[key].overall_w < moderate[key].overall_w
            assert aggressive[key].laser_w < moderate[key].laser_w

    def test_sweep_skips_nondividing_granularities(self):
        sweep = granularity_sweep(8, 8, MODERATE_PARAMETERS, (4, 8, 16))
        assert (16, 4) not in sweep
        assert (4, 4) in sweep


class TestEndpointAccounting:
    def test_active_tx_counts_gb_and_token_holders(self):
        model = _model()
        topo = model.topology
        expected = (
            topo.n_global_waveguides * topo.wavelengths_per_global_waveguide
            + topo.n_local_waveguides
        )
        assert model.active_tx_endpoints() == expected

    def test_active_rx_counts_every_pe_receiver(self):
        model = _model()
        assert model.active_rx_endpoints() == 2 * 1024 + 64

    def test_idle_rings_cover_interfaces(self):
        model = _model()
        assert model.idle_heated_mrrs() >= model.topology.n_interface_mrrs

    def test_report_sums(self):
        report = _model().report()
        assert report.overall_w == pytest.approx(
            report.laser_w + report.transceiver_w
        )
        assert report.laser_w > 0
        assert report.transceiver_w > 0


class TestCrosstalkRefinement:
    def test_crosstalk_raises_laser_power(self):
        from repro.photonics.crosstalk import DEFAULT_CROSSTALK

        plain = _model()
        refined = SpacxPowerModel(
            plain.topology, MODERATE_PARAMETERS, crosstalk=DEFAULT_CROSSTALK
        )
        assert refined.laser_power_w() > plain.laser_power_w()

    def test_penalty_modest_at_table_iii_suppression(self):
        from repro.photonics.crosstalk import DEFAULT_CROSSTALK

        plain = _model()
        refined = SpacxPowerModel(
            plain.topology, MODERATE_PARAMETERS, crosstalk=DEFAULT_CROSSTALK
        )
        # A <0.5 dB penalty is <12% extra laser power.
        assert refined.laser_power_w() < 1.2 * plain.laser_power_w()

    def test_transceiver_power_unaffected(self):
        from repro.photonics.crosstalk import DEFAULT_CROSSTALK

        plain = _model()
        refined = SpacxPowerModel(
            plain.topology, MODERATE_PARAMETERS, crosstalk=DEFAULT_CROSSTALK
        )
        assert refined.transceiver_power_w() == plain.transceiver_power_w()


def _fresh(refinement):
    """A new model of the 32 x 32 machine at e/f = 8, k = 16: plain,
    with the default crosstalk model or with its floorplan."""
    from repro.photonics.crosstalk import DEFAULT_CROSSTALK
    from repro.spacx.floorplan import Floorplan

    topo = _model().topology
    if refinement == "crosstalk":
        return SpacxPowerModel(
            topo, MODERATE_PARAMETERS, crosstalk=DEFAULT_CROSSTALK
        )
    if refinement == "floorplan":
        return SpacxPowerModel(
            topo, MODERATE_PARAMETERS, floorplan=Floorplan(topo)
        )
    return SpacxPowerModel(topo, MODERATE_PARAMETERS)


class TestMemoisedBudgets:
    """A model walks its path budgets and computes its laser power
    once; every call still hands out a budget of its own."""

    @pytest.mark.parametrize("refinement", ["plain", "crosstalk", "floorplan"])
    def test_memo_equals_a_fresh_walk(self, refinement):
        model = _fresh(refinement)
        laser = model.laser_power_w()
        for _ in range(2):
            fresh = _fresh(refinement)
            assert model.x_path_budget().items == fresh._walk_x_path().items
            assert model.y_path_budget().items == fresh._walk_y_path().items
            assert model.laser_power_w() == laser == fresh.laser_power_w()

    def test_a_returned_budget_is_the_callers(self):
        model = _fresh("crosstalk")
        expected_x = model._walk_x_path().items
        expected_y = model._walk_y_path().items
        for budget in (model.x_path_budget(), model.y_path_budget()):
            budget.add_bends(3)
            budget.items.pop(0)
        # laser_power_w appends the crosstalk penalty to its own copies.
        assert model.laser_power_w() == _fresh("crosstalk").laser_power_w()
        assert model.x_path_budget().items == expected_x
        assert model.y_path_budget().items == expected_y

    @pytest.mark.parametrize(
        "name", ["simba", "popstar", "spacx", "spacx-ba", "spacx-aggressive"]
    )
    def test_memo_leaves_fingerprints_alone(self, name):
        # The memo lives outside the model: the fingerprint (and so the
        # cache keys) must not depend on whether validation ran first.
        from repro.core.batch import simulator_fingerprint
        from repro.validate import machine_zoo, validate_simulator

        factory = machine_zoo()[name]
        before = simulator_fingerprint(factory())
        simulator = factory()
        state = dict(vars(simulator.network_energy))
        validate_simulator(simulator)
        laser = getattr(simulator.network_energy, "laser_power_w", None)
        if laser is not None:
            laser()
        assert vars(simulator.network_energy) == state
        assert simulator_fingerprint(simulator) == before
