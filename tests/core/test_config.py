"""Tests for the configuration objects."""

import copy
import pickle

import pytest

from repro.core.config import ProtocolConfig, SimulationConfig


class TestSimulationConfig:
    def test_defaults(self):
        config = SimulationConfig()
        assert config.delta == 1.0
        assert not config.wireless
        assert config.delay == "fixed"
        assert not hasattr(config, "stats")
        # The run seed is ValidAggregator(seed=) / query(seed=), the
        # backstop run_protocol's own: a config field for either was read
        # by nothing.
        assert not hasattr(config, "seed")
        assert not hasattr(config, "max_time")

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(delta=0.0)

    def test_delay_spec_validated_eagerly(self):
        assert SimulationConfig(delay="uniform:0.5,1.0").delay == "uniform:0.5,1.0"
        with pytest.raises(ValueError):
            SimulationConfig(delay="warp")
        with pytest.raises(ValueError):
            SimulationConfig(delay="uniform:0.9,0.1")

    def test_frozen(self):
        config = SimulationConfig()
        with pytest.raises(Exception):
            config.delta = 2.0

    def test_pickles_and_copies_despite_being_frozen(self):
        config = SimulationConfig(delta=2.0, wireless=True, delay="uniform")
        for clone in (pickle.loads(pickle.dumps(config)), copy.copy(config)):
            assert (clone.delta, clone.wireless, clone.delay, clone.lane) == (
                2.0, True, "uniform", config.lane)


class TestProtocolConfig:
    def test_defaults(self):
        config = ProtocolConfig()
        assert config.d_hat is None
        assert config.fm_repetitions == 8
        assert ProtocolConfig.__slots__ == ("d_hat", "fm_repetitions")

    def test_protocol_parameters_travel_with_the_protocol(self):
        """The config fields that went were only ever left at these
        defaults, which the spec names build too."""
        from repro.protocols.base import protocol_from_spec

        assert protocol_from_spec("wildfire").early_termination
        assert protocol_from_spec("dag").num_parents == 2
        assert protocol_from_spec("gossip").num_rounds == 50
        report = protocol_from_spec("randomized-report")
        assert (report.epsilon, report.zeta) == (0.1, 0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(d_hat=0)
        with pytest.raises(ValueError):
            ProtocolConfig(fm_repetitions=0)

    def test_custom_values_accepted(self):
        config = ProtocolConfig(d_hat=20, fm_repetitions=32)
        assert config.d_hat == 20
        assert config.fm_repetitions == 32
