"""Tests for the configuration objects."""

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


class TestProtocolConfig:
    def test_defaults(self):
        config = ProtocolConfig()
        assert config.d_hat is None
        assert config.fm_repetitions == 8
        assert config.early_termination
        assert config.dag_parents == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(d_hat=0)
        with pytest.raises(ValueError):
            ProtocolConfig(fm_repetitions=0)
        with pytest.raises(ValueError):
            ProtocolConfig(dag_parents=0)
        with pytest.raises(ValueError):
            ProtocolConfig(gossip_rounds=0)
        with pytest.raises(ValueError):
            ProtocolConfig(epsilon=1.0)
        with pytest.raises(ValueError):
            ProtocolConfig(zeta=0.0)

    def test_custom_values_accepted(self):
        config = ProtocolConfig(d_hat=20, fm_repetitions=32, dag_parents=4,
                                gossip_rounds=10, epsilon=0.2, zeta=0.01)
        assert config.d_hat == 20
        assert config.fm_repetitions == 32
