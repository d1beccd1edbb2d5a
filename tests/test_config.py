"""Tests of configuration validation and derived radar quantities."""

import numpy as np
import pytest

from repro.config import (
    SPEED_OF_LIGHT,
    CampaignConfig,
    DspConfig,
    ModelConfig,
    RadarConfig,
    SystemConfig,
    TrainConfig,
)
from repro.errors import ConfigError


def test_default_radar_matches_iwr1443_setup():
    config = RadarConfig()
    assert config.start_frequency_hz == 77e9
    assert config.bandwidth_hz == 4e9  # 77-81 GHz
    assert config.chirp_duration_s == 80e-6
    assert config.samples_per_chirp == 64
    assert config.num_tx == 3
    assert config.num_rx == 4
    assert config.num_virtual_antennas == 12


def test_radar_derived_quantities():
    config = RadarConfig()
    assert config.range_resolution_m == pytest.approx(
        SPEED_OF_LIGHT / (2 * 4e9)
    )
    assert config.wavelength_m == pytest.approx(
        SPEED_OF_LIGHT / 79e9, rel=1e-6
    )
    assert config.sample_rate_hz == pytest.approx(64 / 80e-6)
    assert config.chirp_repetition_s == pytest.approx(3 * 80e-6)
    assert config.max_velocity_mps > 0
    assert config.velocity_resolution_mps < config.max_velocity_mps


def test_radar_validation():
    with pytest.raises(ConfigError):
        RadarConfig(bandwidth_hz=0)
    with pytest.raises(ConfigError):
        RadarConfig(samples_per_chirp=2)
    with pytest.raises(ConfigError):
        RadarConfig(chirp_loops=1)
    with pytest.raises(ConfigError):
        RadarConfig(num_rx=1)
    with pytest.raises(ConfigError):
        RadarConfig(noise_std=-0.1)


def test_dsp_defaults_follow_paper():
    config = DspConfig()
    assert config.butterworth_order == 8
    assert config.zoom_factor == 2
    assert config.angle_span_deg == 30.0
    assert config.angle_bins_total == (
        config.azimuth_bins + config.elevation_bins
    )
    assert config.angle_span_rad == pytest.approx(np.radians(30.0))


def test_dsp_validation():
    with pytest.raises(ConfigError):
        DspConfig(hand_band_m=(0.5, 0.2))
    with pytest.raises(ConfigError):
        DspConfig(butterworth_order=0)
    with pytest.raises(ConfigError):
        DspConfig(range_bins=1)
    with pytest.raises(ConfigError):
        DspConfig(zoom_factor=0)
    # zoom_factor=1 evaluates a 7-point grid that 15 bins cannot repeat.
    with pytest.raises(ConfigError, match="azimuth_bins=15"):
        DspConfig(azimuth_bins=15, zoom_factor=1)
    with pytest.raises(ConfigError, match="elevation_bins=9"):
        DspConfig(elevation_bins=9, zoom_factor=1)
    assert DspConfig(azimuth_bins=15, zoom_factor=2).azimuth_bins == 15
    with pytest.raises(ConfigError):
        DspConfig(segment_frames=0)
    with pytest.raises(ConfigError):
        DspConfig(angle_span_deg=120.0)


def test_model_validation():
    with pytest.raises(ConfigError):
        ModelConfig(num_joints=20)
    with pytest.raises(ConfigError):
        ModelConfig(base_channels=0)
    with pytest.raises(ConfigError):
        ModelConfig(dropout=1.0)


def test_train_defaults_follow_paper():
    config = TrainConfig()
    assert config.learning_rate == 1e-3
    assert config.batch_size == 16
    assert config.collinear_margin == 0.01  # phi in Eq. 9
    assert config.collinear_cosine == 0.99  # t in Sec. IV-B


def test_train_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0)
    with pytest.raises(ConfigError):
        TrainConfig(beta_3d=-1)
    with pytest.raises(ConfigError):
        TrainConfig(collinear_cosine=1.5)


def test_campaign_defaults_follow_paper():
    config = CampaignConfig()
    assert config.num_users == 10
    assert config.distance_range_m == (0.20, 0.40)
    assert set(config.environments) == {
        "classroom", "corridor", "playground",
    }


def test_campaign_validation():
    with pytest.raises(ConfigError):
        CampaignConfig(num_users=0)
    with pytest.raises(ConfigError):
        CampaignConfig(distance_range_m=(0.4, 0.2))
    with pytest.raises(ConfigError):
        CampaignConfig(environments=())


def test_system_config_bundles_defaults():
    system = SystemConfig()
    assert system.radar.num_tx == 3
    assert system.dsp.segment_frames >= 1
    assert system.model.num_joints == 21
