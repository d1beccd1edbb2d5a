"""Configuration dataclasses for every subsystem of the mmHand reproduction.

The defaults follow the paper's experimental setup (TI IWR1443: 77-81 GHz,
80 us chirps, 64 samples per chirp, 3 TX x 4 RX TDM-MIMO) with scaled-down
cube sizes so that the from-scratch numpy network trains in minutes rather
than GPU-days. Every size is configurable; the DSP is exact for any size.

All configs are frozen dataclasses: construct once, pass around freely.
``validate()`` is called from ``__post_init__`` so an invalid config fails
at construction time, not deep inside the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import ConfigError

SPEED_OF_LIGHT = 299_792_458.0
"""Propagation speed of mmWave signals in air (m/s)."""


@dataclass(frozen=True)
class RadarConfig:
    """FMCW radar front-end parameters, defaulted to the TI IWR1443 setup.

    The paper transmits chirps from 77 GHz to 81 GHz with an 80 us cycle
    time, samples 64 times per chirp, and cycles the 3 transmit antennas
    64 times per frame. ``chirp_loops`` defaults lower (16) to keep the
    simulated cube small; the Doppler axis is simply shorter.
    """

    start_frequency_hz: float = 77.0e9
    bandwidth_hz: float = 4.0e9
    chirp_duration_s: float = 80.0e-6
    samples_per_chirp: int = 64
    chirp_loops: int = 16
    num_tx: int = 3
    num_rx: int = 4
    frame_period_s: float = 0.05
    tx_power: float = 1.0
    noise_std: float = 0.02
    rx_spacing_wavelengths: float = 0.5

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0:
            raise ConfigError("bandwidth_hz must be positive")
        if self.chirp_duration_s <= 0:
            raise ConfigError("chirp_duration_s must be positive")
        if self.samples_per_chirp < 4:
            raise ConfigError("samples_per_chirp must be at least 4")
        if self.chirp_loops < 2:
            raise ConfigError("chirp_loops must be at least 2")
        if self.num_tx < 1 or self.num_rx < 2:
            raise ConfigError(
                "AoA estimation requires at least 1 TX and 2 RX antennas"
            )
        if self.noise_std < 0:
            raise ConfigError("noise_std cannot be negative")

    @property
    def wavelength_m(self) -> float:
        """Carrier wavelength at the chirp centre frequency."""
        centre = self.start_frequency_hz + self.bandwidth_hz / 2.0
        return SPEED_OF_LIGHT / centre

    @property
    def sample_rate_hz(self) -> float:
        """ADC sample rate implied by samples-per-chirp over the chirp."""
        return self.samples_per_chirp / self.chirp_duration_s

    @property
    def range_resolution_m(self) -> float:
        """Range resolution c / (2B)."""
        return SPEED_OF_LIGHT / (2.0 * self.bandwidth_hz)

    @property
    def max_range_m(self) -> float:
        """Maximum unambiguous range for complex baseband sampling."""
        return self.range_resolution_m * self.samples_per_chirp

    @property
    def chirp_repetition_s(self) -> float:
        """Per-TX chirp repetition interval under TDM-MIMO."""
        return self.chirp_duration_s * self.num_tx

    @property
    def max_velocity_mps(self) -> float:
        """Maximum unambiguous radial velocity (per-TX Doppler sampling)."""
        return self.wavelength_m / (4.0 * self.chirp_repetition_s)

    @property
    def velocity_resolution_mps(self) -> float:
        """Velocity resolution across one frame of chirp loops."""
        return self.wavelength_m / (
            2.0 * self.chirp_repetition_s * self.chirp_loops
        )

    @property
    def num_virtual_antennas(self) -> int:
        """Size of the TDM-MIMO virtual array."""
        return self.num_tx * self.num_rx


@dataclass(frozen=True)
class DspConfig:
    """Signal pre-processing parameters.

    The paper filters the IF signal with an 8th-order Butterworth bandpass
    that keeps the hand's range band, then runs range-FFT, Doppler-FFT and
    angle-FFT, using zoom-FFT with a refinement factor of 2 restricted to
    +/-30 degrees for both azimuth and elevation.

    ``precision`` selects the arithmetic of the whole DSP chain:
    ``"exact"`` (default) runs in complex128/float64; ``"fast"`` runs in
    complex64/float32, roughly halving memory bandwidth at the cost of
    ~1e-5 relative error on cube values -- far below the noise floor of
    the joint-error metrics (see DESIGN.md "Performance").
    """

    butterworth_order: int = 8
    hand_band_m: Tuple[float, float] = (0.08, 0.62)
    range_bins: int = 32
    doppler_bins: int = 8
    azimuth_bins: int = 16
    elevation_bins: int = 16
    angle_span_deg: float = 30.0
    zoom_factor: int = 2
    segment_frames: int = 4
    range_window: str = "hann"
    doppler_window: str = "hann"
    precision: str = "exact"

    def __post_init__(self) -> None:
        if self.precision not in ("exact", "fast"):
            raise ConfigError(
                "precision must be 'exact' or 'fast', got "
                f"{self.precision!r}"
            )
        lo, hi = self.hand_band_m
        if not 0 <= lo < hi:
            raise ConfigError("hand_band_m must satisfy 0 <= lo < hi")
        if self.butterworth_order < 1:
            raise ConfigError("butterworth_order must be >= 1")
        if min(self.range_bins, self.doppler_bins) < 2:
            raise ConfigError("range_bins and doppler_bins must be >= 2")
        if min(self.azimuth_bins, self.elevation_bins) < 2:
            raise ConfigError("angle bins must be >= 2")
        if self.zoom_factor < 1:
            raise ConfigError("zoom_factor must be >= 1")
        for name in ("azimuth_bins", "elevation_bins"):
            bins = getattr(self, name)
            evaluated = self.evaluated_angle_bins(bins)
            if bins % evaluated:
                raise ConfigError(
                    f"{name}={bins} is not a multiple of the "
                    f"{evaluated}-point grid evaluated at "
                    f"zoom_factor={self.zoom_factor}"
                )
        if self.segment_frames < 1:
            raise ConfigError("segment_frames must be >= 1")
        if not 0 < self.angle_span_deg <= 90:
            raise ConfigError("angle_span_deg must lie in (0, 90]")

    def evaluated_angle_bins(self, bins: int) -> int:
        """Angle-grid density under the zoom refinement.

        ``zoom_factor`` 2 (the paper's setting) evaluates the full
        ``bins`` grid; factor 1 halves the evaluated density (plain FFT
        resolution) and the spectrum is repeated up to ``bins`` to keep
        the cube size fixed -- this is what the zoom-FFT ablation
        compares.
        """
        return min(max(2, (bins * self.zoom_factor) // 2), bins)

    @property
    def angle_bins_total(self) -> int:
        """Angle-axis length of the radar cube (azimuth + elevation)."""
        return self.azimuth_bins + self.elevation_bins

    @property
    def angle_span_rad(self) -> float:
        return math.radians(self.angle_span_deg)

    @property
    def complex_dtype(self) -> str:
        """Complex dtype name of the DSP chain under ``precision``."""
        return "complex64" if self.precision == "fast" else "complex128"

    @property
    def float_dtype(self) -> str:
        """Real dtype name of cube values under ``precision``."""
        return "float32" if self.precision == "fast" else "float64"


@dataclass(frozen=True)
class ModelConfig:
    """mmSpaceNet + temporal model hyper-parameters.

    ``base_channels`` and ``lstm_hidden`` are scaled to numpy-training
    budgets; the architecture (attention residual hourglass blocks, two-stage
    channel attention, spatial attention, LSTM, FC head) matches the paper.
    """

    base_channels: int = 16
    hourglass_depth: int = 2
    num_blocks: int = 2
    use_frame_attention: bool = True
    use_velocity_attention: bool = True
    use_spatial_attention: bool = True
    feature_dim: int = 96
    lstm_hidden: int = 96
    num_joints: int = 21
    dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.base_channels < 1:
            raise ConfigError("base_channels must be >= 1")
        if self.hourglass_depth < 1:
            raise ConfigError("hourglass_depth must be >= 1")
        if self.num_blocks < 1:
            raise ConfigError("num_blocks must be >= 1")
        if self.num_joints != 21:
            raise ConfigError("mmHand uses the 21-hand-joint model")
        if not 0 <= self.dropout < 1:
            raise ConfigError("dropout must lie in [0, 1)")


@dataclass(frozen=True)
class TrainConfig:
    """Training hyper-parameters.

    The paper trains 500 epochs with batch size 16, initial learning rate
    0.001 under cosine decay, and a combined loss
    ``L = beta * L3D + gamma * Lkine``. Defaults keep the paper's optimizer
    settings but fewer epochs for the scaled-down simulator datasets.
    """

    learning_rate: float = 1.0e-3
    batch_size: int = 16
    epochs: int = 30
    beta_3d: float = 1.0
    gamma_kinematic: float = 0.1
    collinear_margin: float = 0.01
    collinear_cosine: float = 0.99
    weight_decay: float = 0.0
    grad_clip: float = 5.0
    seed: int = 0
    log_every: int = 50

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.beta_3d < 0 or self.gamma_kinematic < 0:
            raise ConfigError("loss weights cannot be negative")
        if not 0 < self.collinear_cosine < 1:
            raise ConfigError("collinear_cosine must lie in (0, 1)")


@dataclass(frozen=True)
class CampaignConfig:
    """Simulated data-collection campaign, mirroring the paper's setup.

    The paper recruits 10 volunteers (5 male, 5 female, heights 1.65-1.85 m),
    hands kept 20-40 cm from the radar, performing interaction and counting
    gestures in classrooms, corridors and playgrounds; 150k valid frames per
    volunteer. ``segments_per_user`` is the scaled-down equivalent.
    """

    num_users: int = 10
    segments_per_user: int = 120
    distance_range_m: Tuple[float, float] = (0.20, 0.40)
    environments: Tuple[str, ...] = ("classroom", "corridor", "playground")
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_users < 1:
            raise ConfigError("num_users must be >= 1")
        if self.segments_per_user < 1:
            raise ConfigError("segments_per_user must be >= 1")
        lo, hi = self.distance_range_m
        if not 0 < lo < hi:
            raise ConfigError("distance_range_m must satisfy 0 < lo < hi")
        if not self.environments:
            raise ConfigError("at least one environment is required")


@dataclass(frozen=True)
class SystemConfig:
    """Bundle of every subsystem configuration for the end-to-end pipeline."""

    radar: RadarConfig = field(default_factory=RadarConfig)
    dsp: DspConfig = field(default_factory=DspConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
