"""Range-FFT, Doppler-FFT and angle processing (paper Sec. III).

The angle stage generalises the paper's zoom-FFT: the spectrum is
evaluated on a refined grid of steering directions restricted to the
+/-30 degree sector where hands appear, with a refinement factor that
doubles the grid density relative to the plain FFT bin spacing (the
paper's factor-2 zoom-FFT). Because the IWR1443 virtual array is not a
simple 2-D lattice (an 8-element azimuth row plus an elevated 4-element
row), the spectrum is computed as a steering-vector DFT over the actual
element positions, which reduces exactly to the FFT on uniform arrays.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.config import DspConfig, RadarConfig
from repro.dsp.plans import PLAN_CACHE, freeze, zoom_kernel
from repro.dsp.windows import get_window
from repro.errors import SignalProcessingError
from repro.radar.antenna import VirtualArray


def _window_dtype(dsp: DspConfig) -> np.dtype:
    """Window dtype that avoids upcasting the configured DSP precision."""
    return np.dtype(
        np.float32 if dsp.precision == "fast" else np.float64
    )


def _cast_spectrum(spectrum: np.ndarray, dsp: DspConfig) -> np.ndarray:
    """Hold the chain in complex64 under the fast dtype policy."""
    if dsp.precision == "fast":
        return spectrum.astype(np.complex64, copy=False)
    return spectrum


def range_fft(
    data: np.ndarray, radar: RadarConfig, dsp: DspConfig
) -> np.ndarray:
    """Windowed FFT along fast time, keeping the first ``range_bins`` bins.

    Input shape ``(..., samples)``; output ``(..., range_bins)``. Bin ``d``
    corresponds to range ``d * range_resolution``.
    """
    data = np.asarray(data)
    n = radar.samples_per_chirp
    if data.shape[-1] != n:
        raise SignalProcessingError(
            f"expected {n} fast-time samples, got {data.shape[-1]}"
        )
    if dsp.range_bins > n:
        raise SignalProcessingError(
            "range_bins cannot exceed samples_per_chirp"
        )
    window = get_window(dsp.range_window, n, dtype=_window_dtype(dsp))
    spectrum = np.fft.fft(data * window, axis=-1)
    return _cast_spectrum(spectrum[..., : dsp.range_bins], dsp)


def doppler_fft(
    data: np.ndarray, radar: RadarConfig, dsp: DspConfig, axis: int = -2
) -> np.ndarray:
    """Windowed FFT along slow time (chirp loops), centred on zero Doppler.

    The FFT output is fftshifted so the zero-velocity bin sits in the
    middle, then cropped to the central ``doppler_bins`` bins (hand
    motion is slow against the unambiguous velocity span).
    """
    data = np.asarray(data)
    loops = data.shape[axis]
    if loops != radar.chirp_loops:
        raise SignalProcessingError(
            f"expected {radar.chirp_loops} chirp loops on axis {axis}, "
            f"got {loops}"
        )
    if dsp.doppler_bins > loops:
        raise SignalProcessingError("doppler_bins cannot exceed chirp_loops")
    window_shape = [1] * data.ndim
    window_shape[axis] = loops
    window = get_window(
        dsp.doppler_window, loops, dtype=_window_dtype(dsp)
    ).reshape(window_shape)
    spectrum = np.fft.fftshift(np.fft.fft(data * window, axis=axis), axes=axis)
    centre = loops // 2
    lo = centre - dsp.doppler_bins // 2
    hi = lo + dsp.doppler_bins
    index = [slice(None)] * data.ndim
    index[axis] = slice(lo, hi)
    return _cast_spectrum(spectrum[tuple(index)], dsp)


def zoom_fft(
    data: np.ndarray, span: Tuple[float, float], bins: int, axis: int = -1
) -> np.ndarray:
    """Generic zoom-FFT: evaluate the DTFT of ``data`` on ``bins`` points
    of normalised frequency (cycles/sample) restricted to ``span``.

    Direct DFT-matrix evaluation -- exact and adequate at radar-cube sizes,
    and equivalent to modulate+decimate zoom-FFT implementations.
    """
    lo, hi = span
    if not -0.5 <= lo < hi <= 0.5:
        raise SignalProcessingError("span must lie within [-0.5, 0.5]")
    if bins < 1:
        raise SignalProcessingError("bins must be >= 1")
    data = np.asarray(data)
    data = np.moveaxis(data, axis, -1)
    n = data.shape[-1]
    kernel = zoom_kernel(lo, hi, bins, n)
    out = data @ kernel.T
    return np.moveaxis(out, -1, axis)


class AngleProcessor:
    """Azimuth/elevation spectra over the virtual array.

    Precomputes the steering matrix of a 2-D grid spanning the
    +/-``angle_span`` sector with the configured zoom refinement; the
    azimuth spectrum marginalises elevation and vice versa, capturing the
    array's real resolution asymmetry (8-element azimuth row vs a single
    elevated row).
    """

    def __init__(self, array: VirtualArray, dsp: DspConfig) -> None:
        self.array = array
        self.dsp = dsp
        az_eval = dsp.evaluated_angle_bins(dsp.azimuth_bins)
        el_eval = dsp.evaluated_angle_bins(dsp.elevation_bins)
        span = dsp.angle_span_rad
        self.azimuth_grid = np.linspace(-span, span, az_eval)
        self.elevation_grid = np.linspace(-span, span, el_eval)
        # The steering matrix only depends on array geometry and the
        # angle-grid config, so share it across AngleProcessor instances
        # (one per CubeBuilder, of which serving stacks create many).
        plan_key = (
            array.positions.tobytes(),
            az_eval,
            el_eval,
            float(span),
        )

        def build_steering() -> np.ndarray:
            az2d, el2d = np.meshgrid(
                self.azimuth_grid, self.elevation_grid, indexing="ij"
            )
            phases = array.steering_phases(az2d, el2d)  # (az, el, V)
            return freeze(
                np.exp(-1j * phases) / np.sqrt(array.num_virtual)
            )

        self._steering = PLAN_CACHE.get(
            "steering", plan_key, build_steering
        )
        self._steering_c64 = PLAN_CACHE.get(
            "steering",
            plan_key + ("complex64",),
            lambda: freeze(self._steering.astype(np.complex64)),
        )
        self._az_eval = az_eval
        self._el_eval = el_eval

    @property
    def azimuth_axis(self) -> np.ndarray:
        """Per-cube-bin azimuth angles (evaluated grid repeated to the
        configured bin count under the zoom ablation)."""
        return self._expand_axis(self.azimuth_grid, self.dsp.azimuth_bins)

    @property
    def elevation_axis(self) -> np.ndarray:
        """Per-cube-bin elevation angles."""
        return self._expand_axis(
            self.elevation_grid, self.dsp.elevation_bins
        )

    @staticmethod
    def _expand_axis(grid: np.ndarray, bins: int) -> np.ndarray:
        if len(grid) == bins:
            return grid.copy()
        return np.repeat(grid, bins // len(grid))

    def spectra(self, data: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Azimuth and elevation magnitude spectra of ``data``.

        ``data`` has the virtual-antenna axis *first*:
        shape ``(V, ...)``. Returns ``(azimuth, elevation)`` arrays of
        shapes ``(azimuth_bins, ...)`` and ``(elevation_bins, ...)``.
        """
        data = np.asarray(data)
        if data.shape[0] != self.array.num_virtual:
            raise SignalProcessingError(
                f"first axis must be {self.array.num_virtual} virtual "
                f"antennas, got {data.shape[0]}"
            )
        flat = data.reshape(data.shape[0], -1)
        # (az*el, V) @ (V, M) per column chunk; complex64 inputs use the
        # single-precision steering copy so the product stays complex64.
        single = flat.dtype == np.complex64
        steering = self._steering_c64 if single else self._steering
        smat = steering.reshape(-1, steering.shape[-1])
        az_eval, el_eval = self._az_eval, self._el_eval
        m = flat.shape[1]
        real_dtype = np.float32 if single else np.float64
        azimuth = np.empty((az_eval, m), dtype=real_dtype)
        elevation = np.empty((el_eval, m), dtype=real_dtype)
        # Chunk the beamformed (az*el, M) intermediate to ~1 MiB so it
        # stays cache-resident; one giant matmul is bandwidth-bound and
        # measurably slower than this blocked sweep.
        chunk = max(
            1,
            (1 << 20) // (az_eval * el_eval * flat.dtype.itemsize),
        )
        for start in range(0, m, chunk):
            block = flat[:, start : start + chunk]
            power = np.abs(smat @ block).reshape(
                az_eval, el_eval, block.shape[1]
            )
            azimuth[:, start : start + chunk] = power.mean(axis=1)
            elevation[:, start : start + chunk] = power.mean(axis=0)
        azimuth = self._upsample(azimuth, self.dsp.azimuth_bins)
        elevation = self._upsample(elevation, self.dsp.elevation_bins)
        tail = data.shape[1:]
        return (
            azimuth.reshape((self.dsp.azimuth_bins,) + tail),
            elevation.reshape((self.dsp.elevation_bins,) + tail),
        )

    @staticmethod
    def _upsample(spectrum: np.ndarray, bins: int) -> np.ndarray:
        """Nearest-neighbour repeat up to ``bins`` rows (zoom ablation;
        :class:`~repro.config.DspConfig` guarantees ``bins`` is a
        multiple of the evaluated grid)."""
        current = spectrum.shape[0]
        if current == bins:
            return spectrum
        return np.repeat(spectrum, bins // current, axis=0)
