"""Seeded low-mode perturbations of the catalog's closed-form fields.

A seed fixes, for every perturbed field, three Fourier modes with integer
wavenumbers ``|kx|, |ky| <= 2`` and random amplitudes and phases.  Integer
wavenumbers keep the fields smooth and periodic, so refinement studies still
see clean second-order behaviour.  The amplitudes of one field sum to a fixed
total, which bounds the perturbation and its gradient for every seed:

* ``iota``: the catalog's specific volume is at least 1.35, the perturbation
  at most 0.15, so iota stays above 1.2.
* ``layer_w``: the wavy layer function has ``d w/d y >= 0.75``; the
  perturbation changes that slope by at most ``2 * 0.08``, so ``|grad w|``
  stays above 0.59 and no cell becomes a defect core.
* ``omega``: every mode has non-zero wavenumber and the sampled sum is
  shifted to zero mean, so the vorticity stays solvable on the periodic box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_WAVENUMBER = 2
MODES_PER_FIELD = 3

# Total amplitude (sum of |a_k|) of each perturbed field; see the module docstring.
AMPLITUDES = {
    "v0": 0.1,
    "v1": 0.1,
    "iota": 0.15,
    "eta": 0.1,
    "nu0": 0.1,
    "nu1": 0.1,
    "layer_v0": 0.05,
    "layer_v1": 0.05,
    "layer_eta": 0.05,
    "layer_w": 0.08,
    "omega": 0.2,
}

_WAVENUMBERS = [
    (kx, ky)
    for kx in range(-MAX_WAVENUMBER, MAX_WAVENUMBER + 1)
    for ky in range(-MAX_WAVENUMBER, MAX_WAVENUMBER + 1)
    if (kx, ky) != (0, 0)
]


@dataclass(frozen=True)
class LowModes:
    """A sum of plane sine waves ``sum a*sin(kx*x + ky*y + phase)``."""

    modes: tuple[tuple[int, int, float, float], ...]

    def sample(self, extents: tuple[int, int], spacing: tuple[float, float]) -> np.ndarray:
        x = np.arange(extents[0])[:, None] * spacing[0]
        y = np.arange(extents[1])[None, :] * spacing[1]
        out = np.zeros(extents)
        for kx, ky, amp, phase in self.modes:
            out += amp * np.sin(kx * x + ky * y + phase)
        return out


def draw_modes(seed: int) -> dict[str, LowModes]:
    """The perturbation of every field for one workload seed."""
    rng = np.random.default_rng(seed)
    out = {}
    for name in sorted(AMPLITUDES):
        picks = rng.choice(len(_WAVENUMBERS), size=MODES_PER_FIELD, replace=False)
        weights = rng.uniform(0.5, 1.0, size=MODES_PER_FIELD)
        amps = AMPLITUDES[name] * weights / weights.sum()
        phases = rng.uniform(0.0, 2.0 * math.pi, size=MODES_PER_FIELD)
        out[name] = LowModes(
            tuple(
                (*_WAVENUMBERS[int(p)], float(a), float(ph))
                for p, a, ph in zip(picks, amps, phases)
            )
        )
    return out


def sample_all(modes: dict[str, LowModes], names, grid) -> dict[str, np.ndarray]:
    """Sample the named perturbations on a grid's cells."""
    arrays = {name: modes[name].sample(grid.extents, grid.spacing) for name in names}
    if "omega" in arrays:
        arrays["omega"] -= np.mean(arrays["omega"])
    return arrays
