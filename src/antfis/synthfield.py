"""Analytic bubble-plume field over a cylindrical column.

Stands in for unpublished simulation data: a Gaussian gas plume rises
from a sparger on the axis, widening with height, with hydrostatic
pressure reduced by the gas fraction. All three fields are deterministic
functions of (r, z), so a seeded sampler yields reproducible node tables.

The sampler fills its table in row blocks (dataset._row_blocks) from one
PCG64 stream, all uniforms first and then all normals, so its bytes are
those of one full-length draw whatever the block size, and its memory
is about one table plus one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import (FEATURE_NAMES, DataSet, FeatureStage, _adopt,
                      _first_invalid_row, _row_blocks)
from .errors import UsageError

RAMP_LENGTH = 0.1  # m over which the plume switches on above the sparger


@dataclass(frozen=True)
class ReactorGeometry:
    """Cylindrical column dimensions (meters)."""

    height: float = 2.6
    diameter: float = 0.288
    sparger_height: float = 0.5

    def __post_init__(self):
        if not math.inf > self.height > self.sparger_height >= 0.0:
            raise UsageError("geometry requires finite height (--height) > "
                             "sparger_height (--sparger-height) >= 0")
        if not 0.0 < self.radius * self.radius < math.inf:
            raise UsageError("geometry requires diameter (--diameter) > 0 "
                             "whose squared radius is finite")

    @property
    def radius(self) -> float:
        return self.diameter / 2.0


@dataclass(frozen=True)
class PlumeParams:
    """Plume shape, fluid constants, and target noise level.

    Defaults are physically plausible for an air-water column; they are
    configuration, not measured truth.
    """

    alpha_max: float = 0.15   # peak gas holdup on the axis
    sigma0: float = 0.03      # plume half-width at the sparger (m)
    spread: float = 0.02      # half-width growth per meter of rise
    u_max: float = 0.25       # peak gas superficial velocity (m/s)
    rho_liquid: float = 998.0
    g: float = 9.81
    p_atm: float = 101325.0
    noise_sd: float = 0.005   # additive Gaussian noise on the target

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise UsageError(f"{name} (--{name.replace('_', '-')}) must be "
                                 f"finite, got {value}")
        if not 0.0 < self.alpha_max < 1.0:
            raise UsageError("alpha_max (--alpha-max) must be in (0, 1)")
        if self.sigma0 <= 0.0 or self.spread < 0.0 or self.noise_sd < 0.0:
            raise UsageError("sigma0 (--sigma0) > 0, spread (--spread) >= 0, "
                             "noise_sd (--noise-sd) >= 0 required")


def _fields(r2, z, geom: ReactorGeometry, params: PlumeParams):
    """(pressure, velocity, holdup) at squared radii r2 and heights z of
    points known to lie inside the column: fields_at and generate_dataset
    both go through here, which computes the profile and ramp once.

    The pressure's mean holdup of the cross-section is the closed form of
    the disc integral of the radial Gaussian:
    alpha_max * ramp(z) * (2 sigma^2 / R^2) * (1 - exp(-R^2 / (2 sigma^2))),
    sigma being the plume half-width at height z.
    """
    sigma = params.sigma0 + params.spread * np.maximum(z - geom.sparger_height, 0.0)
    two_s2 = 2.0 * sigma ** 2
    ramp = np.clip((z - geom.sparger_height) / RAMP_LENGTH, 0.0, 1.0)
    R2 = geom.radius ** 2
    frac = two_s2 / R2 * (1.0 - np.exp(-R2 / two_s2))
    pressure = params.p_atm + params.rho_liquid * params.g * (geom.height - z) \
        * (1.0 - params.alpha_max * ramp * frac)
    profile = np.exp(-r2 / two_s2)
    return (pressure, params.u_max * profile * ramp,
            params.alpha_max * profile * ramp)


def fields_at(x, y, z, geom: ReactorGeometry, params: PlumeParams):
    """(pressure, velocity, holdup) at interior points, one value per point.

    x, y and z broadcast against each other. Pressure is hydrostatic,
    corrected for the mean holdup of the cross-section; velocity and
    holdup share one radial Gaussian profile. ValueError if a point lies
    outside the cylinder or has a NaN coordinate.
    """
    x, y, z = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                    for v in (x, y, z)))
    r2 = x ** 2 + y ** 2
    inside = (r2 <= geom.radius ** 2 * (1.0 + 1e-12)) & (0.0 <= z) \
        & (z <= geom.height)
    if not inside.all():
        raise ValueError("fields_at: a point is outside the cylinder or NaN")
    return _fields(r2, z, geom, params)


def generate_dataset(geom: ReactorGeometry, params: PlumeParams, n: int,
                     seed: int) -> DataSet:
    """Draw n nodes uniformly inside the cylinder and tabulate the fields.

    Polar sampling with radius R*sqrt(U) gives the area-correct radial
    density. The target is holdup plus seeded Gaussian noise, clamped to
    [0, 1]. Row order equals sampling order; identical (geom, params, n,
    seed) reproduce identical datasets. Every parameter is finite, so only
    the pressure can overflow; that raises UsageError naming its flags
    and the first row at fault.

    The (n, 5) features and (n,) targets are allocated once and filled in
    the row blocks of dataset._row_blocks: a first pass draws each
    block's (rows, 3) uniforms and writes its coordinates and fields, a
    second adds each block's noise. One PCG64 stream gives all uniforms,
    then all normals, the numbers of one full-length draw of each, so the
    bytes do not depend on the block size. Memory is about one table plus
    one block's temporaries, flat in the block count.
    """
    if not n >= 1:
        raise UsageError(f"generate_dataset: n (--n) must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    X = np.empty((n, len(FEATURE_NAMES)))
    alpha = np.empty(n)
    blocks = _row_blocks(n)
    for start, stop in blocks:
        u = rng.random((stop - start, 3))
        r = geom.radius * np.sqrt(u[:, 0])
        theta = 2.0 * math.pi * u[:, 1]
        x = r * np.cos(theta)
        y = r * np.sin(theta)
        z = geom.height * u[:, 2]
        rows = X[start:stop]
        rows[:, 0], rows[:, 1], rows[:, 2] = x, y, z
        rows[:, 3], rows[:, 4], alpha[start:stop] = _fields(
            x ** 2 + y ** 2, z, geom, params)
    for start, stop in blocks:
        alpha[start:stop] += params.noise_sd \
            * rng.standard_normal(stop - start)
    np.clip(alpha, 0.0, 1.0, out=alpha)
    bad = _first_invalid_row(X, alpha)
    if bad is not None:
        raise UsageError(f"generate_dataset: the parameters give a non-finite "
                         f"pressure (row {bad[0]}: {bad[1]}); lower --p-atm, "
                         f"--rho-liquid, --g, --height, --sigma0 or --spread")
    return _adopt(X, alpha, FeatureStage.XYZPV5)
