"""Per-step references that the hoisted stepping loops in ``src/`` must match bit for bit."""

import math

from transient_kinetics.kinetics import conversion_update, dose_update, trigger_coupling


def advance(
    hf: float,
    alpha: float,
    k_thermal: float,
    uv_on: bool,
    dt: float,
    k_photo: float,
    hf_max: float,
    hf_sat: float,
) -> tuple[float, float]:
    """One exact step of the coupled dose and conversion laws at frozen conditions.

    Under UV the fluoride dose approaches ``hf_max`` first-order at
    ``k_photo`` (the dose persists in the dark); alpha then advances at
    ``k_thermal`` scaled by the trigger coupling of the updated dose
    fraction hf / hf_max. The step's decay factors are computed here, on
    every call, and applied by ``dose_update`` and ``conversion_update``.
    Returns the new (hf, alpha).
    """
    if uv_on:
        hf = dose_update(hf, hf_max, math.exp(-k_photo * dt))
    k_eff = k_thermal * trigger_coupling(hf / hf_max, hf_sat)
    return hf, conversion_update(alpha, k_eff, math.exp(-k_eff * dt))
