"""Decomposition kinetics of UV-triggered degradable silicone composites.

Pure functions built around four laws:

  * first-order photolysis of the fluoride generator,
    [HF](t) = [DPI-HFP]0 * (1 - exp(-k_photo * t))
  * first-order phase conversion, alpha(t) = 1 - exp(-k * t), with the
    rate form d(alpha)/dt = k(T) * (1 - alpha) (``conversion_rate`` also
    evaluates other orders n, which no integrator uses)
  * the Arrhenius temperature dependence k(T) = A * exp(-Ea / (R * T))
  * the isothermal DSC heat flow of that first-order conversion,
    q(t) = k * dH_total * exp(-k * t), the one form that trace synthesis
    and the rate fit evaluate

All quantities are SI (s, K, J, mol, W). Activation energy is stored in
J/mol; use ``ArrheniusParams.from_kj_per_mol`` for the kJ/mol interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, UnreachableTargetError

if TYPE_CHECKING:
    import numpy as np

GAS_CONSTANT = 8.314  # J/(mol K)
ZERO_CELSIUS_K = 273.15  # 0 C in K

# Photolysis rate chosen so 95% of the fluoride generator is consumed by a
# 30 min UV dose; the saturation fraction used for trigger coupling is that
# same 95% dose.
DEFAULT_K_PHOTO = math.log(20.0) / 1800.0  # 1/s
DEFAULT_HF_SAT = 0.95

# the most steps a stepping loop may take (a predict or simulate run, the
# samples of a synth trace); more is refused before the first step
MAX_STEPS = 10**8


def check_positive(name: str, value: float, unit: str = "") -> None:
    """Refuse a value that is not finite and > 0; ``unit`` follows the bound in the message."""
    if not 0 < value < math.inf:
        raise DomainError(f"{name} must be finite and > 0{unit}, got {value!r}")


def check_step_count(horizon_s: float, dt: float) -> None:
    """Refuse a span of ``horizon_s`` at steps (or samples) of ``dt`` that needs more than ``MAX_STEPS`` of them."""
    if horizon_s / dt > MAX_STEPS:
        raise DomainError(
            f"{horizon_s:g} s at a step of {dt!r} s is over {MAX_STEPS:.0e} steps; use a larger step"
        )


@dataclass(frozen=True)
class ArrheniusParams:
    """Pre-exponential factor (1/s) and activation energy (J/mol)."""

    pre_exponential: float
    activation_energy: float

    def __post_init__(self):
        check_positive("pre_exponential", self.pre_exponential)
        if not 0 <= self.activation_energy < math.inf:
            raise DomainError(f"activation_energy must be finite and >= 0, got {self.activation_energy!r}")

    @classmethod
    def from_kj_per_mol(cls, pre_exponential: float, activation_energy_kj: float) -> "ArrheniusParams":
        return cls(pre_exponential, activation_energy_kj * 1000.0)


@dataclass(frozen=True)
class PhotolysisState:
    """Fluoride-generator inventory and its UV photolysis rate.

    ``dpi_initial`` and ``hf`` are concentrations (mol/m^3); ``k_photo``
    is the first-order photolysis rate (1/s).
    """

    dpi_initial: float
    hf: float = 0.0
    k_photo: float = DEFAULT_K_PHOTO

    def __post_init__(self):
        check_positive("dpi_initial", self.dpi_initial)
        if not 0.0 <= self.hf <= self.dpi_initial:
            raise DomainError("hf must lie in [0, dpi_initial]")
        if not 0.0 <= self.k_photo < math.inf:
            raise DomainError(f"k_photo must be finite and >= 0, got {self.k_photo!r}")

    @property
    def hf_fraction(self) -> float:
        return self.hf / self.dpi_initial

    @classmethod
    def saturated(cls, dpi_initial: float = 1.0, k_photo: float = DEFAULT_K_PHOTO) -> "PhotolysisState":
        """Fully photolyzed state; forces the trigger coupling to 1."""
        return cls(dpi_initial=dpi_initial, hf=dpi_initial, k_photo=k_photo)


@dataclass(frozen=True)
class ScheduleSegment:
    """One hold: duration (s), temperature (K), UV lamp state."""

    duration: float
    temperature: float
    uv_on: bool

    def __post_init__(self):
        check_positive("segment duration", self.duration, " s")
        check_positive("segment temperature", self.temperature, " K")


@dataclass(frozen=True)
class ExposureSchedule:
    """Ordered piecewise-constant time/temperature/UV history."""

    segments: tuple[ScheduleSegment, ...]

    def __post_init__(self):
        if not self.segments:
            raise DomainError("schedule must contain at least one segment")

    @classmethod
    def from_tuples(cls, rows) -> "ExposureSchedule":
        return cls(tuple(ScheduleSegment(*row) for row in rows))

    @property
    def min_duration(self) -> float:
        return min(seg.duration for seg in self.segments)


@dataclass(frozen=True)
class ConversionSeries:
    """Sampled trajectory of conversion and photolysis fraction.

    Three equal-length columns: the times (s), alpha and the dose fraction
    hf / dpi_initial at each sample. ``integrate_conversion`` gives numpy
    arrays; ``integrate_conversion_lists``, which ``predict`` calls, gives
    the same floats as plain lists, so that no numpy is needed.
    """

    t: list[float] | np.ndarray
    alpha: list[float] | np.ndarray
    hf_fraction: list[float] | np.ndarray


def arrhenius_rate(params: ArrheniusParams, temperature: float) -> float:
    """Rate constant k = A * exp(-Ea / (R * T)) in 1/s."""
    check_positive("temperature", temperature, " K")
    return params.pre_exponential * math.exp(
        -params.activation_energy / (GAS_CONSTANT * temperature)
    )


def isothermal_conversion(k: float, t: float) -> float:
    """Conversion alpha = 1 - exp(-k t) after time t at constant rate k."""
    if t < 0:
        raise DomainError(f"time must be >= 0, got {t}")
    if k < 0:
        raise DomainError(f"rate constant must be >= 0, got {k}")
    return -math.expm1(-k * t)


def time_to_conversion(k: float, alpha_target: float) -> float:
    """Time to reach a target conversion, t = -ln(1 - alpha) / k."""
    if not 0.0 <= alpha_target < 1.0:
        if alpha_target == 1.0:
            raise UnreachableTargetError("alpha = 1 is reached only asymptotically")
        raise DomainError(f"alpha_target must lie in [0, 1), got {alpha_target}")
    if k <= 0:
        raise UnreachableTargetError("rate constant must be > 0 to reach any conversion")
    return -math.log1p(-alpha_target) / k


def conversion_rate(k: float, alpha: float, order: float = 1.0) -> float:
    """Instantaneous rate d(alpha)/dt = k * (1 - alpha)^n."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    if order < 0:
        raise DomainError(f"reaction order must be >= 0, got {order}")
    if k < 0:
        raise DomainError(f"rate constant must be >= 0, got {k}")
    if alpha == 1.0:
        return 0.0
    return k * (1.0 - alpha) ** order


def hf_concentration(state: PhotolysisState, uv_time: float) -> float:
    """Fluoride released after a UV dose of the given duration (mol/m^3)."""
    if uv_time < 0:
        raise DomainError(f"uv_time must be >= 0, got {uv_time}")
    return state.dpi_initial * -math.expm1(-state.k_photo * uv_time)


def dsc_heat_flow(k: float, total_enthalpy: float, t: float | np.ndarray) -> float | np.ndarray:
    """Isothermal DSC heat flow q(t) = k * dH_total * exp(-k t) in W.

    ``t`` is a time or an array of times; an array gives the heat flow at
    each, and any negative time in it is refused.
    """
    import numpy as np

    if np.any(np.asarray(t) < 0):
        raise DomainError(f"time must be >= 0, got {t}")
    if total_enthalpy <= 0:
        raise DomainError(f"total_enthalpy must be > 0, got {total_enthalpy}")
    if k < 0:
        raise DomainError(f"rate constant must be >= 0, got {k}")
    return k * total_enthalpy * np.exp(-k * t)


def conversion_from_heat(partial_enthalpy: float, total_enthalpy: float) -> float:
    """Conversion as the released-heat fraction dH_t / dH_total."""
    if total_enthalpy <= 0:
        raise DomainError(f"total_enthalpy must be > 0, got {total_enthalpy}")
    if partial_enthalpy < 0 or partial_enthalpy > total_enthalpy:
        raise DomainError("partial_enthalpy must lie in [0, total_enthalpy]")
    return partial_enthalpy / total_enthalpy


def trigger_coupling(hf_fraction: float, hf_sat: float = DEFAULT_HF_SAT) -> float:
    """Dose coupling g = min(1, hf_fraction / hf_sat).

    Scales the thermal decomposition rate by the accumulated photolysis
    dose; a full 30 min reference dose (fraction >= hf_sat) gives g = 1.
    """
    check_positive("hf_sat", hf_sat)
    if hf_fraction <= 0:
        return 0.0
    return min(1.0, hf_fraction / hf_sat)


def dose_update(hf: float, hf_max: float, photo_decay: float) -> float:
    """First-order photolysis over one UV step: the dose approaches ``hf_max``
    by the step's decay factor ``photo_decay`` = exp(-k_photo * dt)."""
    return hf_max + (hf - hf_max) * photo_decay


def conversion_update(alpha: float, k_eff: float, decay: float) -> float:
    """Exact constant-rate step of d(alpha)/dt = k_eff * (1 - alpha), given the
    step's decay factor ``decay`` = exp(-k_eff * dt).

    A step at k_eff <= 0 leaves alpha as it is, and a fully converted
    sample stays at 1.
    """
    if k_eff <= 0.0:
        return alpha
    u = 1.0 - alpha
    if u <= 0.0:
        return 1.0
    return 1.0 - u * decay


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
    fraction hf / hf_max. The step's decay factors are computed here and
    applied by ``dose_update`` and ``conversion_update``. Returns the new
    (hf, alpha).
    """
    if uv_on:
        hf = dose_update(hf, hf_max, math.exp(-k_photo * dt))
    k_eff = k_thermal * trigger_coupling(hf / hf_max, hf_sat)
    return hf, conversion_update(alpha, k_eff, math.exp(-k_eff * dt))


def integrate_conversion(
    schedule: ExposureSchedule,
    params: ArrheniusParams,
    photolysis: PhotolysisState,
    dt: float,
    hf_sat: float = DEFAULT_HF_SAT,
) -> ConversionSeries:
    """``integrate_conversion_lists`` with each column a numpy array."""
    import numpy as np

    series = integrate_conversion_lists(schedule, params, photolysis, dt, hf_sat)
    return ConversionSeries(*map(np.asarray, (series.t, series.alpha, series.hf_fraction)))


def integrate_conversion_lists(
    schedule: ExposureSchedule,
    params: ArrheniusParams,
    photolysis: PhotolysisState,
    dt: float,
    hf_sat: float = DEFAULT_HF_SAT,
) -> ConversionSeries:
    """March the coupled photolysis/conversion laws through a schedule.

    Each step applies ``dose_update`` (under UV) and ``conversion_update``
    at the frozen segment conditions, with the dose in mol/m^3 (hf_max =
    dpi_initial), and gives the bits a loop of ``advance`` calls gives.
    The decay factors are computed once per segment and step length:
    exp(-k_photo * dt) under UV, and exp(-k_thermal * g * dt) while the
    coupling g holds, which it does on every dark step and on UV steps
    once the dose saturates. Only the short last step of a segment, or a
    UV step that changes g, computes a new factor. For a fully triggered
    history (g = 1) the result matches the closed-form piecewise product
    to rounding error for any step size. A ``dt`` that is not finite and
    > 0, exceeds the shortest segment or needs more than ``MAX_STEPS``
    steps over the whole schedule is refused before the first step.
    The columns of the series are lists of floats.
    """
    check_positive("dt", dt, " s")
    if dt > schedule.min_duration + 1e-12:
        raise DomainError("dt must not exceed the shortest segment duration")
    check_step_count(sum(seg.duration for seg in schedule.segments), dt)

    hf_max, k_photo = photolysis.dpi_initial, photolysis.k_photo
    hf = photolysis.hf
    hf_frac = hf / hf_max
    times = [0.0]
    alphas = [0.0]
    hf_fracs = [hf_frac]

    t = 0.0
    alpha = 0.0
    for seg in schedule.segments:
        k_thermal = arrhenius_rate(params, seg.temperature)
        uv_on = seg.uv_on
        k_eff = k_thermal * trigger_coupling(hf_frac, hf_sat)
        step = dt
        photo_decay = math.exp(-k_photo * step)
        decay = math.exp(-k_eff * step)
        remaining = seg.duration
        while remaining > 1e-12:
            if remaining < dt:  # the short last step of the segment
                step = remaining
                photo_decay = math.exp(-k_photo * step)
                decay = math.exp(-k_eff * step)
            if uv_on:  # the dose, and so its fraction and g, changes only under UV
                hf = dose_update(hf, hf_max, photo_decay)
                hf_frac = hf / hf_max
                k_next = k_thermal * trigger_coupling(hf_frac, hf_sat)
                if k_next != k_eff:
                    k_eff = k_next
                    decay = math.exp(-k_eff * step)
            alpha = conversion_update(alpha, k_eff, decay)
            t += step
            remaining -= step
            times.append(t)
            alphas.append(alpha)
            hf_fracs.append(hf_frac)

    return ConversionSeries(t=times, alpha=alphas, hf_fraction=hf_fracs)
