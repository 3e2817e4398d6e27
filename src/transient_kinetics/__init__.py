"""Kinetics toolkit and lifecycle simulator for UV-degradable silicone composites.

The names below are loaded from their modules on first use, so that importing
the package (or ``transient_kinetics.cli``) does not import numpy, which only
``dscfit`` and the array-returning library calls need.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "ArrheniusParams",
            "ConversionSeries",
            "ExposureSchedule",
            "PhotolysisState",
            "ScheduleSegment",
            "arrhenius_rate",
            "conversion_from_heat",
            "conversion_rate",
            "dsc_heat_flow",
            "hf_concentration",
            "integrate_conversion",
            "isothermal_conversion",
            "time_to_conversion",
        ),
        "kinetics",
    ),
    **dict.fromkeys(
        (
            "ArrheniusFit",
            "DscTrace",
            "FitResult",
            "conversion_profile",
            "fit_arrhenius",
            "fit_rate_constant",
            "synthesize_trace",
            "total_enthalpy",
        ),
        "dscfit",
    ),
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
