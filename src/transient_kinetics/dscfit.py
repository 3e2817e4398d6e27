"""Isothermal photo-DSC trace ingestion, rate fitting, and Arrhenius regression.

A trace is a sampled exothermic heat-flow record q(t). For a first-order
transition the model is q(t) = k * dH_total * exp(-k t); fitting (k,
dH_total) jointly by damped Gauss-Newton gives the per-temperature rate
constant, and ordinary least squares of ln k on 1/T yields the Arrhenius
parameters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DomainError,
    InsufficientDataError,
    LineError,
    UntriggeredTraceError,
    ZeroEnthalpyError,
)
from .fileio import atomic_writer, parse_bool, parse_csv, read_text
from .kinetics import GAS_CONSTANT, ArrheniusParams, check_positive, check_step_count, dsc_heat_flow

# numpy 2.0 renamed trapz
_trapezoid = getattr(np, "trapezoid", None) or np.trapz

TRACE_HEADER = "time_s,heat_flow_W"
# rows of a trace formatted per write of write_trace_csv
TRACE_ROWS_PER_WRITE = 256

MIN_FIT_SAMPLES = 8
MAX_FIT_ITERATIONS = 200
STEP_TOLERANCE = 1e-9
DAMPING_MIN = 1e-12
DAMPING_MAX = 1e8
BASELINE_TAIL_FRACTION = 0.05


@dataclass(frozen=True)
class DscTrace:
    """Isothermal heat-flow record (exothermic positive, W) at a fixed hold."""

    time_s: np.ndarray
    heat_flow_w: np.ndarray
    temperature_k: float
    uv_on: bool
    label: str = ""

    def __post_init__(self):
        time_s = np.asarray(self.time_s, dtype=float)
        heat = np.asarray(self.heat_flow_w, dtype=float)
        object.__setattr__(self, "time_s", time_s)
        object.__setattr__(self, "heat_flow_w", heat)
        if time_s.ndim != 1 or heat.ndim != 1 or time_s.size != heat.size:
            raise DomainError("time and heat flow must be 1-d arrays of equal length")
        # two points suffice to integrate; fitting demands MIN_FIT_SAMPLES
        if time_s.size < 2:
            raise DomainError("trace needs at least 2 samples")
        if np.any(time_s[1:] <= time_s[:-1]):
            raise DomainError("sample times must be strictly increasing")
        check_positive("temperature_k", self.temperature_k, " K")
        # a trace file holds its label on one '# label=' line, read back stripped
        if "".join(self.label.splitlines()) != self.label:
            raise DomainError(f"label must not hold a line break, got {self.label!r}")
        if self.label.strip() != self.label:
            raise DomainError(f"label must not begin or end with whitespace, got {self.label!r}")

    @property
    def duration(self) -> float:
        return float(self.time_s[-1] - self.time_s[0])


@dataclass(frozen=True)
class FitResult:
    """Outcome of a single-trace rate fit."""

    k: float
    total_enthalpy: float
    residual_rms: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class ArrheniusFit:
    """Arrhenius regression over (temperature, rate constant) points."""

    params: ArrheniusParams
    r_squared: float
    points: tuple[tuple[float, float], ...]


def estimate_baseline(trace: DscTrace) -> float:
    """Median heat flow over the trailing BASELINE_TAIL_FRACTION of samples, assumed post-reaction."""
    n_tail = max(1, int(math.ceil(BASELINE_TAIL_FRACTION * trace.time_s.size)))
    return float(np.median(trace.heat_flow_w[-n_tail:]))


def total_enthalpy(trace: DscTrace, baseline: float = 0.0) -> float:
    """Trapezoidal integral of the baseline-subtracted heat flow, in J."""
    corrected = trace.heat_flow_w - baseline
    value = float(_trapezoid(corrected, trace.time_s))
    if value <= 0.0:
        raise ZeroEnthalpyError(
            "trace released no net heat; conversion is undefined"
        )
    return value


def conversion_profile(trace: DscTrace, baseline: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative released-heat fraction over time.

    Returns (t, alpha) with alpha nondecreasing, clipped to [0, 1], and
    ending at exactly 1 by construction.
    """
    corrected = trace.heat_flow_w - baseline
    widths = np.diff(trace.time_s)
    increments = 0.5 * (corrected[1:] + corrected[:-1]) * widths
    cumulative = np.concatenate(([0.0], np.cumsum(increments)))
    # normalize by the same accumulation so the last sample is exactly 1
    total = float(cumulative[-1])
    if total <= 0.0:
        raise ZeroEnthalpyError("trace released no net heat; conversion is undefined")
    alpha = cumulative / total
    alpha = np.minimum(np.maximum.accumulate(alpha), 1.0)
    alpha = np.maximum(alpha, 0.0)
    return trace.time_s.copy(), alpha


def _initial_guess(trace: DscTrace, baseline: float) -> tuple[float, float]:
    """Seed (k0, dH0): dH0 from integration, k0 = 1/t63 on the cumulative curve.

    t63 is the first time the cumulative enthalpy passes 63.2% of the
    total, which equals 1/k exactly for a noiseless exponential decay.
    """
    dh0 = total_enthalpy(trace, baseline)
    t, alpha = conversion_profile(trace, baseline)
    target = 1.0 - math.exp(-1.0)
    above = np.nonzero(alpha >= target)[0]
    t0 = float(trace.time_s[0])
    if above.size and float(t[above[0]]) > t0:
        k0 = 1.0 / (float(t[above[0]]) - t0)
    else:
        k0 = 3.0 / max(trace.duration, 1e-12)
    return k0, dh0


def fit_rate_constant(trace: DscTrace, baseline: float | None = None) -> FitResult:
    """Fit (k, dH_total) of q(t) = k dH exp(-k t) by damped Gauss-Newton.

    ``baseline`` of None estimates the offset from the trailing-window
    median before fitting. Damping grows tenfold on rejected steps and
    shrinks tenfold on accepted ones; convergence is declared when the
    relative parameter step drops below 1e-9.
    """
    if not trace.uv_on:
        raise UntriggeredTraceError(
            "trace was recorded without UV; there is no reaction to fit"
        )
    if trace.time_s.size < MIN_FIT_SAMPLES:
        raise DomainError(f"fitting needs at least {MIN_FIT_SAMPLES} samples")
    if baseline is None:
        baseline = estimate_baseline(trace)

    t = trace.time_s - trace.time_s[0]
    q = trace.heat_flow_w - baseline

    k, dh = _initial_guess(trace, baseline)
    params = np.array([k, dh])

    def residuals(p):
        return q - dsc_heat_flow(p[0], p[1], t)

    def jacobian(p):
        decay = np.exp(-p[0] * t)
        dk = p[1] * decay * (1.0 - p[0] * t)
        ddh = p[0] * decay
        return np.column_stack([dk, ddh])

    r = residuals(params)
    sse = float(r @ r)
    damping = 1e-3
    converged = False
    iterations = 0

    for iterations in range(1, MAX_FIT_ITERATIONS + 1):
        jac = jacobian(params)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        scale = np.diag(np.maximum(np.diag(jtj), 1e-300))
        try:
            step = np.linalg.solve(jtj + damping * scale, jtr)
        except np.linalg.LinAlgError:
            damping = min(damping * 10.0, DAMPING_MAX)
            continue
        candidate = params + step
        if candidate[0] <= 0.0 or candidate[1] <= 0.0:
            damping = min(damping * 10.0, DAMPING_MAX)
            continue
        r_new = residuals(candidate)
        sse_new = float(r_new @ r_new)
        if sse_new <= sse:
            rel_step = float(np.max(np.abs(step) / np.maximum(np.abs(candidate), 1e-300)))
            params, r, sse = candidate, r_new, sse_new
            damping = max(damping * 0.1, DAMPING_MIN)
            if rel_step < STEP_TOLERANCE:
                converged = True
                break
        else:
            damping = min(damping * 10.0, DAMPING_MAX)

    residual_rms = math.sqrt(sse / t.size)
    return FitResult(
        k=float(params[0]),
        total_enthalpy=float(params[1]),
        residual_rms=residual_rms,
        iterations=iterations,
        converged=converged,
    )


def fit_arrhenius(points) -> ArrheniusFit:
    """Ordinary least squares of ln k on 1/T.

    The slope is -Ea/R and the intercept ln A. Needs points at two or more
    distinct temperatures (else ``InsufficientDataError``), all with T > 0
    and k > 0.
    """
    pts = tuple((float(T), float(k)) for T, k in points)
    temps = np.array([p[0] for p in pts])
    ks = np.array([p[1] for p in pts])
    distinct = np.unique(temps).size
    if distinct < 2:
        raise InsufficientDataError(
            f"Arrhenius regression needs >= 2 distinct temperatures, found {distinct} among {len(pts)} point(s)"
        )
    if np.any(temps <= 0):
        raise DomainError("temperatures must be > 0 K")
    if np.any(ks <= 0):
        raise DomainError("all rate constants must be > 0")

    # an overflow is refused below, by name, rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        x = 1.0 / temps
        if not np.isfinite(x).all():
            T = float(temps[np.argmin(np.isfinite(x))])
            raise DomainError(f"Arrhenius regression cannot take 1/T of T = {T!r} K: it overflows a float")
        y = np.log(ks)
        x_mean = x.mean()
        y_mean = y.mean()
        sxx = float(np.sum((x - x_mean) ** 2))
        sxy = float(np.sum((x - x_mean) * (y - y_mean)))
    if not (math.isfinite(sxx) and math.isfinite(sxy)):
        raise DomainError(
            "Arrhenius regression cannot take the spread of 1/T: its sums overflow a float "
            f"(sxx = {sxx!r}, sxy = {sxy!r}; 1/T from {float(x.min())!r} to {float(x.max())!r} per K)"
        )
    if sxx == 0.0:
        raise DomainError(
            "Arrhenius regression cannot tell the temperatures apart: "
            f"the spread of 1/T underflows to 0 (1/T from {float(x.min())!r} to {float(x.max())!r} per K)"
        )
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean

    fitted = intercept + slope * x
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y_mean) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))

    try:
        pre_exponential = math.exp(intercept)
    except OverflowError:
        raise DomainError(
            f"Arrhenius fit gives ln A = {float(intercept)!r}, too large for a finite pre-exponential"
        ) from None
    params = ArrheniusParams(pre_exponential=pre_exponential, activation_energy=-slope * GAS_CONSTANT)
    return ArrheniusFit(params=params, r_squared=r_squared, points=pts)


def check_synthesis(
    k: float, total_enthalpy: float, sampling: tuple[float, float], noise_fraction: float = 0.0
) -> None:
    """Refuse what ``synthesize_trace`` cannot sample: every value finite,
    k, dH, t_end and dt > 0, t_end at least 10 * dt, a finite peak heat
    flow k * dH and noise scale noise_fraction * k * dH, and at most
    ``MAX_STEPS`` samples."""
    dt, t_end = sampling
    for name, value in (("k", k), ("total_enthalpy", total_enthalpy), ("t_end", t_end), ("dt", dt)):
        check_positive(name, value)
    if t_end < 10 * dt:
        raise DomainError("t_end must be at least 10 * dt")
    if not math.isfinite(noise_fraction):
        raise DomainError(f"noise_fraction must be finite, got {noise_fraction!r}")
    if k * total_enthalpy == math.inf:
        raise DomainError(f"peak heat flow k * total_enthalpy must be finite, got {k!r} * {total_enthalpy!r}")
    # the scale exactly as synthesize_trace computes it
    if not math.isfinite(noise_fraction * k * total_enthalpy):
        raise DomainError(
            "noise scale noise_fraction * k * total_enthalpy must be finite, "
            f"got {noise_fraction!r} * {k!r} * {total_enthalpy!r}"
        )
    check_step_count(t_end, dt)


def synthesize_trace(
    k: float,
    total_enthalpy: float,
    sampling: tuple[float, float],
    noise_fraction: float = 0.0,
    seed: int | None = None,
    temperature_k: float = 298.15,
    uv_on: bool = True,
    label: str = "",
) -> DscTrace:
    """Generate a model trace with optional seeded Gaussian noise.

    Noise is scaled by the peak amplitude k * dH (the t = 0 heat flow)
    and is reproducible for a fixed seed. A draw that makes a heat flow
    overflow is refused as a DomainError.
    """
    check_synthesis(k, total_enthalpy, sampling, noise_fraction)
    dt, t_end = sampling
    n = int(math.floor(t_end / dt)) + 1
    t = np.arange(n) * dt
    q = dsc_heat_flow(k, total_enthalpy, t)
    if noise_fraction:
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore"):
            q = q + noise_fraction * k * total_enthalpy * rng.standard_normal(n)
        finite = np.isfinite(q)
        if not finite.all():
            i = int(np.argmin(finite))
            raise DomainError(
                f"noisy heat flow at t = {float(t[i])!r} s is {float(q[i])!r} W: a noise draw "
                f"times the scale {noise_fraction * k * total_enthalpy!r} W overflows"
            )
    return DscTrace(
        time_s=t,
        heat_flow_w=q,
        temperature_k=temperature_k,
        uv_on=uv_on,
        label=label,
    )


def write_trace_csv(trace: DscTrace, path: str | Path) -> None:
    """Write a trace atomically in the ingestion format (UTF-8, LF, '.' decimals)."""
    with atomic_writer(path) as fh:
        fh.write(f"# temperature_K={trace.temperature_k!r}\n")
        fh.write(f"# uv_on={'true' if trace.uv_on else 'false'}\n")
        if trace.label:
            fh.write(f"# label={trace.label}\n")
        fh.write(TRACE_HEADER + "\n")
        # a slice at a time, so that the floats and rows held at once stay
        # small beside the trace (whole, they raised synth's peak RSS)
        for start in range(0, len(trace.time_s), TRACE_ROWS_PER_WRITE):
            end = start + TRACE_ROWS_PER_WRITE
            rows = zip(trace.time_s[start:end].tolist(), trace.heat_flow_w[start:end].tolist())
            fh.write("".join([f"{t!r},{q!r}\n" for t, q in rows]))


def _parse_trace_lines(text: str, source):
    """``(metadata, time_s, heat_flow_w, last line number)`` of a trace, one line at a time."""
    meta, rows = parse_csv(text, source)
    header = ",".join(rows[0][1])
    if header.replace(" ", "") != TRACE_HEADER:
        raise LineError(source, rows[0][0], f"expected header {TRACE_HEADER!r}, got {header!r}")
    times: list[float] = []
    heats: list[float] = []
    for line_number, cells in rows[1:]:
        try:
            times.append(float(cells[0]))
            heats.append(float(cells[1]))
        except ValueError:
            raise LineError(source, line_number, f"non-numeric row {','.join(cells)!r}") from None
    if len(times) < 2:
        raise LineError(source, rows[-1][0], "trace needs at least 2 data rows")
    time_s, heat_flow_w = np.array(times), np.array(heats)
    finite = np.isfinite(time_s) & np.isfinite(heat_flow_w)
    if not finite.all():
        line_number, cells = rows[1 + int(np.argmin(finite))]
        raise LineError(source, line_number, f"non-finite row {','.join(cells)!r}")
    return meta, time_s, heat_flow_w, rows[-1][0]


def _parse_trace_block(text: str, source):
    """What ``_parse_trace_lines`` gives for a trace, read by numpy; None leaves it to that reader.

    numpy reads the lines after the header. Its parser takes a strict subset
    of what ``float`` takes, with the same bits: it refuses ``1_0`` and
    non-ASCII digits. The trace is left to the line reader when the block
    has fewer than 2 lines, when numpy refuses it, when numpy skips a line
    (it skips blank ones, which would shift the line numbers), or when a
    cell is not finite.
    """
    lines = text.splitlines()
    for n, line in enumerate(lines, start=1):  # the header: the first line neither blank nor '#'
        line = line.strip()
        if line and line[0] != "#":
            break
    else:
        return None
    meta, rows = parse_csv("\n".join(lines[:n]), source)
    if ",".join(rows[0][1]).replace(" ", "") != TRACE_HEADER:
        return None
    data = lines[n:]
    if len(data) < 2:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an all-blank block warns that it holds no data
            cells = np.loadtxt(data, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if cells.shape != (len(data), 2) or not np.isfinite(cells).all():
        return None
    time_s, heat_flow_w = cells.T.copy()
    return meta, time_s, heat_flow_w, n + len(data)


def read_trace_csv(path: str | Path) -> DscTrace:
    """Parse a trace CSV; a parse failure is a ``LineError`` naming the file and line.

    numpy reads the data block when it can; any other file goes line by
    line, so every error comes from the line parser with its line.
    """
    text = read_text(path, "trace")
    meta, time_s, heat_flow_w, last_line = _parse_trace_block(text, path) or _parse_trace_lines(text, path)

    if "temperature_K" not in meta:
        raise LineError(path, 1, "missing '# temperature_K=' metadata")
    try:
        temperature_k = float(meta["temperature_K"])
    except ValueError:
        temperature_k = math.nan
    if not 0.0 < temperature_k < math.inf:
        raise LineError(path, meta.lines["temperature_K"], f"bad temperature_K value {meta['temperature_K']!r}")
    try:
        uv_on = parse_bool(meta.get("uv_on", "false"))
    except ValueError as exc:
        raise LineError(path, meta.lines["uv_on"], str(exc)) from None
    label = meta.get("label", "")
    try:
        return DscTrace(
            time_s=time_s,
            heat_flow_w=heat_flow_w,
            temperature_k=temperature_k,
            uv_on=uv_on,
            label=label,
        )
    except DomainError as exc:
        raise LineError(path, last_line, str(exc)) from None
