"""Flat run configuration: defaults, `key = value` files and flag overrides.

Precedence is flags over file over defaults.  The flat text format keeps
experiment configurations diff-able; unknown keys are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .detector import DetectorConfig
from .kinematics import FallConfig
from .modes import ModeGeometry, ModeIndex
from .transmission import Detunings, Rates, SystemConfig

CESIUM_MASS_KG = 2.20695e-25


class ConfigError(ValueError):
    """Invalid configuration file or option set."""


@dataclass
class RunConfig:
    g0_mhz: float = Rates.g0
    kappa_mhz: float = Rates.kappa
    gamma_mhz: float = Rates.gamma
    delta_pa_mhz: float = Detunings.delta_pa
    delta_ca_mhz: float = Detunings.delta_ca
    mode_m: int = ModeIndex.m
    mode_n: int = ModeIndex.n
    w0_um: float = ModeGeometry.w0_um
    wavelength_nm: float = ModeGeometry.wavelength_nm
    tilt_deg: float = ModeGeometry.tilt_deg
    drop_height_m: float = FallConfig.drop_height_m
    gravity_mps2: float = FallConfig.gravity_mps2
    atom_mass_kg: float = CESIUM_MASS_KG
    bin_width_us: float = DetectorConfig.bin_width_us
    flux0_cps: float = DetectorConfig.flux0_cps
    background_cps: float = DetectorConfig.background_cps
    window_start_us: float = DetectorConfig.window_us[0]
    window_stop_us: float = DetectorConfig.window_us[1]
    seed: int = 0
    out: str = ""


# RunConfig field annotation -> the type a file value or flag is parsed as
_VALUE_TYPES = {"int": int, "float": float, "str": str}


def _coerce(field_type: str, key: str, raw: str, where: str):
    try:
        return _VALUE_TYPES[field_type](raw)
    except ValueError:
        raise ConfigError(f"{where}: invalid value {raw!r} for key '{key}'") from None


def load_run_config(path) -> RunConfig:
    """Parse a flat `key = value` file; blank lines and # comments allowed."""
    path = Path(path)
    by_name = {f.name: f for f in fields(RunConfig)}
    rc = RunConfig()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in by_name:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        setattr(rc, key, _coerce(by_name[key].type, key, raw, f"{path}:{lineno}"))
    return rc


def dump_run_config(path, rc: RunConfig) -> None:
    """Write the effective configuration; re-loading reproduces it exactly."""
    lines = []
    for f in fields(RunConfig):
        v = getattr(rc, f.name)
        lines.append(f"{f.name} = {v!r}" if isinstance(v, float) else f"{f.name} = {v}")
    Path(path).write_text("\n".join(lines) + "\n")


def apply_overrides(rc: RunConfig, overrides: dict) -> RunConfig:
    """Set the non-None entries of a flag dictionary onto a config."""
    by_name = {f.name for f in fields(RunConfig)}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in by_name:
            raise ConfigError(f"unknown configuration key '{key}'")
        setattr(rc, key, value)
    return rc


def system_config(rc: RunConfig) -> SystemConfig:
    return SystemConfig(
        rates=Rates(rc.g0_mhz, rc.kappa_mhz, rc.gamma_mhz),
        detunings=Detunings(rc.delta_pa_mhz, rc.delta_ca_mhz),
        mode=ModeIndex(rc.mode_m, rc.mode_n),
        geometry=ModeGeometry(rc.w0_um, rc.wavelength_nm, rc.tilt_deg),
    )


def detector_config(rc: RunConfig) -> DetectorConfig:
    return DetectorConfig(
        bin_width_us=rc.bin_width_us,
        flux0_cps=rc.flux0_cps,
        background_cps=rc.background_cps,
        window_us=(rc.window_start_us, rc.window_stop_us),
    )


def fall_config(rc: RunConfig) -> FallConfig:
    return FallConfig(drop_height_m=rc.drop_height_m, gravity_mps2=rc.gravity_mps2)
