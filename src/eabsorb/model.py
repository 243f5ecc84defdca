"""Lumped transducer/enclosure model and current-source circuit algebra.

The absorber plant is a current-driven loudspeaker closed by a sealed
cabinet.  Everything is expressed in specific-acoustic units (Pa.s/m for
impedances) referred to a single fixed cross-section, so the piston area
never appears outside of the raw-parameter conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import check_number, check_positive
from .rational import RationalTransfer

__all__ = [
    "AirProperties", "CurrentSourceDesign", "DEFAULT_AIR", "DriverModel", "RawDriverParams",
    "current_source_gains", "derive_specific_model", "passive_impedance", "table_reference_model",
]


@dataclass(frozen=True)
class AirProperties:
    """Ambient air: mass density (kg/m^3) and speed of sound (m/s)."""

    rho0: float = 1.2
    c0: float = 343.0

    def __post_init__(self):
        check_positive(self, "rho0", "c0")

    @property
    def characteristic_impedance(self) -> float:
        """rho0*c0, the matched specific impedance (Pa.s/m)."""
        return self.rho0 * self.c0


DEFAULT_AIR = AirProperties()


@dataclass(frozen=True)
class RawDriverParams:
    """Raw Thiele-Small data of a driver mounted on a sealed box."""

    mms: float  # moving mass (kg)
    cms: float  # mechanical compliance (m/N)
    rms: float  # mechanical resistance (N.s/m)
    bl: float  # force factor (T.m)
    sd: float  # effective piston area (m^2)
    vb: float  # enclosure volume (m^3)

    def __post_init__(self):
        check_positive(self, "mms", "cms", "rms", "bl", "sd", "vb")


@dataclass(frozen=True)
class DriverModel:
    """Specific-unit plant description: the five controller parameters.

    rss:             specific mechanical resistance (Pa.s/m)
    omega0:          natural angular frequency of the boxed driver (rad/s)
    qms:             passive mechanical quality factor
    pressure_factor: Bl/Sd, drive pressure per ampere (Pa/A)
    csb:             box specific compliance (m/Pa)
    """

    rss: float
    omega0: float
    qms: float
    pressure_factor: float
    csb: float
    air: AirProperties = DEFAULT_AIR

    def __post_init__(self):
        check_positive(self, "rss", "omega0", "qms", "pressure_factor", "csb")

    @property
    def f0_hz(self) -> float:
        return self.omega0 / (2.0 * math.pi)

    @property
    def mss(self) -> float:
        """Specific moving mass (kg/m^2), Rss*Qms/omega0."""
        return self.rss * self.qms / self.omega0

    @property
    def ksc(self) -> float:
        """Specific combined stiffness (Pa/m), Mss*omega0^2."""
        return self.mss * self.omega0**2

    def scaled(self, rss=1.0, omega0=1.0, qms=1.0, pressure_factor=1.0, csb=1.0) -> "DriverModel":
        """This model with each parameter times its factor, in the same air:
        the plant a controller assumes when its estimates are off by them."""
        return DriverModel(
            self.rss * check_number(rss, "rss"),
            self.omega0 * check_number(omega0, "omega0"),
            self.qms * check_number(qms, "qms"),
            self.pressure_factor * check_number(pressure_factor, "pressure_factor"),
            self.csb * check_number(csb, "csb"),
            self.air,
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "rss": self.rss,
            "f0_hz": self.f0_hz,
            "qms": self.qms,
            "f_pa_per_a": self.pressure_factor,
            "csb_m_per_pa": self.csb,
            "rho0": self.air.rho0,
            "c0": self.air.c0,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DriverModel":
        return cls(
            rss=d["rss"],
            omega0=2.0 * math.pi * check_number(d["f0_hz"], "f0_hz"),
            qms=d["qms"],
            pressure_factor=d["f_pa_per_a"],
            csb=d["csb_m_per_pa"],
            air=AirProperties(d["rho0"], d["c0"]),
        )


def table_reference_model(air: AirProperties = DEFAULT_AIR) -> DriverModel:
    """Measured parameters of the reference absorber prototype."""
    return DriverModel(
        rss=0.6734 * air.characteristic_impedance,
        omega0=2.0 * math.pi * 205.5,
        qms=5.466,
        pressure_factor=1.084e3,  # 1.084 Pa/mA
        csb=1.808e-6,
        air=air,
    )


def derive_specific_model(raw: RawDriverParams, air: AirProperties = DEFAULT_AIR) -> DriverModel:
    """Convert raw driver/box data into the specific-unit plant model."""
    csb = raw.vb / (air.rho0 * air.c0**2 * raw.sd)
    # combined compliance: suspension in parallel (force-wise) with the box
    inv_cmc = 1.0 / raw.cms + raw.sd / csb
    cmc = 1.0 / inv_cmc
    omega0 = 1.0 / math.sqrt(raw.mms * cmc)
    qms = math.sqrt(raw.mms / cmc) / raw.rms
    return DriverModel(
        rss=raw.rms / raw.sd,
        omega0=omega0,
        qms=qms,
        pressure_factor=raw.bl / raw.sd,
        csb=csb,
        air=air,
    )


def passive_impedance(model: DriverModel) -> RationalTransfer:
    """Specific impedance of the uncontrolled boxed driver.

    Rss * (s^2 + s*w0/Q + w0^2) / (s*w0/Q); purely resistive (= Rss) at w0.
    """
    w0, q = model.omega0, model.qms
    num = [model.rss, model.rss * w0 / q, model.rss * w0**2]
    den = [w0 / q, 0.0]
    return RationalTransfer.from_coeffs(num, den)


# -- voltage-controlled current source (drive electronics) -------------------


@dataclass(frozen=True)
class CurrentSourceDesign:
    """Resistor network of the voltage-controlled current source (ohms)."""

    r1: float
    r2: float
    r3: float
    r4: float
    r5: float

    def __post_init__(self):
        check_positive(self, "r1", "r2", "r3", "r4", "r5")


def current_source_gains(design: CurrentSourceDesign) -> tuple[float, float]:
    """(transconductance, output leakage), both in A/V.

    The leakage term multiplies the output voltage; it is exactly zero when
    R1 = R2 and R3 = R4 + R5.
    """
    r1, r2, r3, r4, r5 = design.r1, design.r2, design.r3, design.r4, design.r5
    den = (r1 + r4) * r2 * r5
    transconductance = (r3 * r4 + r2 * (r4 + r5)) / den
    leakage = (r1 * r3 - r2 * (r4 + r5)) / den
    return transconductance, leakage
