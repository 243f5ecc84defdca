from pathlib import Path

import pytest

import eabsorb as ea

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def ref_model() -> ea.DriverModel:
    return ea.table_reference_model()


@pytest.fixture(scope="session")
def rc(ref_model) -> float:
    return ref_model.air.characteristic_impedance


@pytest.fixture(scope="session")
def targets(rc) -> dict:
    """The three reference target configurations."""
    return {
        "1dof": ea.TargetSpec.multi([(rc, 400.0, 7.0)]),
        "broadband": ea.TargetSpec.multi([(rc, 200.0, 0.25)]),
        "2dof": ea.TargetSpec.multi([(rc, 100.0, 7.0), (rc, 400.0, 7.0)]),
    }


@pytest.fixture(scope="session")
def fb4() -> ea.FeedbackSpec:
    return ea.FeedbackSpec.from_hz(4.0, 500.0)


@pytest.fixture(scope="session")
def fb0() -> ea.FeedbackSpec:
    return ea.FeedbackSpec.from_hz(0.0, 500.0)
