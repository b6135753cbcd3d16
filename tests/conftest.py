import os
from pathlib import Path

import pytest

from pidtune import PidGains, SimConfig, TransferFunction, evaluate

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="session", autouse=True)
def src_on_subprocess_path():
    # Tests that run `python -m pidtune` in a child process need the src/
    # that pyproject's pytest pythonpath setting gives this process.
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield


@pytest.fixture(scope="session", autouse=True)
def warm_kernel():
    # Run one evaluation up front so timed tests measure the steady-state
    # cost, not first-call imports and allocations.
    evaluate(
        PidGains(1.0, 0.0, 0.0),
        TransferFunction((1.0,), (1.0, 0.0)),
        SimConfig(t_max=1.0, dt=0.01),
    )
