"""Golden outputs: three fixed runs of the CLI, a set of seeded evaluations
and a set of Ziegler-Nichols hunts on seeded plants, compared by SHA-256
with the digests in golden_digests.json.

Each run's stdout (with its output directory written as "D") and every file
it writes must keep its exact bytes, and so must every seeded evaluation's
scores, kept response and error type, and every hunt's ultimate point or
error. A change that alters output bits on purpose records new digests with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json

and states the largest numeric difference it made in CHANGES.md. The
seeded evaluations and the films are checked again in a child process that
runs another BLAS kernel, since the digests must not depend on it.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from pidtune import (
    PidGains,
    PidTuneError,
    SimConfig,
    TransferFunction,
    cli,
    evaluate,
    ultimate_point,
)

from helpers import ORACLE_PLANTS, random_pole_plant, random_proper_tf, run_under_blas_kernel

DIGESTS = Path(__file__).with_name("golden_digests.json")

# Both films hold repeated points; the ZN film's 2,001 samples are decimated
# to 1,200 curve points, the random film's 501 are drawn whole.
RUNS = {
    "zn_film": ["tune", "--start", "zn", "--tmax", "20", "--max-evals", "40",
                "--out", "{D}", "--frames"],
    "random_film": ["tune", "--start", "random", "--seed", "7", "--max-evals", "25",
                    "--tmax", "5", "--out", "{D}", "--frames"],
    "simulate_samples": ["simulate", "--kp", "2", "--ki", "1", "--kd", "1", "--tmax", "10",
                         "--samples", "{D}/samples.csv"],
}


# Seeded evaluate calls: random proper plants of order 1-5 and benchmark3,
# gains of either sign from 1e-3 to 1e3, horizons of 100, 20 and 5 s, and
# every other call keeping its response.
SEEDED_CALLS = 2000
HORIZONS = (SimConfig(100.0), SimConfig(20.0), SimConfig(5.0))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _random_plant(rng) -> TransferFunction:
    """A proper plant of order 1-5, or benchmark3 one time in six."""
    order = int(rng.integers(0, 6))
    if order == 0:
        return cli.PLANT_PRESETS["benchmark3"]
    # Mostly positive denominators, so that most loops have a stable region.
    den = 10.0 ** rng.uniform(-1, 1, order + 1) * np.where(rng.random(order + 1) < 0.1, -1, 1)
    num = rng.normal(size=int(rng.integers(1, order + 2))) * 10.0 ** rng.uniform(-1, 1)
    return TransferFunction(num.tolist(), den.tolist())


def seeded_evaluation_digest() -> str:
    """SHA-256 over SEEDED_CALLS seeded evaluate calls: each ObjectiveValue's
    fields (floats as hex), each kept response's flag and sample bytes, and
    each raised PidTuneError's type name."""
    rng = np.random.default_rng(28)
    digest = hashlib.sha256()
    for i in range(SEEDED_CALLS):
        plant = _random_plant(rng)
        gains = PidGains(*(rng.choice((-1.0, 1.0), 3) * 10.0 ** rng.uniform(-3, 3, 3)).tolist())
        cfg = HORIZONS[int(rng.integers(0, 3))]
        responses = [] if i % 2 else None
        try:
            value = evaluate(gains, plant, cfg, responses)
        except PidTuneError as exc:
            digest.update(f"{i} {type(exc).__name__}\n".encode())
            continue
        fields = (value.total, value.rise_time, value.rise_term, value.deviation)
        digest.update(f"{i} {' '.join(map(float.hex, fields))} {value.rose}\n".encode())
        for resp in responses or ():
            digest.update(f"{resp.diverged} {len(resp.values)}\n".encode())
            digest.update(resp.values.tobytes())
    return digest.hexdigest()


def zn_hunt_digest() -> str:
    """SHA-256 over ultimate_point on ORACLE_PLANTS (benchmark3 among them),
    150 seeded plants of 2-4 real stable poles and 100 seeded random proper
    plants: each (ku, tu) as float hex, or the type and message of the
    PidTuneError raised. Most of the random proper plants raise, each
    NoUltimateGain message among them, and seven cross through a real root,
    two of them through infinity."""
    rng = np.random.default_rng(29)
    plants = [
        *ORACLE_PLANTS,
        *(random_pole_plant(rng) for _ in range(150)),
        *(random_proper_tf(rng) for _ in range(100)),
    ]
    digest = hashlib.sha256()
    for i, plant in enumerate(plants):
        try:
            up = ultimate_point(plant)
        except PidTuneError as exc:
            digest.update(f"{i} {type(exc).__name__}: {exc}\n".encode())
            continue
        digest.update(f"{i} {up.ku.hex()} {up.tu.hex()}\n".encode())
    return digest.hexdigest()


def run_digests(name: str, out: Path) -> dict[str, str]:
    """Run RUNS[name] into the empty directory out through cli.main; returns
    the digest of its stdout and of each file it wrote, by relative path."""
    argv = [a.replace("{D}", str(out)) for a in RUNS[name]]
    with redirect_stdout(io.StringIO()) as stdout, redirect_stderr(io.StringIO()) as stderr:
        rc = cli.main(argv)
    assert (rc, stderr.getvalue()) == (0, "")
    digests = {"stdout": _sha(stdout.getvalue().replace(str(out), "D").encode("utf-8"))}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            digests[path.relative_to(out).as_posix()] = _sha(path.read_bytes())
    return digests


@pytest.mark.parametrize("name", RUNS)
def test_outputs_match_recorded_digests(name, tmp_path):
    want = json.loads(DIGESTS.read_text())[name]
    got = run_digests(name, tmp_path)
    assert sorted(got) == sorted(want)
    assert [k for k in want if got[k] != want[k]] == []


def test_seeded_evaluations_match_recorded_digest():
    want = json.loads(DIGESTS.read_text())["seeded_evaluations"]
    assert seeded_evaluation_digest() == want


def test_zn_hunts_match_recorded_digest():
    want = json.loads(DIGESTS.read_text())["zn_hunts"]
    assert zn_hunt_digest() == want


def test_digests_hold_under_the_haswell_blas_kernel():
    # OpenBLAS picks its compute kernel for the CPU at start-up, and
    # OPENBLAS_CORETYPE overrides the pick; Haswell's is what AVX2-only and
    # AMD Zen machines run. The digests must not depend on which one rounds.
    run_under_blas_kernel("Haswell", [__file__, "-k", "seeded_evaluations or film"])


if __name__ == "__main__":
    recorded = {}
    for run_name in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            recorded[run_name] = run_digests(run_name, Path(tmp))
    recorded["seeded_evaluations"] = seeded_evaluation_digest()
    recorded["zn_hunts"] = zn_hunt_digest()
    json.dump(recorded, sys.stdout, indent=1)
    print()
