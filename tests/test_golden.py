"""Golden outputs: three fixed runs of the CLI, compared by SHA-256 with the
digests in golden_digests.json.

Each run's stdout (with its output directory written as "D") and every file
it writes must keep its exact bytes. A change that alters output bits on
purpose records new digests with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json

and states the largest numeric difference it made in CHANGES.md.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from pidtune import cli

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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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


if __name__ == "__main__":
    recorded = {}
    for run_name in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            recorded[run_name] = run_digests(run_name, Path(tmp))
    json.dump(recorded, sys.stdout, indent=1)
    print()
