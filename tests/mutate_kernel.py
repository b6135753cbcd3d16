"""Mutation checks for the scan kernel and the step map's setup: does some
test fail on each mutant?

    python tests/mutate_kernel.py              # every mutant
    python tests/mutate_kernel.py --list       # names and reasons
    python tests/mutate_kernel.py NAME [NAME...]

The kernel's soundness rests on terms of the arguments in the _kernels
docstring (the clearing bound, the settle certificate, the divergence rule
and the BLAS layout), and the tests pin their outcomes, not each term. Loop
closure in lti rounds each numerator coefficient's exact sum of products
once (math.fsum) and adds the denominator in np.polyadd's order;
realization repeats numpy's float operations in numpy's order, and the RK4
step map takes its series by Horner's rule, dividing dt a before each
product. tests/test_golden.py's seeded evaluation digest pins the bits that
come of them. Each mutant below breaks one term, one such order
or the single rounding, by an exact text replacement. For each, the tool
copies src/, tests/ and pyproject.toml into a temporary directory, makes the
replacement there, runs tests/test_lti.py, tests/test_objective.py and the
seeded digest on the copy with pytest, and prints the tests that failed
(or pytest's exit status, or a timeout), or SURVIVED when none did.
The unmutated copy runs first and must pass. An anchor that does not occur
exactly once stops the tool with an error, so a mutant cannot silently
test nothing after the code moves. One run of every mutant takes a few
minutes.

Not here: max_i |x_i| in place of sum_i |x_i| in the bound. A row's sum
of magnitudes times max(1, max_i |x_i|) bounds its dot with [x, 1, x, 1]
too, so that bound is sound as well and changes no sample, only which
blocks take the full path. Nor b + a in place of a + b in loop closure's
denominator sum, or another order of the products that math.fsum adds:
IEEE addition is commutative and fsum's one rounding does not depend on
the order, so neither changes a bit.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when an
anchor is missing or the unmutated copy fails. A surviving mutant is a gap
in the tests: close it with a test, not by deleting the mutant.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNEL = "src/pidtune/_kernels.py"
LTI = "src/pidtune/lti.py"
TESTS = [
    "tests/test_lti.py",
    "tests/test_objective.py",
    "tests/test_golden.py::test_seeded_evaluations_match_recorded_digest",
]

# name: (file, anchor, replacement, what it breaks)
MUTANTS = {
    "gate_always_clears": (
        KERNEL,
        "size * (1.0 + sum(map(abs, x.tolist()))) <= limit",
        "True",
        "every block is cleared, so no block is tested against the limit",
    ),
    "half_the_bound": (
        KERNEL,
        "if size * (1.0 + sum(",
        "if 0.5 * size * (1.0 + sum(",
        "the bound is half what it must be",
    ),
    "python_max_for_size": (
        KERNEL,
        "size = float(terms.max())",
        "size = max(*terms[BLOCK:].tolist(), float(terms[:BLOCK].max()))",
        "Python's max drops a NaN output row sum that follows a finite norm",
    ),
    "nanmax_for_size": (
        KERNEL,
        "size = float(terms.max())",
        "size = float(np.nanmax(terms))",
        "size's reduction drops a NaN norm or row sum, so a NaN table may clear blocks",
    ),
    "no_top_square_norm": (
        KERNEL,
        "terms[BLOCK:] = math.prod(norms[:-1]), norms[-1]",
        "terms[BLOCK:] = math.prod(norms[:-1])",
        "size leaves out the norm of A^BLOCK, which may exceed the others' product",
    ),
    "split_keeps_nonfinite_low": (
        KERNEL,
        "        low[~np.isfinite(high)] = 0.0",
        "        pass",
        "the split leaves NaN or inf in the low half beside a non-finite high",
    ),
    "room_is_the_whole_distance": (
        KERNEL,
        "room = min(z_ref - lower, upper - z_ref) / 2",
        "room = min(z_ref - lower, upper - z_ref)",
        "the certificate keeps no margin for rounding",
    ),
    "no_positive_definite_check": (
        KERNEL,
        "and mu >= 0.5 and",
        "and",
        "an indefinite P may certify an unstable mode",
    ),
    "no_residual_check": (
        KERNEL,
        " and resid_norm <= 0.5)",
        ")",
        "a P that does not solve the Lyapunov equation may certify",
    ),
    "certificate_past_the_block": (
        KERNEL,
        "                        return out[:start], False",
        "                        np.dot(fast, x_one, out=out[start : start + len(fast)])\n"
        "                        return out[: start + BLOCK], False",
        "a settled scan returns the next block too, past n_samples when it ends inside it",
    ),
    "trigger_column_is_the_output": (
        KERNEL,
        "j, col = divmod(int(out_of_band.argmax()), n + 1)",
        "j, col = divmod(int(out_of_band.argmax()), n + 1)[0], 0",
        "a triggering state's sign is read from the output, which is clamped too",
    ),
    "refused_block_carries_its_first_state": (
        KERNEL,
        "states[:] = block[len(block) - n :]",
        "states[:] = block[BLOCK : BLOCK + n]",
        "a block carries the n rows after its outputs, not its last state: a block in "
        "band its first state, a cleared one the fast table's zero rows",
    ),
    "diverged_prefix_one_short": (
        KERNEL,
        "min(max(first, 1) + 1, n_samples)",
        "min(max(first, 1), n_samples)",
        "a diverged settled scan ends before its first clamped sample",
    ),
    "fast_table_unpadded": (
        KERNEL,
        "np.zeros((BLOCK + n + -(BLOCK + n) % 4, n + 1), np.longdouble)",
        "np.zeros((BLOCK + n, n + 1), np.longdouble)",
        "the fast table's last rows go through another BLAS kernel than the whole table's",
    ),
    "fast_state_rows_before_padding": (
        KERNEL,
        "rows[len(rows) - n :] = powers[-1, :n]",
        "rows[BLOCK : BLOCK + n] = powers[-1, :n]",
        "A^BLOCK's state rows precede the fast table's zero rows, so a cleared block "
        "carries zeros",
    ),
    # Each lti mutant below changes an order or a rounding of the closure,
    # the realization or the step map, which moves the bits that the seeded
    # evaluation digest pins. Loop closure's denominator sum has one
    # commutative add per coefficient, so its mutant misaligns the lists.
    "closure_sum_rounds_each_add": (
        LTI,
        "num = [math.fsum(map(",
        "num = [sum(map(",
        "the closed loop's numerator is summed left to right, rounding every add",
    ),
    "closure_sum_misaligned": (
        LTI,
        "[0.0] * (width - len(num)) + num)",
        "num + [0.0] * (width - len(num)))",
        "1 + C*G adds C*G's numerator aligned at its leading term, not its last",
    ),
    "realization_by_reciprocal": (
        LTI,
        "den = [a / lead for a in tf.den[1:]]",
        "den = [a * (1.0 / lead) for a in tf.den[1:]]",
        "the monic normalization multiplies by 1/lead, which rounds twice",
    ),
    "rk4_horner_divides_after": (
        LTI,
        "(ha / j) @ vc",
        "(ha @ vc) / j",
        "the step map's Horner steps divide each product by j, not dt a before it",
    ),
}


def _copy(into: Path) -> None:
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", into / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", into)


def _failures(copy: Path) -> list[str]:
    """What fails on copy: the failed and erroring tests' ids, or the
    pytest exit status when none is named; an empty list when all pass."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *TESTS],
            cwd=copy, capture_output=True, text=True, timeout=1800,
            # No bytecode: a mutant and its restored source may share a size
            # and an mtime second, which a cached .pyc cannot tell apart.
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        )
    except subprocess.TimeoutExpired:
        return ["(timed out after 1800 s)"]
    failed = [
        line.split()[1] for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return failed or ([f"(pytest exit {proc.returncode})"] if proc.returncode else [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    opts = parser.parse_args(argv)
    if opts.list:
        for name, (_, _, _, reason) in MUTANTS.items():
            print(f"{name}: {reason}")
        return 0
    unknown = [n for n in opts.names if n not in MUTANTS]
    if unknown:
        parser.error(f"unknown mutants {unknown}; see --list")
    names = opts.names or list(MUTANTS)

    for name in names:
        path, anchor, _, _ = MUTANTS[name]
        count = (ROOT / path).read_text().count(anchor)
        if count != 1:
            print(f"{name}: anchor found {count} times in {path}: {anchor!r}")
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        _copy(copy)
        failed = _failures(copy)
        if failed:
            print(f"the unmutated copy fails {failed[:3]}; no mutant was run")
            return 2
        survived = []
        for name in names:
            path, anchor, replacement, _ = MUTANTS[name]
            source = (copy / path).read_text()
            (copy / path).write_text(source.replace(anchor, replacement))
            try:
                failed = _failures(copy)
            finally:
                (copy / path).write_text(source)
            if failed:
                shown = ", ".join(failed[:3]) + (", ..." if len(failed) > 3 else "")
                print(f"{name}: killed by {len(failed)} tests: {shown}")
            else:
                print(f"{name}: SURVIVED")
                survived.append(name)
    print(f"{len(names) - len(survived)} of {len(names)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
