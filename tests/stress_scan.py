"""Stress pidtune._kernels.scan against the sequential oracle on random loops.

    PYTHONPATH=src python tests/stress_scan.py --loops 2000 --seed 1
    PYTHONPATH=src python tests/stress_scan.py --growing --loops 400

Each loop is a PID loop around one of helpers.ORACLE_PLANTS with gains
drawn uniformly from [-10, 10]^3, sampled 3,001 times as in
test_lti.py::test_matches_sequential_oracle. Uniform loops take the test's
limits (1e6, 10 or 3). With --growing only loops whose step map has a
complex pair of modulus in (1, 1.03) are kept, at limit 1e6: the growing
oscillations on which a step table's rounding adds up over the most samples.

Prints the number of loops, the kernel's BLOCK, how many diverged, the
divergence-flag, first-clamped-index and clamped-tail mismatches, and the
worst error before the clamp as a share of helpers.scan_error_bound, with the
loop that gave it. On that loop it also prints how far the kernel and the
oracle each are from helpers.decimal_scan, in shares of the same bound: the
oracle rounds too, so a worst error can be mostly the oracle's own.
"""

import argparse

import numpy as np

from pidtune import ImproperLoop, _kernels

from helpers import (
    ORACLE_PLANTS,
    decimal_scan,
    first_clamped,
    loop_step_map,
    scan_error_bound,
    sequential_scan,
)

N_SAMPLES = 3001
LIMITS = (1e6, 10.0, 3.0)


def _growing(step_mat) -> bool:
    eig = np.linalg.eigvals(step_mat)
    return bool(np.any((eig.imag != 0.0) & (np.abs(eig) > 1.0) & (np.abs(eig) < 1.03)))


def draw_loops(rng, count, growing):
    """Yield count (plant index, gains, limit, scan arguments) draws."""
    kept = 0
    while kept < count:
        plant = int(rng.integers(len(ORACLE_PLANTS)))
        gains = tuple(float(g) for g in rng.uniform(-10.0, 10.0, 3))
        limit = 1e6 if growing else LIMITS[int(rng.integers(len(LIMITS)))]
        try:
            args = loop_step_map(ORACLE_PLANTS[plant], gains)
        except ImproperLoop:
            continue
        if growing and not _growing(args[0]):
            continue
        kept += 1
        yield plant, gains, limit, args


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--loops", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--growing", action="store_true")
    opts = parser.parse_args(argv)

    rng = np.random.default_rng(opts.seed)
    diverged = flag = index = tail = 0
    worst, worst_loop = 0.0, None
    with np.errstate(all="ignore"):
        for plant, gains, limit, args in draw_loops(rng, opts.loops, opts.growing):
            out, out_diverged = _kernels.scan(*args, N_SAMPLES, limit)
            ref, ref_diverged = sequential_scan(*args, N_SAMPLES, limit)
            diverged += ref_diverged
            flag += out_diverged != ref_diverged
            k_clamp = first_clamped(ref, limit)
            index += first_clamped(out, limit) != k_clamp
            tail += not np.array_equal(out[k_clamp:], ref[k_clamp:])
            err = np.abs(out[:k_clamp] - ref[:k_clamp])
            ratio = float(np.nanmax(err / scan_error_bound(*args, k_clamp), initial=0.0))
            if ratio > worst:
                worst, worst_loop = ratio, (plant, gains, limit)
    print(f"loops {opts.loops} (seed {opts.seed}, {'growing' if opts.growing else 'uniform'}, "
          f"BLOCK {_kernels.BLOCK}), diverged {diverged}")
    print(f"mismatches: flag {flag}, index {index}, tail {tail}")
    print(f"worst error {worst:.3f} of the bound, ORACLE_PLANTS[plant], gains, limit = {worst_loop}")
    if worst_loop is not None:
        plant, gains, limit = worst_loop
        args = loop_step_map(ORACLE_PLANTS[plant], gains)
        with np.errstate(all="ignore"):
            out, _ = _kernels.scan(*args, N_SAMPLES, limit)
            ref, _ = sequential_scan(*args, N_SAMPLES, limit)
        exact, _ = decimal_scan(*args, N_SAMPLES, limit)
        k = min(first_clamped(v, limit) for v in (out, ref, exact))
        tol = scan_error_bound(*args, k)
        kernel, oracle = (float(np.max(np.abs(v[:k] - exact[:k]) / tol, initial=0.0)) for v in (out, ref))
        print(f"on that loop, from a 60-digit recursion: kernel {kernel:.3f}, oracle {oracle:.3f} of the bound")
    return 0 if flag == index == tail == 0 and worst <= 1.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
