"""Stress pidtune._kernels.scan against the sequential oracle on random loops.

    PYTHONPATH=src python tests/stress_scan.py --loops 2000 --seed 1
    PYTHONPATH=src python tests/stress_scan.py --growing --loops 400
    PYTHONPATH=src python tests/stress_scan.py --settle --loops 1000 --seed 1

Each loop, drawn by helpers.draw_loops, is a PID loop around one of
helpers.ORACLE_PLANTS with gains drawn uniformly from [-10, 10]^3, sampled
3,001 times as in test_lti.py::test_matches_sequential_oracle. Uniform loops
take the test's limits (1e6, 10 or 3). With --growing only loops whose step
map has a complex pair of modulus in (1, 1.03) are kept, at limit 1e6: the
growing oscillations on which a step table's rounding adds up over the most
samples.

Prints the number of loops, the kernel's BLOCK, how many diverged, the
divergence-flag, first-clamped-index and clamped-tail mismatches, the loops
whose samples or flag differ at all from helpers.full_table_scan, the share
of blocks that scan's bound cleared at each limit, the share of loops whose
scan built the step table's state rows (those with a block it did not
clear), and the worst error before the clamp as a share of
helpers.scan_error_bound, with the loop that gave it. On that loop it also
prints how far the kernel and the oracle each are from helpers.decimal_scan,
in shares of the same bound: the oracle rounds too, so a worst error can be
mostly the oracle's own.

With --settle it scores the same uniform loops with objective.evaluate at
the default horizon (10,001 samples), once with the settle rule and once
with the full scan (responses given), and prints the scores that differ in
any bit, the share of all samples the settle rule skipped, how many
responses rose and ended inside the band without being cut short (the
certificates refused or never tested), and the share of the settled scans
that built the step table's state rows. Any difference fails the run.
"""

import argparse
from dataclasses import astuple

import numpy as np

from pidtune import PidGains, SimConfig, _kernels, evaluate, step_response
from pidtune.objective import BAND_LOWER, BAND_UPPER

from helpers import (
    LIMITS,
    ORACLE_PLANTS,
    counting_full_tables,
    decimal_scan,
    draw_loops,
    first_clamped,
    full_table_scan,
    loop_step_map,
    scan_error_bound,
    sequential_scan,
)

N_SAMPLES = 3001
def _bits(value):
    """An ObjectiveValue's fields, floats as their exact hex."""
    return [f.hex() if isinstance(f, float) else f for f in astuple(value)]


def settle_main(rng, loops):
    """The --settle comparison; returns the exit status."""
    cfg = SimConfig()
    settle = (BAND_LOWER, BAND_UPPER)
    mismatches, skipped, refused, settled, built = [], 0, 0, 0, 0
    with np.errstate(all="ignore"):
        for plant, gains, _, _ in draw_loops(rng, loops, False):
            args = (PidGains(*gains), ORACLE_PLANTS[plant], cfg)
            full = step_response(*args).values
            with counting_full_tables() as builds:
                kept = len(step_response(*args, settle=settle).values)
            built += builds[0]
            skipped += cfg.n_samples - kept
            if _bits(evaluate(*args)) != _bits(evaluate(*args, [])):
                mismatches.append((plant, gains))
            if BAND_LOWER <= full[-1] <= BAND_UPPER:
                settled += 1
                refused += kept == cfg.n_samples
    print(f"loops {loops} (settle, {cfg.n_samples} samples), mismatches {len(mismatches)}"
          f"{': ' + repr(mismatches[:5]) if mismatches else ''}")
    print(f"samples skipped {skipped / (loops * cfg.n_samples):.3f}; "
          f"rose and ended in the band {settled}, of them scanned in full {refused}")
    print(f"settled scans that built state rows {built / loops:.3f}")
    return 1 if mismatches else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--loops", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--growing", action="store_true")
    parser.add_argument("--settle", action="store_true")
    opts = parser.parse_args(argv)

    rng = np.random.default_rng(opts.seed)
    if opts.settle:
        return settle_main(rng, opts.loops)
    diverged = flag = index = tail = full = 0
    blocks, cleared, built = dict.fromkeys(LIMITS, 0), dict.fromkeys(LIMITS, 0), 0
    worst, worst_loop = 0.0, None
    with np.errstate(all="ignore"):
        for plant, gains, limit, args in draw_loops(rng, opts.loops, opts.growing):
            with counting_full_tables() as builds:
                out, out_diverged = _kernels.scan(*args, N_SAMPLES, limit)
            built += builds[0]
            ref, ref_diverged = sequential_scan(*args, N_SAMPLES, limit)
            carried = []
            full_out, full_diverged = full_table_scan(*args, N_SAMPLES, limit, carried)
            full += out_diverged != full_diverged or not np.array_equal(out, full_out)
            # scan's bound, replayed on the states its blocks start from.
            size = _kernels._fast_table(*args)[2]
            blocks[limit] += len(carried)
            cleared[limit] += sum(size * (1.0 + sum(map(abs, x))) <= limit for x in carried)
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
    print(f"mismatches: flag {flag}, index {index}, tail {tail}, full table {full}")
    shares = [f"{cleared[lim] / blocks[lim]:.3f} of {blocks[lim]} at {lim:g}"
              for lim in LIMITS if blocks[lim]]
    print(f"blocks cleared {', '.join(shares)}; "
          f"loops that built state rows {built / opts.loops:.3f}")
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
    return 0 if flag == index == tail == full == 0 and worst <= 1.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
