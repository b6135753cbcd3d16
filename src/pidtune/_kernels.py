"""Step-response scan kernel.

scan samples the one-step affine update

    x[k+1] = step_mat @ x[k] + step_vec
    z[k]   = c_row @ x[k] + feed

from x[0] = 0 with the divergence rule: at the first sample where any state
or output magnitude leaves [-limit, limit] (NaN counts as leaving), that
sample and all later ones are pinned to +limit or -limit with the sign of
the triggering value, except that a triggering state leaves its sample's
output as computed. Sample 0 is tested like any other, and a 0-state map
(a pure gain) follows the same rule.

Each sample is one row [z[k], x[k]], and it computes BLOCK rows per matvec.
With M = step_mat, v = step_vec and c = c_row, unrolling the update j times
from any state gives

    x[s+j] = M^j x[s] + x[j],
    z[s+j] = c M^j x[s] + c x[j] + feed,    j = 1..BLOCK,

where x[j] is the response from x[0] = 0. The step table holds the
output rows [c M^j | c x[j] + feed], j = 1..BLOCK, then for each j in turn
the state rows [M^j | x[j]], so a block of samples s+1..s+BLOCK is one
matvec with [x[s], 1], the last state of the block before, which gives the
block's outputs in sample order and then its states. Sample 0 is feed over
the zero state, and block k holds samples 1+k*BLOCK..(k+1)*BLOCK. Every
block is computed whole, the last one too, of which only the live rows are
kept, so the bits of sample k do not depend on n_samples.

The table is built in np.longdouble by doubling, the up-sweep of
Blelloch's prefix sums ("Prefix sums and their applications", 1990) on the
affine maps A = [[M, v], [0, 1]], whose powers A^j have the state rows
[M^j | x[j]] over [0...0, 1]. log2(BLOCK) squarings give A^2, A^4, ...,
A^BLOCK, BLOCK being a power of two: A^2k's state rows are A^k's times
A^k, the dot M^k [M^k | x[k]] with x[k] added after it in the last column
(and 0 in the others). The output rows double from the row side with them,
[c M^(k+j) | c x[k+j]] = [c M^j | c x[j]] A^k for j = 1..k, and feed is
added to their last column at the end. The state rows of A^j, j < BLOCK,
are built only for a block the bound below does not clear, once per call,
from the same squares: A^(k+j)'s are A^j's times A^k, j = 1..k, so A^2k's
come out as the same dots as the square's, bit for bit. Whatever error the
table holds, every block applies again, so on a growing oscillation it
adds up coherently, where per-step rounding does not. So each row of the
table is [high | low]: its long-double entries rounded to float64, then
what the rounding left out, which is 0 beside a high that is not finite;
the split looks for such a high only when the highs do not sum to a finite
value, as they do not when one of them is inf or NaN. One dot with
[x, 1, x, 1] sums both halves and so carries the long-double table's
accuracy (CHANGES.md gives the measurements). np.longdouble is 80-bit on
x86-64 Linux, but equals double on some platforms, such as Windows; there
the low half is zero and the table is only as accurate as one built in
float64.

A block's state rows, apart from its last, serve only the band test. So
scan keeps a fast table: the BLOCK output rows, zero rows up to a multiple
of four (see the BLAS below), then the n rows [M^BLOCK | x[BLOCK]] of the
block's last state, with which the whole table ends too. Before each block
it bounds the block from the carried state x, in Python floats:

    b = size (1 + sum_i |x_i|),

where size is at least (1 + 4 (n + 2) eps) S + tiny, S the largest row sum
sum_i (|high_i| + |low_i|) of the step table, eps the float64 epsilon and
tiny the smallest normal float. If b <= limit the block is cleared: one
matvec of the fast table writes its outputs straight into the output array,
and its zero rows and last state into the slots after them, which the next
block overwrites. No value of a cleared block can be out of band. In exact
arithmetic a row [h | l] times [x, 1, x, 1] is at most
sum_i (|h_i| + |l_i|) |x_i| + |h_n| + |l_n| <= S (1 + sum_i |x_i|) in
magnitude. Rounded, a dot of 2n + 2 products, summed in any order, with or
without fused multiply-adds, is at most 1 + gamma(2n + 2) times the sum of
their magnitudes, gamma(m) being about m u with u = eps / 2 (Higham 2002,
"Accuracy and Stability of Numerical Algorithms", ch. 3). Summing a row in
float64, rounding size, the sum over x and b itself take at most 3n + 5 more
factors 1 + u, so about (5n + 7) u of the margin's 8 (n + 2) u is spent, and
tiny covers products that underflow. A NaN or infinite state, or a table
entry that is not finite, makes b NaN or inf, which fails the test.

size takes the output rows' sums as they are, and bounds the state rows,
which a call that clears every block never forms, by submultiplicativity
of the row-sum norm (Higham 2002, ch. 6): it is at least the norm of
A^BLOCK and the product of the norms of A, A^2, ..., A^(BLOCK/2), each
norm times the margin. Each norm is at least 1, by A's last row, and A^j,
j < BLOCK, is a product of some of those smaller squares, A^(k+j) being
formed as A^j A^k from the row side; so each of its state rows has a row
sum at most their product. The margins cover, many times over, the
long-double dots (a factor 1 + gamma'(n + 1) each, gamma' for the
long-double unit 2^-64), the split (a factor 1 + 2u and 2^-1073 an entry:
high and low differ in sign only when high is the farther from the entry),
the norms' cast to float64 and the five float64 products; the added tiny
covers underflow. A norm or an output row's sum that is inf or NaN makes
size inf or NaN, so every block is refused; so does a product of the norms
that overflows while no entry does. size's largest term is taken by
numpy's max, which keeps a NaN where Python's max may drop it.

A block that is not cleared takes the full path: the whole table's matvec,
built at the call's first such block, written straight into the output
array, its outputs in place and its states after them, where the next
block overwrites them; then the test max(np.abs(block)) <= limit over all
of it, which NaN fails, and only when that fails one out-of-band mask of
its live rows, each as [z, x], for the trigger: the first row with any
entry out of band, then the first such column, so an output wins over the
states of its sample. Every block, cleared or in band, then carries the
last n rows it wrote, its last state in either table, and advances by
BLOCK; past n_samples that state is never read.
A row has the same bits in either table only if the BLAS computes its dot
the same way at either place. OpenBLAS's dgemv (0.3.31; its SkylakeX,
Haswell and Prescott kernels) takes the rows four at a time and the last
len % 4 rows with another kernel, which sums in another order; the whole
table's BLOCK (n + 1) rows are a multiple of four, and so are the fast
table's, by its zero rows, so every row goes through the four-row kernel.
tests/test_lti.py pins scan bit for bit to tests/helpers.full_table_scan,
which takes every block through the whole table, under the kernel OpenBLAS
picks for the CPU and under the Haswell and Prescott kernels. A BLAS that
summed a row by its place would move a cleared block's samples within
rounding, but not with n_samples, which the bound does not read.

Products that overflow leave the clamp's sign to the order of the sums: on
step_mat [[1e308, 1e308], [0, 0]] from state [9.99, -10], the scalar oracle
sums inf and -inf to NaN and clamps to +limit, where ndarray.dot clamps to
-limit. An entry of M^j that overflows float64 makes size infinite, so such
a map takes the full path from block 1 on, where the entry makes NaN against
a zero state. An infinite c_i, or a long-double power that overflows past
about 1e4932, makes NaN in the table wherever a product meets a zero, the
zeros of A's last row included. So such a map may clamp a few samples
earlier, or with the other sign, than stepping would. An entry of M^j
overflows before j = BLOCK once an entry of M grows faster than about
1e308^(1 / BLOCK) per step, 6.5e4 at BLOCK 64. Block 1 is a product with
x[0] = 0 like any other, so this holds from sample 1 on.

``tests/helpers.sequential_scan`` states the same rule with scalar loops,
and ``tests/test_lti.py`` pins scan to it.

The settle rule. Given settle = (lower, upper), scan may return only the
samples before a block boundary s < n_samples, as the first s samples of the
full scan bit for bit, once it has shown that the last of them and every
later sample of the full scan lie in [lower, upper] and that none of them
diverges. Then anything read only from the samples outside [lower, upper],
and from the first sample at or above a level no higher than lower, reads
the same from the prefix. A diverged scan given settle ends just after its
first clamped sample, or after sample 1 when sample 0 is clamped, or at
n_samples: every later sample of the full scan is that clamp, so the prefix
has the full scan's max, its min after any sample, and its first sample at
or above any level. The test runs before a cleared block that starts at or
after a checkpoint; the first checkpoint is sample CHECK_START, and each
next one is half as far again, so a call pays for O(log n_samples) of them.
It requires, in this order:

1. the last written output lies in [lower, upper];
2. a certificate, built once per call: with x_ref the solution of
   (I - M) x = v and z_ref = c x_ref + feed, the room, half the distance
   from z_ref to the nearer of lower and upper, is positive, and P, the
   solution of M^T P M - P = -I, passes the checks below;
3. the carried state x has (x - x_ref)^T P (x - x_ref), computed, at most
   (radius / (1 + omega))^2, with radius and omega as below.

Why the tail stays in the band, for exact arithmetic on the float64 data
M, v, c, feed, P and x_ref. Let |e|_P = sqrt(e^T P e), lam and mu bounds
on P's largest and smallest eigenvalues, R = M^T P M - P + I and
rho = M x_ref + v - x_ref, which is 0 only when x_ref is exact. If P is
positive definite and ||R||_2 <= 1/2, then |M e|_P^2 <= |e|_P^2 - |e|^2 / 2
<= (1 - 1/(2 lam)) |e|_P^2: the quadratic Lyapunov function cannot grow
along the map (Kalman & Bertram 1960, "Control system analysis and design
via the second method of Lyapunov", J. Basic Eng. 82), so M is stable, and
over a block |M^BLOCK e|_P <= q |e|_P with 1 - q >= min(1/2, BLOCK / (8 lam)).
By Cauchy-Schwarz, |c e| <= h |e|_P with h^2 = c P^-1 c^T, and each |e_i|
<= |e|_P / sqrt(mu). From a carried state x_ref + e, sample j of the next
block is z_ref + c M^j e + c (rho + M rho + ... + M^(j-1) rho) exactly, and
its state x_ref + M^j e plus the same sum.

The computed samples. By the bound's argument above and the table's error,
which test_step_table_matches_exact_powers pins to j eps times the largest
entry of A^j, each computed row of a block differs from its exact value by
at most row_err = (BLOCK + 4 (n + 2)) eps size (sum_i |y_i| + 1), where y is
the carried state and size the bound's: it is at least every entry of every
row of the table, formed or not. So the carried states' distances
r_b = |y_b - x_ref|_P obey r_(b+1) <= q r_b + drift + sqrt(n lam) row_err,
with drift = BLOCK sqrt(n lam) max_i |rho_i| bounding BLOCK |rho|_P. With
r_0 <= radius = room / h and

    drift + sqrt(n lam) row_err <= (1 - q) radius / 2,

every r_b stays <= radius, and row_err may be taken at
sum_i |y_i| <= sum_i |x_ref_i| + sqrt(2 n) radius. Every later sample is
then within room + h drift + row_err of z_ref, which

    h drift + row_err + z_err <= room / 2

keeps inside the band, where z_err bounds the rounding of z_ref; and every
later state is within sqrt(2) (radius + drift) + row_err of x_ref, which
must stay below limit / 2. Half the room is thus the margin that the
rounding may spend.

The checks on P. P is solved as the n^2 x n^2 Kronecker system
(M^T kron M^T - I) vec(P) = -vec(I) (Smith 1968, "Matrix equation XA + BX =
C", SIAM J. Appl. Math. 16, gives the doubling alternative), symmetrized,
and split by numpy.linalg.eigh. With omega = 8 (n + 2)^2 eps lam~, lam~
and mu~ the computed extreme eigenvalues, lam = lam~ + omega and
mu = mu~ - omega >= 1/2 are taken as the eigenvalue bounds; since cond(P)
<= 2 lam, omega also bounds, to first order, the relative error of h, of the
quadratic form and of each |e|_P computed from P, as long as omega <=
2^-10 (Higham 2002, chs. 3 and 14). For an exactly stable M the exact P is
at least I, so mu >= 1/2 refuses only a P far from it. ||R||_2 is bounded by
the Frobenius norm of R computed through the Kronecker matrix plus that
product's rounding, (n^2 + 2) eps sqrt(n) (lam (||M||_F^2 + n) + 1), and
must not exceed 1/2. rho is computed with its rounding added. A singular
I - M or Kronecker system refuses the certificate, and so does c = 0.
"""

import functools
import math

import numpy as np

BLOCK = 64
# The settle rule's first checkpoint; each later one is 1.5 times as far.
CHECK_START = 3 * BLOCK + 1
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)


@functools.cache
def _identity(n: int) -> np.ndarray:
    """Read-only n x n identity."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _split(rows, out):
    """Writes long-double rows into out as [high | low]: their entries
    rounded to float64, then what the rounding left out, so that a dot with
    [x, 1, x, 1] sums to the long-double row's. A low beside a high that is
    not finite is 0."""
    m = rows.shape[-1]
    high, low = out[..., :m], out[..., m:]
    high[...] = rows
    low[...] = rows - high
    # A high that is not finite, and only such a high, leaves a low that is
    # not finite (inf - inf, or a long double past float64's range less
    # inf), and it makes the sum of the highs infinite or NaN; a finite sum
    # shows that every entry is finite.
    if not math.isfinite(np.add.reduce(high, axis=None)):
        low[~np.isfinite(high)] = 0.0
    return out


def _fast_table(step_mat, step_vec, c_row, feed):
    """(fast, powers, size): the table a cleared block reads, the squares
    it is built from, and the bound's size with its margin and tiny. powers
    holds A, A^2, A^4, ..., A^BLOCK in long double, each over A's last row;
    fast the BLOCK output rows [c M^j | c x[j] + feed], zero rows up to a
    multiple of four, then A^BLOCK's state rows, split."""
    n = len(step_vec)
    margin = 1.0 + 4 * (n + 2) * EPS
    powers = np.zeros((BLOCK.bit_length(), n + 1, n + 1), np.longdouble)
    powers[:, n, n] = 1.0
    powers[0, :n, :n] = step_mat
    powers[0, :n, n] = step_vec
    # The output rows, zero rows to a multiple of four, A^BLOCK's state rows.
    rows = np.zeros((BLOCK + n + -(BLOCK + n) % 4, n + 1), np.longdouble)
    rows[0] = c_row @ powers[0, :n]
    for i, power in enumerate(powers[:-1]):
        k = 1 << i
        power[:n].dot(power, out=powers[i + 1, :n])
        rows[:k].dot(power, out=rows[k : 2 * k])
    rows[:BLOCK, n] += feed
    rows[len(rows) - n :] = powers[-1, :n]
    fast = _split(rows, np.empty((len(rows), 2 * n + 2)))
    # size's terms: each output row's sum, then the product of the squares'
    # row-sum norms (each at least 1, by A's last row) but the last, and the
    # last; numpy's max keeps a NaN, which Python's may drop.
    norms = (np.abs(powers).sum(axis=2).max(axis=1).astype(float) * margin).tolist()
    terms = np.empty(BLOCK + 2)
    np.abs(fast[:BLOCK]).sum(axis=1, out=terms[:BLOCK])
    terms[BLOCK:] = math.prod(norms[:-1]), norms[-1]
    size = float(terms.max()) * margin + TINY
    return fast, powers, size


def _full_table(fast, powers):
    """The whole step table, for the blocks the bound does not clear: fast's
    BLOCK output rows [c M^j | c x[j] + feed], then for j = 1..BLOCK the n
    state rows [M^j | x[j]] of A^j, split. Given A^1..A^k, A^(k + j) is
    A^j A^k, so A^2k is the same dots as its square and fast's state rows
    recur bit for bit as the last n."""
    n = powers.shape[1] - 1
    states = np.empty((BLOCK * n, n + 1), np.longdouble)
    states[:n] = powers[0, :n]
    for i, power in enumerate(powers[:-1]):
        k = n << i
        states[:k].dot(power, out=states[k : 2 * k])
    table = np.empty((BLOCK * (n + 1), 2 * n + 2))
    table[:BLOCK] = fast[:BLOCK]
    _split(states, table[BLOCK:])
    return table


def _certificate(step_mat, step_vec, c_row, feed, limit, settle, size):
    """(x_ref, P, r2) of the settle rule, or () where it does not apply: a
    carried state x with (x - x_ref) P (x - x_ref) <= r2 keeps every later
    sample inside [lower, upper] and every later state inside the limit.
    size bounds the row sums of the step table, M and v among them: scan's
    size."""
    lower, upper = settle
    n = len(step_vec)
    shifted = -step_mat
    shifted.reshape(-1)[:: n + 1] += 1.0
    # M^T P M - P = -I as (M^T kron M^T - I) vec(P) = -vec(I).
    kron = (step_mat.T[:, None, :, None] * step_mat.T[None, :, None, :]).reshape(n * n, n * n)
    kron.reshape(-1)[:: n * n + 1] -= 1.0
    eye = _identity(n).reshape(-1)
    try:
        x_ref = np.linalg.solve(shifted, step_vec)
        p = np.linalg.solve(kron, -eye).reshape(n, n)
        p = (p + p.T) / 2
        lams, vecs = np.linalg.eigh(p)
    except np.linalg.LinAlgError:  # a singular I - M or Kronecker system
        return ()
    z_ref = float(c_row @ x_ref) + feed
    room = min(z_ref - lower, upper - z_ref) / 2
    if not (room > 0.0 and c_row.any() and -limit <= lower <= upper <= limit):
        return ()
    low, high = lams[[0, -1]].tolist()
    omega = 8 * (n + 2) ** 2 * EPS * high
    lam, mu = high + omega, low - omega
    resid = kron @ p.reshape(-1) + eye
    m_norm2 = float(np.vdot(step_mat, step_mat))
    resid_norm = math.sqrt(float(resid @ resid))
    resid_norm += (n * n + 2) * EPS * math.sqrt(n) * (lam * (m_norm2 + n) + 1)
    if not (omega <= 2**-10 and mu >= 0.5 and resid_norm <= 0.5):
        return ()
    # An upper bound on h, and never 0.
    h = math.sqrt(float((vecs.T @ c_row) ** 2 @ (1 / lams)) * (1 + omega)) + TINY
    radius = room / h
    x_abs = np.abs(x_ref)
    x_max, x_sum = float(x_abs.max()), float(x_abs.sum())
    rho = float(np.abs(step_vec - shifted @ x_ref).max())
    rho += (n + 2) * EPS * (n * (size + 1) * x_max + size)
    drift = BLOCK * math.sqrt(n * lam) * rho
    row_err = (BLOCK + 4 * (n + 2)) * EPS * size * (x_sum + math.sqrt(2 * n) * radius + 1)
    z_err = (n + 1) * EPS * (float(np.abs(c_row) @ x_abs) + abs(feed))
    if not (
        drift + math.sqrt(n * lam) * row_err <= min(0.5, BLOCK / (8 * lam)) * radius / 2
        and h * drift + row_err + z_err <= room / 2
        and x_max + math.sqrt(2) * (radius + drift) + row_err <= limit / 2
    ):
        return ()
    return x_ref, p, (radius / (1 + omega)) ** 2


def _clamped(out, first, clamp, n_samples, settle):
    """(values, True) for a scan that clamps from sample first on: the clamp
    fills out to n_samples, or with settle given to just after the first
    clamped sample (after sample 1 when sample 0 is clamped)."""
    stop = n_samples if settle is None else min(max(first, 1) + 1, n_samples)
    out[first:stop] = clamp
    return out[:stop], True


# perfbench/tracer.py reads n_samples at position 4 of this signature.
def scan(step_mat, step_vec, c_row, feed, n_samples, limit, settle=None):
    """Sample the response, BLOCK samples per matvec; returns (values,
    diverged). With settle = (lower, upper) the values may end early under
    the settle rule: at a block boundary, or just after the clamp begins."""
    n = step_mat.shape[0]
    fast, powers, size = _fast_table(step_mat, step_vec, c_row, feed)
    # The whole table, built at the first block the bound does not clear.
    table = None
    # Whole blocks after sample 0, then room for what a block writes past
    # its outputs: a block of the whole table its BLOCK n states, which
    # take more than a cleared block's zero rows and last state.
    # What lies past n_samples is cut off.
    out = np.empty(1 + -(-(n_samples - 1) // BLOCK) * BLOCK + BLOCK * n)
    # [x, 1, x, 1], a copy of [x, 1] for each half of a row; states writes
    # both copies of x at once. x starts at 0.
    x_one = np.zeros(2 * n + 2)
    x_one[n :: n + 1] = 1.0
    x = x_one[:n]
    states = x_one.reshape(2, n + 1)[:, :n]
    # The settle rule's next checkpoint, and its certificate once built.
    check = n_samples if settle is None else CHECK_START
    cert = None
    # Sample 0 is feed over the zero state, which is in band.
    out[0] = feed
    if not abs(feed) <= limit:
        return _clamped(out, 0, -limit if feed < 0.0 else limit, n_samples, settle)
    start = 1
    while start < n_samples:
        if size * (1.0 + sum(map(abs, x.tolist()))) <= limit:
            # A cleared block forms only its outputs and last state.
            if start >= check:
                check += check // 2
                lower, upper = settle
                if lower <= out[start - 1] <= upper:
                    if cert is None:
                        cert = _certificate(step_mat, step_vec, c_row, feed, limit, settle, size)
                    if not cert:
                        check = n_samples
                    elif (e := x - cert[0]) @ cert[1] @ e <= cert[2]:
                        return out[:start], False
            step = fast
        else:
            step = table = _full_table(fast, powers) if table is None else table
        # The block's rows, written straight into out: its outputs in place,
        # then the rows after them, which the next block overwrites.
        block = out[start : start + len(step)]
        step.dot(x_one, out=block)
        # Only a block the bound does not clear can leave the band.
        if step is table and not np.maximum.reduce(np.abs(block)) <= limit:
            # The live rows as [z, x]; the first entry out of band, NaN too,
            # in row order: the first such row, then its first such column,
            # the output before states.
            live = min(BLOCK, n_samples - start)
            live_rows = np.concatenate(
                (block[:live, None], block[BLOCK : BLOCK + live * n].reshape(live, n)), axis=1
            )
            out_of_band = ~(np.abs(live_rows) <= limit)
            j, col = divmod(int(out_of_band.argmax()), n + 1)
            if out_of_band[j, col]:
                clamp = -limit if live_rows[j, col] < 0.0 else limit
                # A triggering state leaves its sample's output as computed.
                return _clamped(out, start + j + (col > 0), clamp, n_samples, settle)
        # Both tables end with the block's last state.
        states[:] = block[len(block) - n :]
        start += BLOCK
    return out[:n_samples], False
