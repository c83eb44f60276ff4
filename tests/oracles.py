"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way and avoids the
code paths under test: counting is per-index enumeration, the prime sieve is
a plain bytearray sieve, and matrix operator norms come from the eigenvalues
of ``A^T A`` rather than the SVD routine the package itself calls.
"""

import math

import numpy as np

# Frozen prime-counting values.  These are classical table entries, checked
# once against sieve_prime_count below and then pinned so a broken oracle
# cannot drift silently.
PRIME_COUNTS = {
    10: 4,
    100: 25,
    1_000: 168,
    10_000: 1_229,
    100_000: 9_592,
    1_000_000: 78_498,
}

# First few primes, for membership and nth-prime spot checks.
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def sieve_primes(limit):
    """All primes <= limit via a plain sieve of Eratosthenes."""
    if limit < 2:
        return []
    mark = bytearray([1]) * (limit + 1)
    mark[0] = mark[1] = 0
    for p in range(2, int(math.isqrt(limit)) + 1):
        if mark[p]:
            mark[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i in range(2, limit + 1) if mark[i]]


def sieve_prime_count(limit):
    return len(sieve_primes(limit))


def enumerate_count(predicate, n):
    """Count k in 1..n with predicate(k), one index at a time."""
    return sum(1 for k in range(1, n + 1) if predicate(k))


def multiples_count(m, n):
    return n // m


def squares_count(n):
    return math.isqrt(n)


def ratio_table(predicate, checkpoints):
    """(checkpoint, count, ratio) rows by direct enumeration."""
    rows = []
    running = 0
    prev = 0
    for cp in checkpoints:
        running += enumerate_count(predicate, cp) - enumerate_count(predicate, prev)
        prev = cp
        rows.append((cp, running, running / cp))
    return rows


def matrix_two_norm(rows):
    """Largest singular value via the spectrum of A^T A.

    Uses eigvalsh, not the SVD call the package uses, so the two can
    disagree if either is wrong.
    """
    a = np.asarray(rows, dtype=float)
    eigs = np.linalg.eigvalsh(a.T @ a)
    return float(np.sqrt(max(eigs.max(), 0.0)))


def matrix_norm_by_search(rows, samples=20_000, seed=0):
    """Lower bound on the 2-norm from random unit probes plus basis vectors."""
    a = np.asarray(rows, dtype=float)
    rng = np.random.default_rng(seed)
    probes = rng.normal(size=(samples, a.shape[1]))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    probes = np.vstack([probes, np.eye(a.shape[1])])
    images = probes @ a.T
    return float(np.linalg.norm(images, axis=1).max())


def sparse_window_median(generator, horizon, samples=255):
    """Coordinatewise median of sparse terms over the window [horizon/2, horizon].

    Built one generated element at a time: a coordinate absent from a term
    counts as zero, and zero medians are dropped.
    """
    lo = max(1, horizon // 2)
    ns = sorted({int(n) for n in np.linspace(lo, horizon, samples).astype(np.int64)})
    supports = [generator(n).support for n in ns]
    out = {}
    for k in sorted({k for x in supports for k in x}):
        med = float(np.median([x.get(k, 0.0) for x in supports]))
        if med != 0.0:
            out[k] = med
    return out


def sparse_sup_norm(support):
    return max((abs(v) for v in support.values()), default=0.0)


def dense_p_norm(coords, p):
    return float(sum(abs(c) ** p for c in coords) ** (1.0 / p))
