"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way and avoids the
code paths under test: counting is per-index enumeration, the prime sieve is
a plain bytearray sieve, and matrix operator norms come from the eigenvalues
of ``A^T A`` rather than the SVD routine the package itself calls.  The
sparse algebra works on plain dicts.  The last few helpers are not oracles
but thin joins over the package's own answers, for tests that want a whole
sweep or a whole set prefix as one array.
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
    supports = [support(generator(n)) for n in ns]
    out = {}
    for k in sorted({k for x in supports for k in x}):
        med = float(np.median([x.get(k, 0.0) for x in supports]))
        if med != 0.0:
            out[k] = med
    return out


def sparse_sup_norm(support):
    return max((abs(v) for v in support.values()), default=0.0)


# Sparse algebra on plain dicts index -> value, exact zeros dropped.

def support(x):
    """The entries of the sparse element ``x`` as a plain dict index -> value."""
    return dict(zip(x.indices.tolist(), x.values.tolist()))


def sparse_pruned(support):
    return {k: v for k, v in support.items() if v != 0.0}


def sparse_add(a, b):
    out = sparse_pruned(a)
    for k, v in sparse_pruned(b).items():
        s = out.get(k, 0.0) + v
        if s == 0.0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def sparse_scale(alpha, a):
    if alpha == 0.0:
        return {}
    return sparse_pruned({k: alpha * v for k, v in a.items()})


def sparse_sub(a, b):
    return sparse_add(a, sparse_scale(-1.0, b))


def dense_p_norm(coords, p):
    return float(sum(abs(c) ** p for c in coords) ** (1.0 / p))


def cumsum_counts(mask, cps):
    """``|{k <= c : mask[k-1]}|`` at each checkpoint ``c`` of ``cps``, by one cumsum."""
    cum = np.cumsum(mask, dtype=np.int64)
    return tuple(int(cum[c - 1]) for c in cps)


def joined(chunks):
    """The chunks of a sweep (``sweep_chunks``, ``functional_chunks``) as one array."""
    blocks = list(chunks)
    return np.concatenate(blocks) if blocks else np.zeros(0)


def functional_values(f, seq, horizon):
    """``f(x_n)`` for ``n = 1..horizon`` as one array, from a walk for ``f`` alone."""
    from stconv import sequences
    return joined(values for values, in sequences.functional_chunks((f,), seq, horizon))


def membership_mask(s, n):
    """Entry ``k-1`` says whether ``k`` is in the index set ``s``, for ``k = 1..n``."""
    return s.mask(1, int(n))


def members(s, how_many):
    """The first ``how_many`` members of the index set ``s``, increasing."""
    ks = np.arange(1, int(how_many) + 1, dtype=np.int64)
    return s.nth(ks) if len(ks) else ks
