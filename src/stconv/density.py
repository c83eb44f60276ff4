"""Natural density of index sets, computed from exact integer counts.

The density of a set ``K`` of positive integers is the limit of
``|{k <= n : k in K}| / n`` when it exists.  Everything here works with a
finite horizon instead of a limit: exact counts are taken at a schedule of
checkpoints and a three-valued verdict (``confirmed`` / ``refuted`` /
``inconclusive``) reports whether the observed ratios have settled near a
target value.

Counting is exact integer arithmetic throughout; ratios only become floating
point at the reporting boundary.

An index set is a record of the functions its constructor chose: its
descriptor, a membership mask, a per-index test and its analytic density,
plus an exact count and its members by position for the kinds that know
these faster than a mask scan.  :func:`membership_mask`, :func:`count`,
:func:`members` and :func:`density_profile` are each one call to the record,
scanning its mask where it gives no faster answer.  A checkpoint schedule is
likewise a record of its label, first checkpoint and step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .parsing import Cursor, ParseError, parse_whole, whole_number

DEFAULT_HORIZON = 1_000_000
DEFAULT_TOLERANCE = 0.01
_MEMBER_CAP = 100_000_000


class HorizonExhausted(RuntimeError):
    """Raised when member enumeration runs past its probe budget."""


# ---------------------------------------------------------------------------
# prime sieve (shared, grow-on-demand)
#
# The sieve mask and the table of primes it holds are rebuilt together
# whenever a request passes the current size, and are read-only: callers
# receive views of them.  A larger sieve only extends the arrays, so no
# answer depends on the order of the calls that grew it.
# ---------------------------------------------------------------------------

def _frozen(arr):
    arr.setflags(write=False)
    return arr


_sieve_mask = _frozen(np.zeros(2, dtype=bool))   # _sieve_mask[i] == (i is prime)
_prime_table = _frozen(np.zeros(0, dtype=np.int64))   # the primes < len(_sieve_mask)


def _ensure_sieve(limit):
    global _sieve_mask, _prime_table
    if limit < len(_sieve_mask):
        return
    size = max(limit + 1, 2 * len(_sieve_mask), 1024)
    mask = np.ones(size, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(size - 1) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    _sieve_mask = _frozen(mask)
    _prime_table = _frozen(np.flatnonzero(mask).astype(np.int64, copy=False))


def prime_mask(limit):
    """Read-only boolean view ``m`` of length ``limit + 1``, ``m[i]`` true iff ``i`` is prime."""
    _ensure_sieve(limit)
    return _sieve_mask[: limit + 1]


def prime_count(n):
    """Number of primes ``<= n``."""
    _ensure_sieve(n)
    return int(np.searchsorted(_prime_table, n, side="right"))


def nth_primes(count):
    """The first ``count`` primes as a read-only int64 view of the shared prime table.

    The table grows with the sieve; the result does not depend on call order.
    """
    count = max(int(count), 0)
    # p_n < n (ln n + ln ln n) for n >= 6 (Rosser), so one sieve growth suffices
    if count < 6:
        bound = 16
    else:
        bound = int(count * (math.log(count) + math.log(math.log(count))) * 1.2) + 16
    _ensure_sieve(bound)
    return _prime_table[:count]


def is_prime(n):
    if n < 2:
        return False
    _ensure_sieve(n)
    return bool(_sieve_mask[n])


# ---------------------------------------------------------------------------
# index sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, repr=False)
class IndexSet:
    """A set of positive integers, as the functions its constructor chose.

    ``label`` is its descriptor; ``mask(n)`` is the boolean membership of
    ``1..n``, ``contains(k)`` that of one integer ``k``; ``analytic_density``
    is the true density as an exact fraction, when it is known.  Kinds that
    know them faster than a mask scan also give ``count(n)``, the number of
    members ``<= n`` for ``n >= 1``, and ``nth(ks)``, the members at the
    increasing positions ``ks >= 1`` (see :func:`members`).
    """

    label: str
    mask: Callable
    contains: Callable
    analytic_density: Optional[Fraction]
    count: Optional[Callable] = None
    nth: Optional[Callable] = None

    def describe(self):
        return self.label

    def __repr__(self):
        return f"IndexSet({self.label})"


def _check_cap(label, how_many, least):
    """Raise when member ``how_many`` of ``label``, which is at least ``least``, passes the cap."""
    if least > _MEMBER_CAP:
        raise HorizonExhausted(f"member {how_many} of {label} is beyond the cap {_MEMBER_CAP}")


def _nth_primes(ks):
    how_many = int(ks[-1])
    if how_many >= 2:
        # p_n >= n (ln n + ln ln n - 1) for n >= 2 (Dusart), so a request the
        # cap refuses anyway is refused before the sieve grows for it
        ln = math.log(how_many)
        _check_cap("primes", how_many, how_many * (ln + math.log(ln) - 1))
    found = nth_primes(how_many)
    _check_cap("primes", how_many, found[-1])
    return found[ks - 1]


def _prime_membership(n):
    return prime_mask(n)[1:].copy() if n >= 1 else np.zeros(0, dtype=bool)


def primes():
    return IndexSet("primes", _prime_membership, is_prime, Fraction(0), prime_count, _nth_primes)


def multiples(m):
    if m < 1:
        raise ValueError("multiples() needs a positive modulus")
    m = whole_number(m, "a modulus")
    label = f"multiples({m})"

    def mask(n):
        out = np.zeros(n, dtype=bool)
        out[m - 1 :: m] = True
        return out

    def nth(ks):
        _check_cap(label, int(ks[-1]), m * int(ks[-1]))
        return m * ks

    return IndexSet(label, mask, lambda k: k >= 1 and k % m == 0, Fraction(1, m),
                    lambda n: n // m, nth)


def squares():
    def mask(n):
        out = np.zeros(n, dtype=bool)
        roots = np.arange(1, math.isqrt(n) + 1, dtype=np.int64)
        out[roots * roots - 1] = True
        return out

    def nth(ks):
        _check_cap("squares", int(ks[-1]), int(ks[-1]) ** 2)
        return ks * ks

    return IndexSet("squares", mask, lambda k: k >= 1 and math.isqrt(k) ** 2 == k, Fraction(0),
                    math.isqrt, nth)


def finite(values):
    vals = sorted(set(whole_number(v, "an index") for v in values))
    if any(v < 1 for v in vals):
        raise ValueError("index sets contain positive integers only")
    label = "finite(" + ",".join(str(v) for v in vals) + ")"
    lookup = frozenset(vals)

    def mask(n):
        out = np.zeros(n, dtype=bool)
        out[np.asarray([v for v in vals if v <= n], dtype=np.int64) - 1] = True
        return out

    def nth(ks):
        if ks[-1] > len(vals):
            raise HorizonExhausted(f"{label} has only {len(vals)} members, {ks[-1]} requested")
        return np.asarray(vals, dtype=np.int64)[ks - 1]

    return IndexSet(label, mask, lookup.__contains__, Fraction(0),
                    lambda n: sum(1 for v in vals if v <= n), nth)


def complement(inner):
    dens = None
    if inner.analytic_density is not None:
        dens = 1 - inner.analytic_density
    return IndexSet(f"complement({inner.label})", lambda n: ~inner.mask(n),
                    lambda k: k >= 1 and not inner.contains(k), dens,
                    None if inner.count is None else lambda n: n - inner.count(n))


def union(a, b):
    dens = None
    if a.analytic_density == 0:
        dens = b.analytic_density
    elif b.analytic_density == 0:
        dens = a.analytic_density
    return IndexSet(f"union({a.label},{b.label})", lambda n: a.mask(n) | b.mask(n),
                    lambda k: a.contains(k) or b.contains(k), dens)


def intersection(a, b):
    dens = None
    if a.analytic_density == 0 or b.analytic_density == 0:
        dens = Fraction(0)
    elif a.analytic_density == 1:
        dens = b.analytic_density
    elif b.analytic_density == 1:
        dens = a.analytic_density
    return IndexSet(f"intersection({a.label},{b.label})", lambda n: a.mask(n) & b.mask(n),
                    lambda k: a.contains(k) and b.contains(k), dens)


def membership_mask(s, n):
    """Boolean array of length ``n`` whose entry ``k-1`` says whether ``k`` is in ``s``."""
    return s.mask(int(n))


def count(s, n):
    """Exact ``|{k <= n : k in s}|``."""
    n = int(n)
    if n < 1:
        return 0
    if s.count is not None:
        return s.count(n)
    return int(np.count_nonzero(s.mask(n)))


def members(s, how_many):
    """The first ``how_many`` members of ``s`` in increasing order.

    Raises :class:`HorizonExhausted` when the set runs out of members before
    ``how_many`` are found or the scan would pass ``_MEMBER_CAP``.
    """
    how_many = int(how_many)
    if how_many < 1:
        return np.zeros(0, dtype=np.int64)
    if s.nth is not None:
        return s.nth(np.arange(1, how_many + 1, dtype=np.int64))
    # scan membership in growing blocks
    out = []
    total = 0
    start = 1
    block = 1 << 16
    while total < how_many:
        if start > _MEMBER_CAP:
            raise HorizonExhausted(
                f"scanned past cap {_MEMBER_CAP} with only {total} members of {s.label}"
            )
        stop = min(start + block - 1, _MEMBER_CAP)
        hits = np.flatnonzero(s.mask(stop)[start - 1 :]) + start
        out.append(hits)
        total += len(hits)
        start = stop + 1
        block = min(block * 2, 1 << 22)
    return np.concatenate(out)[:how_many].astype(np.int64)


# ---------------------------------------------------------------------------
# checkpoint schedules and profiles
# ---------------------------------------------------------------------------

_GEOMETRIC_START = 10


@dataclass(frozen=True, eq=False)
class Schedule:
    """Checkpoints ``first, step(first), step(step(first)), ...`` below a
    horizon, then the horizon itself; ``label`` is the descriptor."""

    label: str
    first: int
    step: Callable

    def checkpoints(self, horizon):
        horizon = int(horizon)
        if horizon < 2:
            raise ValueError("horizon must be at least 2")
        cps = []
        c = self.first
        while c < horizon:
            cps.append(c)
            c = self.step(c)
        cps.append(horizon)
        if len(cps) < 2:
            raise ValueError(
                f"schedule {self.label} yields fewer than 2 checkpoints at horizon {horizon}"
            )
        return cps

    def describe(self):
        return self.label


def geometric(base=10):
    """Checkpoints ``10, 10 * base, 10 * base^2, ...`` below the horizon, then the horizon."""
    if base < 2:
        raise ValueError("geometric schedule needs base >= 2")
    base = whole_number(base, "a geometric base")
    return Schedule(f"geometric:{base}", _GEOMETRIC_START, lambda c: c * base)


def linear(step):
    if step < 1:
        raise ValueError("linear schedule needs a positive step")
    step = whole_number(step, "a linear step")
    return Schedule(f"linear:{step}", step, lambda c: c + step)


def parse_schedule(text):
    kind, _, value = text.partition(":")
    make = {"geometric": geometric, "linear": linear}.get(kind)
    if make is None:
        raise ValueError(f"unknown schedule {text!r} (expected geometric:BASE or linear:STEP)")
    if kind == "linear" and not value:
        raise ValueError("linear schedule needs a step, e.g. linear:100")
    try:
        return make(parse_whole(value or "10", Cursor.number, "the schedule value"))
    except ValueError as exc:
        raise ValueError(f"schedule {text!r}: {exc}") from None


DEFAULT_SCHEDULE = geometric(10)


@dataclass(frozen=True)
class DensityProfile:
    """Exact membership counts and ratios along a checkpoint schedule."""

    checkpoints: tuple
    counts: tuple
    ratios: tuple = field(default=())

    def __post_init__(self):
        cps = tuple(int(c) for c in self.checkpoints)
        cnt = tuple(int(c) for c in self.counts)
        if len(cps) != len(cnt) or len(cps) < 2:
            raise ValueError("profile needs matching checkpoints and counts, at least two")
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        if any(b < a for a, b in zip(cnt, cnt[1:])):
            raise ValueError("counts must be nondecreasing")
        if any(c < 0 or c > n for c, n in zip(cnt, cps)):
            raise ValueError("counts must lie in [0, checkpoint]")
        object.__setattr__(self, "checkpoints", cps)
        object.__setattr__(self, "counts", cnt)
        object.__setattr__(self, "ratios", tuple(c / n for c, n in zip(cnt, cps)))

    @property
    def final_ratio(self):
        return self.ratios[-1]

    def to_json_dict(self):
        return {
            "checkpoints": list(self.checkpoints),
            "counts": list(self.counts),
            "ratios": list(self.ratios),
        }


def density_profile(s, horizon=DEFAULT_HORIZON, schedule=None):
    """Exact counts of ``s`` at scheduled checkpoints up to ``horizon``."""
    schedule = schedule or DEFAULT_SCHEDULE
    cps = schedule.checkpoints(horizon)
    if s.count is None:
        return profile_from_mask(membership_mask(s, cps[-1]), cps[-1], schedule)
    return DensityProfile(tuple(cps), tuple(s.count(c) for c in cps))


def profile_from_mask(mask, horizon, schedule=None):
    """Profile of a precomputed membership mask (entry ``k-1`` is index ``k``).

    Counts are summed segment by segment between checkpoints into Python
    integers, so no horizon-length running-count array is built.
    """
    schedule = schedule or DEFAULT_SCHEDULE
    horizon = int(horizon)
    if len(mask) < horizon:
        raise ValueError("mask shorter than horizon")
    cps = schedule.checkpoints(horizon)
    counts = []
    total = prev = 0
    for c in cps:
        total += int(np.count_nonzero(mask[prev:c]))
        counts.append(total)
        prev = c
    return DensityProfile(tuple(cps), tuple(counts))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityVerdict:
    """Finite-horizon decision about a density target.

    ``confirmed`` needs the final ratio within ``tolerance`` of the target
    and every ratio in the stability window (the last third of the
    checkpoints) within twice the tolerance.  ``refuted`` needs the final
    deviation at least twice the tolerance with the deviation nondecreasing
    over the stability window.  Everything else is ``inconclusive``.
    """

    profile: DensityProfile
    target: float
    tolerance: float
    decision: str
    witness: Optional[int]

    @property
    def final_ratio(self):
        return self.profile.final_ratio

    def to_json_dict(self):
        out = self.profile.to_json_dict()
        out.update(
            {
                "target": self.target,
                "tolerance": self.tolerance,
                "decision": self.decision,
                "witness": self.witness,
                "final_ratio": self.final_ratio,
            }
        )
        return out


def _normalize_target(target):
    if isinstance(target, str):
        if target != "zero":
            raise ValueError(f"unknown density target {target!r}")
        return 0.0
    value = float(target)
    if not 0.0 <= value <= 1.0:
        raise ValueError("density targets live in [0, 1]")
    return value


def density_verdict(profile, target, tolerance=DEFAULT_TOLERANCE):
    """Three-valued verdict for ``density(s) == target`` from a finite profile."""
    tval = _normalize_target(target)
    tol = float(tolerance)
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    ratios = profile.ratios
    r = len(ratios)
    window = ratios[-math.ceil(r / 3):]
    deviations = [x - tval for x in window]

    final_ok = abs(ratios[-1] - tval) <= tol
    stable = all(abs(d) <= 2 * tol for d in deviations)
    monotone_away = all(b >= a for a, b in zip(deviations, deviations[1:]))

    if final_ok and stable:
        decision = "confirmed"
    elif deviations[-1] >= 2 * tol and monotone_away:
        decision = "refuted"
    else:
        decision = "inconclusive"

    witness = None
    if not final_ok:
        # earliest checkpoint from which the deviation stays beyond tolerance
        idx = r - 1
        while idx > 0 and abs(ratios[idx - 1] - tval) > tol:
            idx -= 1
        witness = profile.checkpoints[idx]
    return DensityVerdict(profile, tval, tol, decision, witness)


# ---------------------------------------------------------------------------
# descriptor grammar
# ---------------------------------------------------------------------------

def parse_index_set_at(cur):
    """Parse an index set starting at an existing cursor (for host grammars)."""
    name = cur.ident()
    if name == "primes":
        return primes()
    if name == "squares":
        return squares()
    if name == "multiples":
        return multiples(*cur.args(Cursor.integer))
    if name == "finite":
        return finite(cur.items(Cursor.integer, "(", ")", ","))
    if name == "complement":
        return complement(*cur.args(parse_index_set_at))
    if name in ("union", "intersection"):
        a, b = cur.args(parse_index_set_at, parse_index_set_at)
        return union(a, b) if name == "union" else intersection(a, b)
    cur.error(f"unknown index set {name!r}")


def parse_index_set(text):
    """Parse descriptors like ``primes`` or ``union(multiples(3),squares)``."""
    return parse_whole(text, parse_index_set_at, "index set")


__all__ = [
    "DEFAULT_HORIZON",
    "DEFAULT_TOLERANCE",
    "DEFAULT_SCHEDULE",
    "HorizonExhausted",
    "IndexSet",
    "Schedule",
    "DensityProfile",
    "DensityVerdict",
    "primes",
    "multiples",
    "squares",
    "finite",
    "complement",
    "union",
    "intersection",
    "membership_mask",
    "count",
    "members",
    "geometric",
    "linear",
    "parse_schedule",
    "density_profile",
    "profile_from_mask",
    "density_verdict",
    "parse_index_set",
    "parse_index_set_at",
    "prime_mask",
    "prime_count",
    "nth_primes",
    "is_prime",
    "ParseError",
]
