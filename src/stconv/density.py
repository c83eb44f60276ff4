"""Natural density of index sets, computed from exact integer counts.

The density of a set ``K`` of positive integers is the limit of
``|{k <= n : k in K}| / n`` when it exists.  Everything here works with a
finite horizon instead of a limit: exact counts are taken at a schedule of
checkpoints and a three-valued verdict (``confirmed`` / ``refuted`` /
``inconclusive``) reports whether the observed ratios have settled near a
target value.

Counting is exact integer arithmetic throughout; ratios only become floating
point at the reporting boundary.

An index set is a record of the functions its constructor chose, and it
answers two questions: ``mask(lo, hi)``, the membership of the segment
``lo..hi``, and ``nth(ks)``, its members at the increasing positions ``ks``.
Each kind builds only the segment it is asked for: primes and finite sets
scatter it from a sorted member table (for primes the shared table of sieved
primes), which they also count and test by binary search.  A complement,
union or intersection combines its operands' segments and finds its members
by scanning them forward into one member table that it keeps.  A set without
an exact ``count`` is counted segment by segment, ``_SEGMENT`` indices at a
time, so no question asks for a horizon-length mask.  Every count, of a
set's segments or of the exceedance masks of a verdict, goes through
:func:`count_table`, which folds a stream of chunks into exact counts at the
checkpoints.  A checkpoint schedule is likewise a record of its label, first
checkpoint and step.
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
_LARGEST_MEMBER = np.iinfo(np.int64).max
# the longest segment a count or a member scan asks a set for at once
_SEGMENT = 1 << 16


class HorizonExhausted(RuntimeError):
    """Raised when member enumeration runs past its probe budget."""


# ---------------------------------------------------------------------------
# prime table (shared, grow-on-demand)
#
# The primes up to the limit last sieved to, as one read-only increasing
# int64 array; callers receive views of it.  A growth sieves into a
# temporary mask and keeps only its members, and a larger sieve only extends
# the table, so no answer depends on the order of the calls that grew it.
# ---------------------------------------------------------------------------

_prime_table = np.zeros(0, dtype=np.int64)   # the primes <= _sieved, read-only once grown
_sieved = 1


def _primes_through(n):
    """The shared prime table, grown first if it may miss a prime ``<= n``."""
    global _prime_table, _sieved
    if n > _sieved:
        size = max(n + 1, 2 * (_sieved + 1), 1024)
        mask = np.ones(size, dtype=bool)
        mask[:2] = False
        for p in range(2, math.isqrt(size - 1) + 1):
            if mask[p]:
                mask[p * p :: p] = False
        _prime_table = np.flatnonzero(mask).astype(np.int64, copy=False)
        _prime_table.setflags(write=False)
        _sieved = size - 1
    return _prime_table


def nth_primes(count):
    """The first ``count`` primes as a read-only int64 view of the shared prime table.

    The table grows with the sieve; the result does not depend on call order.
    """
    count = max(int(count), 0)
    # p_n < n (ln n + ln ln n) for n >= 6 (Rosser), so one sieve growth suffices
    if count < 6:
        bound = 16
    else:
        bound = int(count * (math.log(count) + math.log(math.log(count)))) + 1
    return _primes_through(bound)[:count]


# ---------------------------------------------------------------------------
# index sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, repr=False)
class IndexSet:
    """A set of positive integers, as the functions its constructor chose.

    ``label`` is its descriptor.  ``mask(lo, hi)`` is the boolean membership
    of ``lo..hi`` (``1 <= lo <= hi + 1``), and ``nth(ks)`` the members at the
    increasing positions ``ks >= 1``; ``contains(k)`` is the membership of
    one integer ``k``, and ``analytic_density`` the true density as an exact
    fraction, when it is known.  Kinds that know it faster than a segment
    scan also give ``count(n)``, the number of members ``<= n`` for
    ``n >= 1``.
    """

    label: str
    mask: Callable
    nth: Callable
    contains: Callable
    analytic_density: Optional[Fraction]
    count: Optional[Callable] = None

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


def primes():
    return _tabled("primes", _primes_through, _nth_primes)


def multiples(m):
    if m < 1:
        raise ValueError("multiples() needs a positive modulus")
    m = whole_number(m, "a modulus")
    label = f"multiples({m})"

    def mask(lo, hi):
        out = np.zeros(hi - lo + 1, dtype=bool)
        out[-lo % m :: m] = True
        return out

    def nth(ks):
        _check_cap(label, int(ks[-1]), m * int(ks[-1]))
        return m * ks

    return IndexSet(label, mask, nth, lambda k: k >= 1 and k % m == 0, Fraction(1, m),
                    lambda n: n // m)


def squares():
    def mask(lo, hi):
        out = np.zeros(hi - lo + 1, dtype=bool)
        roots = np.arange(math.isqrt(lo - 1) + 1, math.isqrt(hi) + 1, dtype=np.int64)
        out[roots * roots - lo] = True
        return out

    def nth(ks):
        _check_cap("squares", int(ks[-1]), int(ks[-1]) ** 2)
        return ks * ks

    return IndexSet("squares", mask, nth, lambda k: k >= 1 and math.isqrt(k) ** 2 == k,
                    Fraction(0), math.isqrt)


def finite(values):
    vals = sorted(set(whole_number(v, "an index") for v in values))
    if any(v < 1 for v in vals):
        raise ValueError("index sets contain positive integers only")
    if vals and vals[-1] > _LARGEST_MEMBER:
        raise ValueError(f"finite index sets stop at {_LARGEST_MEMBER}")
    label = "finite(" + ",".join(str(v) for v in vals) + ")"
    table = np.asarray(vals, dtype=np.int64)

    def nth(ks):
        if ks[-1] > len(vals):
            raise HorizonExhausted(f"{label} has only {len(vals)} members, {ks[-1]} requested")
        return table[ks - 1]

    return _tabled(label, lambda n: table, nth)


def _tabled(label, through, nth):
    """The record of a density-zero set read off a sorted member table:
    ``through(n)`` is an increasing int64 array that holds every member
    ``<= n``, so a segment scatters its members into a fresh mask and a
    count or a membership test is a binary search."""

    def mask(lo, hi):
        table = through(hi)
        out = np.zeros(hi - lo + 1, dtype=bool)
        out[table[np.searchsorted(table, lo) : np.searchsorted(table, hi, side="right")] - lo] = True
        return out

    def contains(k):
        table = through(k)
        i = int(np.searchsorted(table, k))
        return bool(i < len(table) and table[i] == k)

    return IndexSet(label, mask, nth, contains, Fraction(0),
                    lambda n: int(np.searchsorted(through(n), n, side="right")))


def _scanned(label, mask, contains, dens, count=None):
    """The record of a set known by its segments, whose ``nth`` scans them forward
    from the last index scanned into one member table, which doubles as it fills;
    past ``_MEMBER_CAP`` every request beyond the table is refused unscanned."""
    table = np.zeros(0, dtype=np.int64)
    found = scanned = 0   # table[:found] are the members <= scanned

    def nth(ks):
        nonlocal table, found, scanned
        while found < ks[-1]:
            if scanned >= _MEMBER_CAP:
                raise HorizonExhausted(
                    f"scanned past cap {_MEMBER_CAP} with only {found} members of {label}")
            hi = min(scanned + _SEGMENT, _MEMBER_CAP)
            hits = np.flatnonzero(mask(scanned + 1, hi)) + (scanned + 1)
            if found + len(hits) > len(table):
                grown = np.empty(max(2 * len(table), found + len(hits)), dtype=np.int64)
                grown[:found] = table[:found]
                table = grown
            table[found : found + len(hits)] = hits
            found += len(hits)
            scanned = hi
        return table[ks - 1]

    return IndexSet(label, mask, nth, contains, dens, count)


def complement(inner):
    dens = None
    if inner.analytic_density is not None:
        dens = 1 - inner.analytic_density
    return _scanned(f"complement({inner.label})", lambda lo, hi: ~inner.mask(lo, hi),
                    lambda k: k >= 1 and not inner.contains(k), dens,
                    None if inner.count is None else lambda n: n - inner.count(n))


def union(a, b):
    dens = None
    if a.analytic_density == 0:
        dens = b.analytic_density
    elif b.analytic_density == 0:
        dens = a.analytic_density
    return _scanned(f"union({a.label},{b.label})", lambda lo, hi: a.mask(lo, hi) | b.mask(lo, hi),
                    lambda k: a.contains(k) or b.contains(k), dens)


def intersection(a, b):
    dens = None
    if a.analytic_density == 0 or b.analytic_density == 0:
        dens = Fraction(0)
    elif a.analytic_density == 1:
        dens = b.analytic_density
    elif b.analytic_density == 1:
        dens = a.analytic_density
    return _scanned(f"intersection({a.label},{b.label})",
                    lambda lo, hi: a.mask(lo, hi) & b.mask(lo, hi),
                    lambda k: a.contains(k) and b.contains(k), dens)


def _counts(s, cps):
    """Exact counts of ``s`` at the increasing checkpoints ``cps``: its own
    ``count`` where it has one, else its segments counted one at a time."""
    if s.count is not None:
        return [s.count(c) for c in cps]
    last = cps[-1]
    s.mask(last, last)   # the last index first, so a shared sieve grows once
    segments = (s.mask(lo, min(lo + _SEGMENT - 1, last)) for lo in range(1, last + 1, _SEGMENT))
    return count_table(((len(m), [m]) for m in segments), cps)[0]


def count(s, n):
    """Exact ``|{k <= n : k in s}|``."""
    n = int(n)
    return _counts(s, [n])[0] if n >= 1 else 0


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
    return DensityProfile(tuple(cps), tuple(_counts(s, cps)))


def count_table(blocks, cps):
    """Exact counts of a streamed table of masks at the increasing checkpoints ``cps``.

    ``blocks`` yields ``(size, masks)`` for consecutive chunks of the indices
    ``1, 2, ...``: ``masks`` yields, for each row of the table in turn, a
    boolean array of ``size`` entries, or None where the row holds nowhere
    in the chunk (it is then counted without a scan); each mask can go once
    it is counted.  Row ``r`` of the result is ``|{k <= c : row r holds at
    k}|`` at each checkpoint ``c``, summed chunk by chunk into Python
    integers; the stream is read up to ``cps[-1]``.
    """
    table, totals = [], []
    lo = j = 0   # the next chunk starts at index lo + 1; cps[j] is the next checkpoint
    for size, masks in blocks:
        first = j
        while j < len(cps) and cps[j] <= lo + size:
            j += 1
        for r, mask in enumerate(masks):
            if r == len(table):
                table.append([0] * len(cps))
                totals.append(0)
            start = 0
            for i in range(first, j):
                end = cps[i] - lo
                if mask is not None:
                    totals[r] += int(np.count_nonzero(mask[start:end]))
                table[r][i] = totals[r]
                start = end
            if mask is not None and start < size:
                totals[r] += int(np.count_nonzero(mask[start:size]))
        lo += size
        if j == len(cps):
            return table
    raise ValueError(f"the stream ends at {lo}, before the checkpoint {cps[-1]}")


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
    "count",
    "geometric",
    "linear",
    "parse_schedule",
    "density_profile",
    "density_verdict",
    "parse_index_set",
    "parse_index_set_at",
    "nth_primes",
    "ParseError",
]
