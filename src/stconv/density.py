"""Natural density of index sets, computed from exact integer counts.

The density of a set ``K`` of positive integers is the limit of
``|{k <= n : k in K}| / n`` when it exists.  Everything here works with a
finite horizon instead of a limit: exact counts are taken at a schedule of
checkpoints and a three-valued verdict (``confirmed`` / ``refuted`` /
``inconclusive``) reports whether the observed ratios have settled near a
target value.

Counting is exact integer arithmetic throughout; ratios only become floating
point at the reporting boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .parsing import Cursor, ParseError

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

@dataclass(frozen=True)
class IndexSet:
    """A set of positive integers with a membership test.

    ``kind`` is one of ``primes``, ``multiples``, ``squares``, ``finite``,
    ``complement``, ``union``, ``intersection``, ``custom``.  Structured kinds
    carry their parameters in ``params``; ``custom`` carries its predicate in
    ``fn``.  ``analytic_density`` records the true density when it is known,
    as an exact fraction.
    """

    kind: str
    params: tuple = ()
    analytic_density: Optional[Fraction] = None
    fn: Optional[Callable[[int], bool]] = None
    # membership lookup of a ``finite`` set, derived from ``params``
    _finite_members: frozenset = field(default=frozenset(), init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind == "finite":
            object.__setattr__(self, "_finite_members", frozenset(self.params))

    def contains(self, k):
        if k < 1:
            return False
        if self.kind == "primes":
            return is_prime(k)
        if self.kind == "multiples":
            return k % self.params[0] == 0
        if self.kind == "squares":
            return math.isqrt(k) ** 2 == k
        if self.kind == "finite":
            return k in self._finite_members
        if self.kind == "complement":
            return not self.params[0].contains(k)
        if self.kind == "union":
            return self.params[0].contains(k) or self.params[1].contains(k)
        if self.kind == "intersection":
            return self.params[0].contains(k) and self.params[1].contains(k)
        return bool(self.fn(k))

    def describe(self):
        if self.kind in ("primes", "squares"):
            return self.kind
        if self.kind == "multiples":
            return f"multiples({self.params[0]})"
        if self.kind == "finite":
            return "finite(" + ",".join(str(v) for v in self.params) + ")"
        if self.kind == "complement":
            return f"complement({self.params[0].describe()})"
        if self.kind in ("union", "intersection"):
            a, b = self.params
            return f"{self.kind}({a.describe()},{b.describe()})"
        return "custom"

    def __repr__(self):
        return f"IndexSet({self.describe()})"


def primes():
    return IndexSet("primes", analytic_density=Fraction(0))


def multiples(m):
    if m < 1:
        raise ValueError("multiples() needs a positive modulus")
    return IndexSet("multiples", (int(m),), Fraction(1, int(m)))


def squares():
    return IndexSet("squares", analytic_density=Fraction(0))


def finite(values):
    vals = sorted(set(int(v) for v in values))
    if any(v < 1 for v in vals):
        raise ValueError("index sets contain positive integers only")
    return IndexSet("finite", tuple(vals), Fraction(0))


def complement(inner):
    dens = None
    if inner.analytic_density is not None:
        dens = 1 - inner.analytic_density
    return IndexSet("complement", (inner,), dens)


def union(a, b):
    dens = None
    if a.analytic_density == 0:
        dens = b.analytic_density
    elif b.analytic_density == 0:
        dens = a.analytic_density
    return IndexSet("union", (a, b), dens)


def intersection(a, b):
    dens = None
    if a.analytic_density == 0 or b.analytic_density == 0:
        dens = Fraction(0)
    elif a.analytic_density == 1:
        dens = b.analytic_density
    elif b.analytic_density == 1:
        dens = a.analytic_density
    return IndexSet("intersection", (a, b), dens)


def custom(predicate, density=None):
    dens = None if density is None else Fraction(density)
    return IndexSet("custom", (), dens, fn=predicate)


def membership_mask(s, n):
    """Boolean array of length ``n`` whose entry ``k-1`` says whether ``k`` is in ``s``.

    Structured kinds are vectorised; ``custom`` predicates are evaluated once
    per index.
    """
    n = int(n)
    if s.kind == "primes":
        return prime_mask(n)[1:].copy() if n >= 1 else np.zeros(0, dtype=bool)
    if s.kind == "multiples":
        m = s.params[0]
        mask = np.zeros(n, dtype=bool)
        mask[m - 1 :: m] = True
        return mask
    if s.kind == "squares":
        mask = np.zeros(n, dtype=bool)
        roots = np.arange(1, math.isqrt(n) + 1, dtype=np.int64)
        mask[roots * roots - 1] = True
        return mask
    if s.kind == "finite":
        mask = np.zeros(n, dtype=bool)
        idx = [v for v in s.params if v <= n]
        mask[np.asarray(idx, dtype=np.int64) - 1] = True
        return mask
    if s.kind == "complement":
        return ~membership_mask(s.params[0], n)
    if s.kind == "union":
        return membership_mask(s.params[0], n) | membership_mask(s.params[1], n)
    if s.kind == "intersection":
        return membership_mask(s.params[0], n) & membership_mask(s.params[1], n)
    return np.fromiter((bool(s.fn(k)) for k in range(1, n + 1)), dtype=bool, count=n)


def _fast_countable(s):
    if s.kind in ("primes", "multiples", "squares", "finite"):
        return True
    if s.kind == "complement":
        return _fast_countable(s.params[0])
    return False


def count(s, n):
    """Exact ``|{k <= n : k in s}|``."""
    n = int(n)
    if n < 1:
        return 0
    if s.kind == "primes":
        return prime_count(n)
    if s.kind == "multiples":
        return n // s.params[0]
    if s.kind == "squares":
        return math.isqrt(n)
    if s.kind == "finite":
        return sum(1 for v in s.params if v <= n)
    if s.kind == "complement":
        return n - count(s.params[0], n)
    return int(membership_mask(s, n).sum())


def members(s, how_many):
    """The first ``how_many`` members of ``s`` in increasing order.

    Raises :class:`HorizonExhausted` when the set runs out of members before
    ``how_many`` are found or the scan would pass ``_MEMBER_CAP``.
    """
    how_many = int(how_many)
    if how_many < 1:
        return np.zeros(0, dtype=np.int64)
    if s.kind == "multiples":
        m = s.params[0]
        if m * how_many > _MEMBER_CAP:
            raise HorizonExhausted(
                f"member {how_many} of {s.describe()} is beyond the cap {_MEMBER_CAP}")
        return m * np.arange(1, how_many + 1, dtype=np.int64)
    if s.kind == "squares":
        if how_many * how_many > _MEMBER_CAP:
            raise HorizonExhausted(
                f"member {how_many} of {s.describe()} is beyond the cap {_MEMBER_CAP}")
        base = np.arange(1, how_many + 1, dtype=np.int64)
        return base * base
    if s.kind == "primes":
        found = nth_primes(how_many)
        if found[-1] > _MEMBER_CAP:
            raise HorizonExhausted(f"member {how_many} of primes is beyond the cap {_MEMBER_CAP}")
        return found
    if s.kind == "finite":
        if how_many > len(s.params):
            raise HorizonExhausted(
                f"{s.describe()} has only {len(s.params)} members, {how_many} requested"
            )
        return np.asarray(s.params[:how_many], dtype=np.int64)
    # generic: scan membership in growing blocks
    out = []
    total = 0
    start = 1
    block = 1 << 16
    while total < how_many:
        if start > _MEMBER_CAP:
            raise HorizonExhausted(
                f"scanned past cap {_MEMBER_CAP} with only {total} members of {s.describe()}"
            )
        stop = min(start + block - 1, _MEMBER_CAP)
        if s.kind == "custom":
            mask = np.fromiter(
                (bool(s.fn(k)) for k in range(start, stop + 1)), dtype=bool, count=stop - start + 1
            )
        else:
            mask = membership_mask(s, stop)[start - 1 :]
        hits = np.flatnonzero(mask) + start
        out.append(hits)
        total += len(hits)
        start = stop + 1
        block = min(block * 2, 1 << 22)
    return np.concatenate(out)[:how_many].astype(np.int64)


# ---------------------------------------------------------------------------
# checkpoint schedules and profiles
# ---------------------------------------------------------------------------

_GEOMETRIC_START = 10


@dataclass(frozen=True)
class Schedule:
    kind: str          # "geometric" | "linear"
    value: int         # base, resp. step

    def checkpoints(self, horizon):
        horizon = int(horizon)
        if horizon < 2:
            raise ValueError("horizon must be at least 2")
        cps = []
        if self.kind == "geometric":
            c = _GEOMETRIC_START
            while c < horizon:
                cps.append(c)
                c *= self.value
        elif self.kind == "linear":
            c = self.value
            while c < horizon:
                cps.append(c)
                c += self.value
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        cps.append(horizon)
        if len(cps) < 2:
            raise ValueError(
                f"schedule {self.describe()} yields fewer than 2 checkpoints at horizon {horizon}"
            )
        return cps

    def describe(self):
        return f"{self.kind}:{self.value}"


def geometric(base=10):
    """Checkpoints ``10, 10 * base, 10 * base^2, ...`` below the horizon, then the horizon."""
    if base < 2:
        raise ValueError("geometric schedule needs base >= 2")
    return Schedule("geometric", int(base))


def linear(step):
    if step < 1:
        raise ValueError("linear schedule needs a positive step")
    return Schedule("linear", int(step))


def parse_schedule(text):
    kind, _, value = text.partition(":")
    if kind == "geometric":
        return geometric(int(value) if value else 10)
    if kind == "linear":
        if not value:
            raise ValueError("linear schedule needs a step, e.g. linear:100")
        return linear(int(value))
    raise ValueError(f"unknown schedule {text!r} (expected geometric:BASE or linear:STEP)")


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
    if not _fast_countable(s):
        return profile_from_mask(membership_mask(s, cps[-1]), cps[-1], schedule)
    counts = [count(s, c) for c in cps]
    return DensityProfile(tuple(cps), tuple(counts))


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
        cur.expect("(")
        m = cur.integer()
        cur.expect(")")
        return multiples(m)
    if name == "finite":
        cur.expect("(")
        values = [cur.integer()]
        while cur.try_eat(","):
            values.append(cur.integer())
        cur.expect(")")
        return finite(values)
    if name == "complement":
        cur.expect("(")
        inner = parse_index_set_at(cur)
        cur.expect(")")
        return complement(inner)
    if name in ("union", "intersection"):
        cur.expect("(")
        a = parse_index_set_at(cur)
        cur.expect(",")
        b = parse_index_set_at(cur)
        cur.expect(")")
        return union(a, b) if name == "union" else intersection(a, b)
    cur.error(f"unknown index set {name!r}")


def parse_index_set(text):
    """Parse descriptors like ``primes`` or ``union(multiples(3),squares)``."""
    cur = Cursor(text)
    s = parse_index_set_at(cur)
    cur.finish("index set")
    return s


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
    "custom",
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
