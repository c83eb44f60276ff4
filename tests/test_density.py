"""Counting and density checks against independent enumeration oracles."""

import bisect
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from stconv import density


# ---------------------------------------------------------------------------
# exact counting vs oracles
# ---------------------------------------------------------------------------

def test_prime_counts_match_frozen_table():
    for n, expected in oracles.PRIME_COUNTS.items():
        assert density.count(density.primes(), n) == expected


def test_prime_count_matches_sieve_oracle():
    assert density.count(density.primes(), 100_000) == oracles.sieve_prime_count(100_000)


def test_prime_counts_match_enumeration():
    got = [density.count(density.primes(), n) for n in range(1, 500)]
    primes = set(oracles.sieve_primes(500))
    want = [oracles.enumerate_count(lambda k: k in primes, n) for n in range(1, 500)]
    assert got == want


def test_nth_primes_prefix():
    assert tuple(density.nth_primes(15)) == oracles.FIRST_PRIMES


@pytest.fixture
def empty_sieve(monkeypatch):
    """Start the shared prime table from scratch; the grown one is restored afterwards."""
    monkeypatch.setattr(density, "_prime_table", np.zeros(0, dtype=np.int64))
    monkeypatch.setattr(density, "_sieved", 1)


@pytest.mark.parametrize("order", [(10, 5_000, 100), (5_000, 10, 100)],
                         ids=["small_then_large", "large_then_small"])
def test_nth_primes_independent_of_call_order(empty_sieve, order):
    oracle = oracles.sieve_primes(60_000)
    primes = density.primes()
    served = []
    for k in order:
        # the count grows the sieve first, then the prime table may grow it again
        assert density.count(primes, 12 * k) == bisect.bisect_right(oracle, 12 * k)
        served.append(density.nth_primes(k))
        assert served[-1].tolist() == oracle[:k]
        assert density.count(primes, oracle[k - 1]) == k
    # views handed out before the sieve grew keep their primes
    for k, got in zip(order, served):
        assert got.tolist() == oracle[:k]
        assert density.count(primes, 12 * k) == bisect.bisect_right(oracle, 12 * k)


def test_primes_beyond_the_cap_are_refused_before_sieving():
    # the 10^7-th prime lies past the member cap, and Dusart's bound says so without sieving
    sieved = density._sieved
    with pytest.raises(density.HorizonExhausted, match="member 10000000 of primes is beyond the cap"):
        oracles.members(density.primes(), 10**7)
    assert density._sieved == sieved


def test_dusart_bound_holds_below_the_sieved_primes():
    # p_n >= n (ln n + ln ln n - 1) for n >= 2: the early refusal never refuses a prime the cap allows
    p = density.nth_primes(100_000)
    n = np.arange(2, len(p) + 1, dtype=float)
    assert np.all(n * (np.log(n) + np.log(np.log(n)) - 1) <= p[1:])


def test_rosser_bound_holds_below_the_sieved_primes():
    # p_n < n (ln n + ln ln n) for n >= 6: the table nth_primes sieves to holds the n-th prime
    p = density.nth_primes(100_000)
    assert len(p) == 100_000
    n = np.arange(6, len(p) + 1, dtype=float)
    assert np.all(p[5:] < n * (np.log(n) + np.log(np.log(n))))


_ORACLE_LIMIT = 20_000
_ORACLE_PRIMES = oracles.sieve_primes(_ORACLE_LIMIT)


def _check_prime_segment(lo, hi):
    """Every answer of the prime record on lo..hi against the plain sieve."""
    s, oracle = density.primes(), _ORACLE_PRIMES
    first, last = bisect.bisect_left(oracle, lo), bisect.bisect_right(oracle, hi)
    seg = s.mask(lo, hi)
    assert np.flatnonzero(seg).tolist() == [p - lo for p in oracle[first:last]]
    assert density.count(s, hi) == last
    assert [k for k in range(lo, hi + 1) if s.contains(k)] == oracle[first:last]
    if last > first:
        assert s.nth(np.arange(first + 1, last + 1)).tolist() == oracle[first:last]
    # a segment belongs to its caller: writing it changes no later answer
    seg[:] = True
    assert np.flatnonzero(s.mask(lo, hi)).tolist() == [p - lo for p in oracle[first:last]]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=_ORACLE_LIMIT), st.integers(min_value=0, max_value=2_000))
@example(lo=7_919, width=0)   # lo == hi on a prime
@example(lo=1, width=0)
def test_prime_record_matches_sieve_oracle(lo, width):
    _check_prime_segment(lo, min(lo + width, _ORACLE_LIMIT))


@pytest.mark.parametrize("order", [((10, 50), (5_000, 5_100)), ((5_000, 5_100), (10, 50))],
                         ids=["below_then_past_the_sieve", "past_then_below_the_sieve"])
def test_prime_segments_agree_across_a_sieve_growth(empty_sieve, order):
    # one segment lies in the first 1024-entry sieve and one past it, so asked
    # in the first order the sieve grows between them, in the second before both
    sieved = []
    for lo, hi in order:
        _check_prime_segment(lo, hi)
        sieved.append(density._sieved)
    assert (sieved[0] < sieved[1]) == (order[0] < order[1])
    for lo, hi in order:
        _check_prime_segment(lo, hi)


def test_multiples_count_identity():
    # |m * count(n) - n| < m for every m, exactly the floor-division identity
    for m in range(1, 51):
        for n in range(1, 1_000):
            c = density.count(density.multiples(m), n)
            assert c == n // m
            assert abs(m * c - n) < m


def test_squares_count():
    for n in (1, 2, 3, 4, 10, 99, 100, 10_000):
        assert density.count(density.squares(), n) == oracles.squares_count(n)


def test_union_intersection_complement_counts():
    a, b = density.multiples(2), density.multiples(3)
    union, inter = density.union(a, b), density.intersection(a, b)
    comp = density.complement(a)
    for n in (1, 7, 30, 100, 997):
        ua = oracles.enumerate_count(lambda k: k % 2 == 0 or k % 3 == 0, n)
        ia = oracles.enumerate_count(lambda k: k % 6 == 0, n)
        assert density.count(union, n) == ua
        assert density.count(inter, n) == ia
        assert density.count(comp, n) == n - n // 2


def test_finite_sets_do_not_share_members():
    # a freed set's id is reused by the next one; membership must not carry over
    for _ in range(2000):
        assert density.finite([1, 2, 3]).contains(1)
        assert not density.finite([500]).contains(1)
    s = density.finite([7, 3])
    assert s.contains(3) and not s.contains(0)
    assert s.describe() == "finite(3,7)" and s.analytic_density == 0


def test_finite_set_counting_and_members():
    s = density.finite([4, 1, 9, 9])
    assert density.count(s, 3) == 1
    assert density.count(s, 100) == 3
    assert list(oracles.members(s, 3)) == [1, 4, 9]
    with pytest.raises(density.HorizonExhausted):
        oracles.members(s, 4)


def test_multiples_refuses_a_fractional_modulus():
    with pytest.raises(ValueError, match="whole number"):
        density.multiples(2.5)
    assert density.multiples(5.0).describe() == "multiples(5)"


def test_finite_refuses_a_member_past_int64():
    with pytest.raises(ValueError, match="finite index sets stop at 9223372036854775807"):
        density.finite([1, 2**63])
    s = density.finite([2**63 - 1, 5])
    assert density.count(s, 100) == 1 and s.contains(2**63 - 1) and not s.contains(2**63 - 2)
    assert s.nth(np.array([2])).tolist() == [2**63 - 1]


def test_finite_refuses_a_fractional_member():
    with pytest.raises(ValueError, match="whole number"):
        density.finite([1.5, 2])
    assert density.finite([5.0, 2]).describe() == "finite(2,5)"


def test_members_against_mask():
    s = density.union(density.primes(), density.squares())
    got = list(oracles.members(s, 25))
    mask = oracles.membership_mask(s, int(got[-1]))
    want = list(np.flatnonzero(mask) + 1)
    assert got == want


def test_membership_mask_matches_count():
    s = density.complement(density.multiples(3))
    mask = oracles.membership_mask(s, 1_000)
    assert mask.dtype == bool and len(mask) == 1_000
    assert int(mask.sum()) == density.count(s, 1_000)


@given(st.integers(min_value=1, max_value=3_000))
def test_complement_count_identity(n):
    s = density.union(density.primes(), density.multiples(7))
    assert density.count(s, n) + density.count(density.complement(s), n) == n


@given(st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=2_000))
def test_count_monotone_in_horizon(m, n):
    s = density.multiples(m)
    assert density.count(s, n) <= density.count(s, n + 1) <= density.count(s, n) + 1


def _set_descriptors(depth):
    """Index-set descriptors of the grammar, nested at most ``depth`` deep."""
    leaves = st.one_of(
        st.sampled_from(["primes", "squares"]),
        st.integers(min_value=1, max_value=12).map(lambda m: f"multiples({m})"),
        st.lists(st.integers(min_value=1, max_value=3_500), min_size=1, max_size=5).map(
            lambda vs: "finite(" + ",".join(map(str, vs)) + ")"),
    )
    if depth == 0:
        return leaves
    inner = _set_descriptors(depth - 1)
    composites = {
        "leaf": leaves,
        "complement": inner.map(lambda a: f"complement({a})"),
        "union": st.tuples(inner, inner).map(lambda ab: f"union({ab[0]},{ab[1]})"),
        "intersection": st.tuples(inner, inner).map(lambda ab: f"intersection({ab[0]},{ab[1]})"),
    }
    # pick the kind first, so that each is drawn about equally often
    return st.sampled_from(sorted(composites)).flatmap(composites.__getitem__)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_set_descriptors(3), st.integers(min_value=2, max_value=2_999),
       st.integers(min_value=1, max_value=3_000), st.integers(min_value=0, max_value=400),
       st.sampled_from([7, density._SEGMENT]))
def test_index_set_records_agree_with_membership_oracle(text, n, lo, width, segment):
    # every segment mask, fast count and members-by-position function is
    # checked against the per-index test, with scan segments of 7 and of the
    # default length; the cap sits at the horizon, which no finite member
    # drawn passes, so that asking for one member past those below it is
    # refused by every kind
    horizon = 3_500
    with mock.patch.object(density, "_SEGMENT", segment), \
            mock.patch.object(density, "_MEMBER_CAP", horizon):
        s = density.parse_index_set(text)
        oracle = np.array([s.contains(k) for k in range(1, horizon + 1)], dtype=bool)
        assert not s.contains(0)
        hi = min(lo + width, horizon)
        for a, b in ((lo, hi), (lo, lo), (lo, lo - 1), (1, 0), (5, 13), (1, n), (1, horizon)):
            got = s.mask(a, b)
            assert got.dtype == bool and np.array_equal(got, oracle[a - 1 : b]), (a, b)
        assert np.array_equal(oracles.membership_mask(s, n), oracle[:n])
        assert density.count(s, n) == int(oracle[:n].sum())
        found = np.flatnonzero(oracle) + 1
        # positions first, on a fresh record, then every member from 1
        if len(found):
            ks = np.unique(np.linspace(1, len(found), 5).astype(np.int64))
            assert s.nth(ks).tolist() == found[ks - 1].tolist()
        assert oracles.members(s, len(found)).tolist() == found.tolist()
        with pytest.raises(density.HorizonExhausted):
            s.nth(np.array([len(found) + 1]))
        profile = density.density_profile(s, horizon, density.linear(n))
        assert list(profile.counts) == [int(oracle[:c].sum()) for c in profile.checkpoints]
        assert density.parse_index_set(s.describe()).describe() == s.describe()


def test_analytic_densities():
    assert density.primes().analytic_density == 0
    assert density.squares().analytic_density == 0
    assert density.multiples(4).analytic_density == 0.25
    assert density.complement(density.squares()).analytic_density == 1
    assert density.finite([1, 2, 3]).analytic_density == 0
    # a density-zero part drops out of a union
    assert density.union(density.primes(), density.multiples(2)).analytic_density == 0.5
    # overlapping positive-density parts are not resolved analytically
    assert density.union(density.multiples(2), density.multiples(3)).analytic_density is None


# ---------------------------------------------------------------------------
# schedules and profiles
# ---------------------------------------------------------------------------

def test_geometric_schedule_checkpoints():
    assert density.geometric(10).checkpoints(1_000_000) == [10, 100, 1_000, 10_000, 100_000, 1_000_000]
    # a horizon that is not a power of the base still ends at the horizon
    assert density.geometric(10).checkpoints(5_000)[-1] == 5_000


def test_linear_schedule_checkpoints():
    assert density.linear(250).checkpoints(1_000) == [250, 500, 750, 1_000]
    assert density.linear(300).checkpoints(1_000)[-1] == 1_000


@pytest.mark.parametrize("make,what", [(density.linear, "a linear step"),
                                       (density.geometric, "a geometric base")],
                         ids=["linear", "geometric"])
def test_schedules_refuse_a_fractional_value(make, what):
    # 2.5 was truncated to 2 before
    with pytest.raises(ValueError, match=f"{what} must be a whole number, got 2.5"):
        make(2.5)
    assert make(5.0).describe() == f"{make.__name__}:5"


def test_schedule_parse_round_trip():
    for text in ("geometric:10", "geometric:2", "linear:500"):
        sch = density.parse_schedule(text)
        assert sch.describe() == text


def test_profile_ratios_are_exact():
    prof = density.density_profile(density.primes(), horizon=10_000)
    primes = set(oracles.sieve_primes(10_000))
    rows = oracles.ratio_table(lambda k: k in primes, prof.checkpoints)
    assert list(prof.counts) == [c for _, c, _ in rows]
    for got, (_, c, cp_ratio) in zip(prof.ratios, rows):
        assert got == cp_ratio


def test_density_profile_matches_the_cumsum_of_its_mask():
    s = density.multiples(3)
    mask = oracles.membership_mask(s, 1_000)
    b = density.density_profile(s, horizon=1_000)
    assert b.counts == oracles.cumsum_counts(mask, b.checkpoints)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_count_table_matches_cumsum_oracle(data):
    mask = np.asarray(data.draw(st.lists(st.booleans(), min_size=20, max_size=300)))
    horizon = data.draw(st.integers(min_value=20, max_value=len(mask)))
    if data.draw(st.booleans()):
        schedule = density.geometric(data.draw(st.integers(min_value=2, max_value=10)))
    else:
        schedule = density.linear(data.draw(st.integers(min_value=1, max_value=horizon - 1)))
    cum = np.cumsum(mask[:horizon], dtype=np.int64)
    cps = schedule.checkpoints(horizon)
    counts, = density.count_table([(horizon, [mask[:horizon]])], cps)
    assert tuple(counts) == tuple(int(cum[c - 1]) for c in cps)


@pytest.mark.parametrize("schedule", [density.linear(25), density.geometric(10)],
                         ids=lambda s: s.describe())
def test_count_table_counts_the_last_index(schedule):
    mask = np.zeros(100, dtype=bool)
    mask[-1] = True
    cps = schedule.checkpoints(100)
    counts, = density.count_table([(100, [mask])], cps)
    assert cps[-1] == 100
    assert tuple(counts) == (0,) * (len(counts) - 1) + (1,)


def test_profile_rejects_bad_horizon():
    with pytest.raises(ValueError):
        density.density_profile(density.primes(), horizon=0)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_verdict_confirmed_for_exact_density():
    prof = density.density_profile(density.multiples(2), horizon=100_000)
    v = density.density_verdict(prof, 0.5, tolerance=0.01)
    assert v.decision == "confirmed"
    assert v.witness is None
    assert v.final_ratio == prof.ratios[-1]


def test_verdict_refuted_for_wrong_target():
    prof = density.density_profile(density.multiples(2), horizon=100_000)
    v = density.density_verdict(prof, 0.0, tolerance=0.01)
    assert v.decision == "refuted"
    # the ratio never comes close to zero, so the witness is the first checkpoint
    assert v.witness == prof.checkpoints[0]


def test_verdict_inconclusive_for_slow_decay():
    # prime ratios decay toward 0 but are still far from it at 10^6
    prof = density.density_profile(density.primes(), horizon=1_000_000)
    v = density.density_verdict(prof, 0.0, tolerance=0.01)
    assert v.decision == "inconclusive"


def test_verdict_epsilon_window_rule():
    # hand-built profile hovering just inside the tolerance band
    prof = density.DensityProfile(
        checkpoints=(10, 100, 1000), counts=(6, 52, 504), ratios=(0.6, 0.52, 0.504)
    )
    assert density.density_verdict(prof, 0.5, tolerance=0.01).decision == "confirmed"
    # tighten the tolerance until the window fails
    assert density.density_verdict(prof, 0.5, tolerance=0.003).decision != "confirmed"


@pytest.mark.parametrize("tolerance", [0.0, -0.1, math.nan, math.inf])
def test_verdict_rejects_a_tolerance_not_positive_and_finite(tolerance):
    prof = density.density_profile(density.multiples(2), horizon=1_000)
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        density.density_verdict(prof, 0.5, tolerance=tolerance)


def test_verdict_json_shape():
    prof = density.density_profile(density.squares(), horizon=1_000)
    v = density.density_verdict(prof, 0.0, tolerance=0.05)
    d = v.to_json_dict()
    assert set(d) == {
        "checkpoints", "counts", "ratios", "final_ratio",
        "target", "tolerance", "decision", "witness",
    }
    assert d["decision"] in ("confirmed", "refuted", "inconclusive")


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.001, max_value=0.2))
@settings(max_examples=60, deadline=None)
def test_verdict_decision_is_total(target, tolerance):
    prof = density.density_profile(density.multiples(3), horizon=1_000)
    v = density.density_verdict(prof, target, tolerance=tolerance)
    assert v.decision in ("confirmed", "refuted", "inconclusive")


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------

def test_parse_index_set_round_trips():
    texts = [
        "primes",
        "squares",
        "multiples(6)",
        "finite(1,2,3)",
        "complement(squares)",
        "union(primes,multiples(4))",
        "intersection(primes,complement(multiples(2)))",
    ]
    for text in texts:
        s = density.parse_index_set(text)
        assert s.describe() == text
        again = density.parse_index_set(s.describe())
        assert again.describe() == text


def test_parsed_sets_count_correctly():
    s = density.parse_index_set("intersection(primes,complement(multiples(2)))")
    # odd primes up to 100: all primes except 2
    assert density.count(s, 100) == 24


def test_parse_errors_carry_position():
    with pytest.raises(density.ParseError) as exc:
        density.parse_index_set("multiples(x)")
    assert "position" in str(exc.value)
    with pytest.raises(density.ParseError):
        density.parse_index_set("primes extra")
    with pytest.raises(density.ParseError):
        density.parse_index_set("union(primes)")


def test_multiples_rejects_nonpositive():
    with pytest.raises(ValueError):
        density.multiples(0)
