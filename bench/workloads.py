"""Seeded argv lists for the three benchmark workloads.

Every workload is a closed loop with one caller: the worker feeds these argv
lists to ``stconv.cli.run`` one after another, and the package only ever
sees the generated argv.

``cli-mix`` is a fixed table of slots.  Each slot names a subcommand, a
descriptor family and a horizon class; the seed fills in the parameters
(``random(seed=...)`` seeds, index sets, epsilon grids, probe ladders,
anchors, candidates, operators, schedules, output format) and the call
order.  Keeping the families fixed keeps the work per pass nearly
independent of the seed, so seeds can vary between runs without widening
the spread of the timings.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1
WORKLOADS = ("suite", "cli-mix", "horizon-1e7")

SUITE_HORIZON = 100_000
BIG_HORIZON = 10_000_000
CLASSIFY_HORIZON = 20_000
DENSITY_HORIZON = 1_000_000         # CLI default for density
ANALYSIS_HORIZON = 100_000          # CLI default for converge / bounded / cauchy
MIX_BIG_HORIZON = 1_000_000
MIX_COPIES = 2

# Subcommands whose report echoes ``--schedule`` in ``config``.  ``classify``
# and ``suite`` accept the flag but ignore it, so it is never passed to them.
SCHEDULE_ECHOED = ("density", "converge", "bounded", "cauchy")


# ---------------------------------------------------------------------------
# descriptor pieces
# ---------------------------------------------------------------------------

def _num(x):
    x = float(x)
    return str(int(x)) if x == int(x) else repr(x)


def _finite(rng, top):
    values = sorted(rng.sample(range(1, top), rng.randint(3, 8)))
    return "finite(" + ",".join(str(v) for v in values) + ")"


def _leaf_set(rng):
    kind = rng.choice(["primes", "squares", "multiples", "finite"])
    if kind == "multiples":
        return f"multiples({rng.randint(2, 12)})"
    if kind == "finite":
        return _finite(rng, 2000)
    return kind


def _index_set(rng, kind):
    if kind == "leaf":
        return _leaf_set(rng)
    if kind == "complement":
        return f"complement({_leaf_set(rng)})"
    inner = rng.choice(["union", "intersection", "complement"])
    nested = (f"complement({_leaf_set(rng)})" if inner == "complement"
              else f"{inner}({_leaf_set(rng)},{_leaf_set(rng)})")
    return f"{kind}({nested},{_leaf_set(rng)})"


def _spike_set(rng):
    """Density-zero spike sets, so spike sequences stay st-convergent."""
    return rng.choice([
        "squares",
        "primes",
        _finite(rng, 5000),
        f"intersection(squares,multiples({rng.randint(2, 6)}))",
        f"union(squares,{_finite(rng, 5000)})",
    ])


def _sparse_el(rng, max_index=6):
    keys = sorted(rng.sample(range(1, max_index + 1), rng.randint(1, 3)))
    return "sparse{" + ",".join(
        f"{k}:{_num(rng.choice([0.25, 0.5, 1, 1.5, -1]))}" for k in keys
    ) + "}"


def _dense_el(rng, dim=3):
    return "dense[" + ",".join(_num(rng.choice([-1, -0.5, 0, 0.5, 1, 2])) for _ in range(dim)) + "]"


def _matrix(rng, dim=3):
    rows = ["[" + ",".join(_num(rng.choice([-1, 0, 0.5, 1, 2])) for _ in range(dim)) + "]"
            for _ in range(dim)]
    return "matrix[" + ",".join(rows) + "]"


def _eps(rng):
    grid = sorted(rng.sample([0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01], 3), reverse=True)
    return ",".join(_num(e) for e in grid)


def _probes(rng):
    start = rng.choice([0.5, 1, 2])
    factor = rng.choice([2, 3, 4])
    return ",".join(_num(start * factor ** i) for i in range(8))


def _anchors(rng, horizon):
    return ",".join(str(a) for a in sorted(rng.sample(range(1, horizon // 10), 3)))


def _schedule(rng, horizon):
    return rng.choice([
        "geometric:10", f"geometric:{rng.choice([2, 3, 4])}",
        f"linear:{horizon // rng.choice([10, 20, 40])}",
    ])


def _seed(rng):
    return rng.randint(1, 10_000)


# ---------------------------------------------------------------------------
# descriptor families
# ---------------------------------------------------------------------------

# One entry per cost class: the seed varies parameters, never the class.
SPARSE_SEQUENCES = {
    "harmonic": lambda r: "harmonic",
    "unit": lambda r: "unit_coords",
    "damped_unit": lambda r: "damped_unit_coords",
    "prime": lambda r: "prime_coords",
    "damped_prime": lambda r: "damped_prime_coords",
    "null": lambda r: f"null({_sparse_el(r)})",
    "spike": lambda r: f"spike({_spike_set(r)}, n)",
    "random": lambda r: f"random(sparse,seed={_seed(r)})",
    "subseq_harmonic": lambda r: "subseq(harmonic, multiples(2))",
    "subseq_unit_primes": lambda r: "subseq(unit_coords, primes)",
    "subseq_unit": lambda r: (
        f"subseq(unit_coords, {r.choice(['multiples(3)', 'complement(squares)'])})"),
    "combine_null": lambda r: f"combine(null({_sparse_el(r)}), null({_sparse_el(r)}), 1, -1)",
    "combine_harmonic": lambda r: f"combine(harmonic, harmonic, {_num(r.choice([0.5, 2]))}, -1)",
}

DENSE_SEQUENCES = {
    "random": lambda r: f"random(dim=3, seed={_seed(r)})",
    "constant": lambda r: f"constant({_dense_el(r)})",
    "null": lambda r: f"null({_dense_el(r)})",
    "spike": lambda r: f"spike({_spike_set(r)}, n, dim=3)",
    "combine": lambda r: (f"combine(constant({_dense_el(r)}), null({_dense_el(r)}), "
                          f"1, {_num(r.choice([-1, 0.5, 2]))})"),
    "alternating": lambda r: "alternating(dim=3)",
    "subseq": lambda r: f"subseq(random(dim=3, seed={_seed(r)}), multiples({r.randint(2, 5)}))",
}

# Sparse sequences whose structure survives every operator below.  Operator
# images of Reindexed and PrefixValues sequences can fall back to per-index
# evaluation, whose cost over a random or prefix parent is quadratic in the
# horizon; those pairs would turn one call into minutes.
OPERAND_SEQUENCES = ("unit", "prime", "null", "spike", "random")
DENSE_OPERANDS = ("random", "constant", "null", "spike", "combine", "alternating")

SPARSE_OPERATORS = {
    "diag_prime": lambda r: "diag(prime_scale)",
    "diag_named": lambda r: r.choice(
        ["diag(inverse)", "diag(one_plus_inverse)", "diag(identity)", "diag(index)"]),
    "diag_trunc": lambda r: f"diag(inverse_trunc({r.randint(2, 20)}))",
    "rank1_coord": lambda r: f"rank1(coord({r.randint(1, 5)}), {_sparse_el(r)})",
    "rank1_weights": lambda r: f"rank1({r.choice(['geometric_weights', 'index_weights'])}, "
                               f"{_sparse_el(r)})",
    "finite_rank": lambda r: (f"finite_rank(coord(1), {_sparse_el(r)}; "
                              f"coord({r.randint(2, 6)}), {_sparse_el(r)})"),
    "compose_diag": lambda r: "compose(diag(inverse), diag(prime_scale))",
    "combo_diag": lambda r: (f"combo({_num(r.choice([1, 2, -1]))}, diag(inverse), "
                             f"{_num(r.choice([0.5, 1]))}, diag(identity))"),
    "compose_to_dense": lambda r: (f"compose({_matrix(r)}, rank1(coord({r.randint(1, 4)}), "
                                   f"{_dense_el(r)}))"),
    "transform": lambda r: "transform(prime_scale_by_position)",
}

DENSE_OPERATORS = {
    "matrix": lambda r: _matrix(r),
    "compose_matrix": lambda r: f"compose({_matrix(r)}, {_matrix(r)})",
    "combo_matrix": lambda r: f"combo(1, {_matrix(r)}, -1, {_matrix(r)})",
}

CLASSIFY_CASES = (
    lambda r: ("transform(prime_scale_by_position)", "st_bounded"),
    lambda r: ("diag(prime_scale)", "st_bounded"),
    lambda r: ("diag(inverse)", "st_compact"),
    lambda r: (f"rank1(coord({r.randint(1, 4)}), {_sparse_el(r)})", "st_compact"),
    lambda r: (_matrix(r), "n_st_continuous"),
)


# ---------------------------------------------------------------------------
# cli-mix slots
# ---------------------------------------------------------------------------

def _sequence(rng, space, family):
    table = SPARSE_SEQUENCES if space == "sparse" else DENSE_SEQUENCES
    return table[family](rng)


def _analysis(rng, command, space, family, horizon, operator=None, weak=False, slot=0):
    seq = _sequence(rng, space, family)
    argv = [command, "--sequence", seq]
    if operator is not None:
        table = SPARSE_OPERATORS if space == "sparse" else DENSE_OPERATORS
        argv += ["--operator", table[operator](rng)]
    if command == "bounded":
        argv += ["--probes", _probes(rng)]
        if weak:
            argv.append("--weak")
    else:
        argv += ["--eps", _eps(rng)]
    if command == "converge" and operator is None and slot % 2:
        argv += ["--candidate", _dense_el(rng) if space == "dense" else _sparse_el(rng)]
    if command == "cauchy" and slot % 2:
        argv += ["--anchors", _anchors(rng, horizon)]
    if horizon != ANALYSIS_HORIZON:
        argv += ["--horizon", str(horizon)]
    return argv


def _classify(rng, case):
    op, prop = case(rng)
    return ["classify", "--operator", op, "--property", prop, "--horizon", str(CLASSIFY_HORIZON)]


def _mix_slots():
    """The fixed slot table: one builder per call, each taking the rng."""
    slots = []
    for kind in ("leaf", "leaf", "leaf", "leaf", "union", "union", "complement", "complement",
                 "intersection", "intersection"):
        for _ in range(3):
            slots.append(lambda r, k=kind: ["density", "--set", _index_set(r, k)])
    n = 0
    for command in ("converge", "bounded", "cauchy"):
        for space, table in (("sparse", SPARSE_SEQUENCES), ("dense", DENSE_SEQUENCES)):
            for family in table:
                weak = command == "bounded" and space == "dense" and family in ("random", "spike")
                slots.append(lambda r, c=command, s=space, f=family, w=weak, i=n:
                             _analysis(r, c, s, f, ANALYSIS_HORIZON, weak=w, slot=i))
                n += 1
    slots.append(lambda r: ["bounded", "--sequence", f"index(dim={r.randint(1, 3)})",
                            "--probes", _probes(r)])
    # each operator meets a fixed operand, a different one per subcommand
    for shift, command in enumerate(("converge", "bounded")):
        for i, op in enumerate(SPARSE_OPERATORS):
            operand = OPERAND_SEQUENCES[(i + shift) % len(OPERAND_SEQUENCES)]
            slots.append(lambda r, c=command, o=op, f=operand: _analysis(
                r, c, "sparse", f, ANALYSIS_HORIZON, operator=o))
        for i, op in enumerate(DENSE_OPERATORS):
            operand = DENSE_OPERANDS[(i + 3 * shift) % len(DENSE_OPERANDS)]
            slots.append(lambda r, c=command, o=op, f=operand: _analysis(
                r, c, "dense", f, ANALYSIS_HORIZON, operator=o))
    # the share of analyses at 10^6: one slot per (command, family) pair here
    for command, space, family in (
        ("converge", "sparse", "harmonic"), ("converge", "dense", "random"),
        ("converge", "sparse", "random"), ("bounded", "sparse", "spike"),
        ("bounded", "dense", "null"), ("cauchy", "dense", "random"),
        ("cauchy", "sparse", "null"),
    ):
        slots.append(lambda r, c=command, s=space, f=family, i=n:
                     _analysis(r, c, s, f, MIX_BIG_HORIZON, slot=i))
        n += 1
    for case in CLASSIFY_CASES:
        slots.append(lambda r, c=case: _classify(r, c))
    return slots


def _with_format(rng, argv):
    command = argv[0]
    if command in SCHEDULE_ECHOED and rng.random() < 0.3:
        horizon = int(argv[argv.index("--horizon") + 1]) if "--horizon" in argv else (
            DENSITY_HORIZON if command == "density" else ANALYSIS_HORIZON)
        argv += ["--schedule", _schedule(rng, horizon)]
    if command != "classify" and rng.random() < 0.25:
        argv += ["--output", "csv"]
    return argv


def _cli_mix(rng):
    # The shared prime sieve only grows, and every later prime lookup pays
    # for its full size.  Two fixed openers grow it to its final size (about
    # 2*10^6 entries), so every shuffled call after them sees the same grown
    # sieve whatever the seed: the call-order slowdown is in every pass, to
    # the same extent.
    openers = [
        ["density", "--set", "primes"],
        _analysis(rng, "converge", "sparse", "prime", ANALYSIS_HORIZON),
    ]
    # Every slot runs twice with its own parameters, so the latency
    # percentiles rest on two draws per family rather than one.
    rest = [_with_format(rng, build(rng)) for build in _mix_slots() * MIX_COPIES]
    rng.shuffle(rest)
    return openers + rest


def _horizon_1e7(rng):
    h = ["--horizon", str(BIG_HORIZON)]
    # The two density calls leave a 10^7-entry sieve (about 90 MB) in the
    # process.  They go first so every later call, the peak-memory one
    # included, runs with it held whatever the seed.
    openers = [
        ["density", "--set", "primes"] + h,
        ["density", "--set", "union(primes,multiples(4))"] + h,
    ]
    rng.shuffle(openers)
    rest = [
        ["converge", "--sequence", "harmonic", "--eps", _eps(rng)] + h,
        ["converge", "--sequence", f"random(sparse,seed={_seed(rng)})", "--eps", _eps(rng)] + h,
        ["converge", "--sequence", "subseq(harmonic, multiples(2))", "--eps", _eps(rng)] + h,
        ["bounded", "--sequence", "spike(squares, n)", "--probes", _probes(rng)] + h,
        ["bounded", "--sequence", "null(dense[1,1,1])", "--probes", _probes(rng)] + h,
        ["cauchy", "--sequence", "harmonic", "--eps", _eps(rng)] + h,
    ]
    rng.shuffle(rest)
    return openers + rest


def calls(workload, seed):
    """The argv lists one pass of ``workload`` feeds to ``cli.run``."""
    rng = random.Random(seed)
    if workload == "suite":
        return [["suite", "--horizon", str(SUITE_HORIZON)]]
    if workload == "cli-mix":
        return _cli_mix(rng)
    if workload == "horizon-1e7":
        return _horizon_1e7(rng)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
