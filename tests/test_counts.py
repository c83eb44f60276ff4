"""The count routine: a verdict's exceedance counts are folded chunk by chunk.

The chunked count table must equal the cumsum of the joined mask at the
checkpoints, and no report may depend on the chunk size.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from stconv import cli, classify, density, sequences, stanalysis

_TIES = (0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.5)


@pytest.mark.parametrize("chunk", [7, 64, sequences._CHUNK])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_chunked_count_table_matches_the_joined_mask(chunk, data):
    # values from a small pool, so that thresholds drawn from them tie
    values = np.asarray(data.draw(st.lists(
        st.sampled_from(_TIES) | st.floats(min_value=0.0, max_value=4.0),
        min_size=2, max_size=300)))
    horizon = len(values)
    thresholds = data.draw(st.lists(st.sampled_from(values.tolist()), min_size=1, max_size=4))
    strict = data.draw(st.booleans())
    # a step of one chunk puts the checkpoints on chunk edges, others put
    # them inside chunks; the horizon is always the last checkpoint
    steps = st.integers(min_value=1, max_value=horizon - 1)
    if chunk < horizon:
        steps = st.just(chunk) | steps
    schedule = density.linear(data.draw(steps))
    cps = schedule.checkpoints(horizon)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "_CHUNK", chunk)
        chunks = [values[c - 1] for c in sequences.Stream(horizon)]
    assert sum(map(len, chunks)) == horizon
    counts, = stanalysis._walk(((c,) for c in chunks), 1, cps,
                               thresholds if strict else (), () if strict else thresholds,
                               tail=True)
    for t, row in zip(thresholds, counts.above if strict else counts.reach):
        mask = values > t if strict else values >= t
        assert row == oracles.cumsum_counts(mask, cps)
    tail = values[horizon // 10:]
    assert (counts.top, counts.bottom) == (tail.max(), tail.min())


def test_count_table_refuses_a_stream_short_of_the_horizon():
    with pytest.raises(ValueError, match="before the checkpoint 20"):
        density.count_table([(10, [np.ones(10, dtype=bool)])], [10, 20])


_CALLS = [
    ["converge", "--sequence", "harmonic", "--horizon", "3000"],
    ["converge", "--sequence", "subseq(harmonic, multiples(3))", "--operator", "diag(inverse)",
     "--horizon", "3000"],
    ["converge", "--sequence", "random(dim=3, seed=5)", "--candidate", "dense[0.1,0,0]",
     "--schedule", "linear:250", "--horizon", "3000"],
    ["bounded", "--sequence", "spike(squares, n)", "--horizon", "3000"],
    ["bounded", "--sequence", "subseq(unit_coords, complement(squares))", "--horizon", "3000"],
    ["bounded", "--sequence", "random(dim=3, seed=7)", "--weak", "--horizon", "3000"],
    ["bounded", "--sequence", "spike(primes, n, dim=2)", "--weak", "--schedule", "linear:700",
     "--horizon", "3000"],
    ["cauchy", "--sequence", "harmonic", "--horizon", "3000"],
    ["cauchy", "--sequence", "random(dim=3, seed=7)", "--anchors", "10,100,250",
     "--horizon", "3000"],
] + [["classify", "--operator", "diag(inverse)", "--property", prop, "--horizon", "1000"]
     for prop in classify.PROPERTIES]


def _report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("argv", _CALLS, ids=[" ".join(a) for a in _CALLS])
def test_reports_do_not_depend_on_the_chunk_size(argv, monkeypatch):
    whole = _report(argv)
    monkeypatch.setattr(sequences, "_CHUNK", 7)
    assert _report(argv) == whole


# one check per kind of verdict path: norm ratios, weak probes, Cauchy with
# the limit search, and classification with the norm-limit hypothesis
_CHECKS = ["ratio_bound", "weak_equiv", "cauchy_suite", "continuity_inclusions"]


@pytest.mark.parametrize("check", _CHECKS)
def test_suite_checks_do_not_depend_on_the_chunk_size(check, monkeypatch):
    whole = classify.check_theorem(check, 600).to_json_dict()
    monkeypatch.setattr(sequences, "_CHUNK", 7)
    assert classify.check_theorem(check, 600).to_json_dict() == whole
