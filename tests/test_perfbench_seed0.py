"""The benchmark's first requests at seed 0 still give the recorded bytes.

`perfbench/workloads.py` is loaded by file path, read-only, with the loader of
`test_perfbench_hooks.py`.  After its cache reset, the first round of
verify-suites, the first round of nf-words and the first ten requests of
ideal-catalog run at seed 0, and the first 16 hex digits of the SHA-256 of
each output must equal the matching entry of `perfbench/expected_seed0.json`,
so that a change of output bytes fails here and not only in a benchmark run.
"""

import hashlib
import json

import pytest
from test_perfbench_hooks import PERFBENCH, _load


@pytest.mark.parametrize(
    "name, count", [("verify-suites", 4), ("nf-words", 25), ("ideal-catalog", 10)]
)
def test_first_requests_match_the_recorded_seed0_digests(monkeypatch, name, count):
    workloads = _load("workloads", monkeypatch)
    expected = json.loads((PERFBENCH / "expected_seed0.json").read_text())
    assert expected["seed"] == 0
    workloads.reset_caches()
    batch = next(workloads.WORKLOADS[name](0).rounds())[:count]
    digests = [hashlib.sha256((req.run() or "").encode()).hexdigest()[:16] for req in batch]
    assert digests == expected["workloads"][name][:count]
