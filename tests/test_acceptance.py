"""End-to-end acceptance gate: every criterion at its stated tolerance.

Each test prints its pass/fail line through the shared suite runner, so
`pytest -s tests/test_acceptance.py` shows one line per criterion; the CLI
`hardylab suite` command runs the same code.
"""

from hardylab import acceptance


def _run(fn):
    res = fn()
    state = "PASS" if res["passed"] else "FAIL"
    print(f"[{state}] criterion {res['criterion']}: {res['name']}")
    return res


def test_criterion_1_whitney_validity():
    res = _run(acceptance.criterion_whitney)
    assert res["passed"], res["rows"]


def test_criterion_2_summation_lemma():
    res = _run(acceptance.criterion_summation)
    assert res["passed"], res["rows"]


def test_criterion_3_dimension_anchors():
    res = _run(acceptance.criterion_dimension)
    assert res["passed"], res["rows"]


def test_criterion_4_capacity_oracle():
    res = _run(acceptance.criterion_capacity)
    assert res["passed"], res["rows"]
    # ten sets at each level, every one solved by the block eigensolver,
    # are checked against the dense oracle
    levels = [r["grid_level"] for r in res["rows"] if "grid_level" in r]
    assert sorted(levels) == [4] * 10 + [5] * 10


def test_criterion_5_hardy_anchor():
    res = _run(acceptance.criterion_hardy_anchor)
    assert res["passed"], res["rows"]


def test_criterion_6_soundness():
    res = _run(acceptance.criterion_soundness)
    assert res["passed"], [r for r in res["rows"] if not r.get("ok")]


def test_criterion_7_case_e():
    res = _run(acceptance.criterion_case_e)
    assert res["passed"], res["rows"]


def test_criterion_8_cone_split():
    res = _run(acceptance.criterion_cone)
    assert res["passed"], [r for r in res["rows"] if r.get("ok") is False]


def test_criterion_9_determinism():
    res = _run(acceptance.criterion_determinism)
    assert res["passed"], res["rows"]
