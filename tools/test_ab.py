"""Self-tests of tools/ab.py; run with ``python -m pytest tools``."""
import numpy as np

import ab


def test_head_against_head_reports_equal_outputs(capsys):
    # two separate extracted copies of one revision: every call's outputs equal
    assert ab.main(["--smoke", "--base", "HEAD", "--change", "HEAD", "--pairs", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "randpivot_base_" in lines[0] and "randpivot_change_" in lines[0]
    assert [line.split()[0] for line in lines[1:-1]] == list(ab.calls(True))
    assert all(line.endswith("equal 3/3") for line in lines[1:-1])
    assert lines[-1] == f"ab: outputs equal in every pair of {len(ab.calls(True))} calls"


def test_a_differing_output_is_counted():
    class Side:
        def __init__(self, value):
            self.value = value

    result = ab.compare("fake", lambda rp, h, seed: rp.value + seed,
                        [(Side(0.0), None), (Side(1.0), None)], 4, 0)
    assert result["equal"] == 0 and result["pairs"] == 4


def test_canonical_form_is_bitwise():
    assert ab.canonical(0.0) != ab.canonical(-0.0)
    assert ab.canonical({"x": (1.0, np.float64(2.0))}) == {"x": ["0x1.0000000000000p+0",
                                                                 "0x1.0000000000000p+1"]}
    assert ab.canonical(np.array([1, 2], np.int32)) != ab.canonical(np.array([1, 2], np.int64))


def test_smoke_proportion500_is_split(monkeypatch):
    # --smoke's heavy cell stays past the two-thread split's cut, as the full one is
    rp = ab.load_worktree()
    ranges, chunk = [], rp.mc._study_chunk
    monkeypatch.setattr(rp._pool, "cpus", lambda: 2)
    monkeypatch.setattr(rp.mc, "_study_chunk", lambda args: ranges.append(args[-2:]) or chunk(args))
    ab.calls(True)["proportion500"](rp, None, 1)
    assert sorted(ranges) == [(0, 30), (30, 60)]
