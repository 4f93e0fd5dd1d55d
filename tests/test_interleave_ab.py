"""``tools/interleave_ab.py`` runs a checkout against itself."""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import interleave_ab  # noqa: E402

LINE = re.compile(r"(old|new) matrix-solve seed 1: ops/s ([\d.]+)  "
                  r"p50 ([\d.]+) ms  p[\d.]+ ([\d.]+) ms  "
                  r"won (\d)/2 passes  raised 0$")


def test_the_repo_against_itself(capsys):
    assert interleave_ab.main([str(ROOT), str(ROOT), "--workload",
                               "matrix-solve", "--passes", "2"]) == 0
    lines = [LINE.match(line)
             for line in capsys.readouterr().out.splitlines()]
    assert [match[1] for match in lines] == ["old", "new"]
    for match in lines:
        assert float(match[2]) > 0
        assert 0 < float(match[3]) <= float(match[4])
    assert sum(int(match[5]) for match in lines) <= 2
