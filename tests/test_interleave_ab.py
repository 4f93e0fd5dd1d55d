"""``tools/interleave_ab.py`` runs a checkout against itself."""

import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "perfbench"))

import generate  # noqa: E402
import interleave_ab  # noqa: E402

LINE = re.compile(r"(old|new) matrix-solve seed 1: ops/s ([\d.]+)  "
                  r"p50 ([\d.]+) ms  p[\d.]+ ([\d.]+) ms  "
                  r"won (\d)/2 passes  raised 0$")
INSTANCE = re.compile(r"instance (\S+): old ([\d.]+) ms  new ([\d.]+) ms$")


def test_the_repo_against_itself(capsys):
    assert interleave_ab.main([str(ROOT), str(ROOT), "--workload",
                               "matrix-solve", "--passes", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    lines = [LINE.match(line) for line in out[:2]]
    assert [match[1] for match in lines] == ["old", "new"]
    for match in lines:
        assert float(match[2]) > 0
        assert 0 < float(match[3]) <= float(match[4])
    assert sum(int(match[5]) for match in lines) <= 2
    # one line per instance, in instance order, whose means the p50 reads
    instances = [INSTANCE.match(line) for line in out[2:]]
    assert [match[1] for match in instances] == \
        [inst["key"] for inst in generate.instances("matrix-solve", 1)]
    for side, summary in zip((2, 3), lines):
        means = [float(match[side]) for match in instances]
        assert min(means) > 0
        assert abs(statistics.median(means) - float(summary[3])) < 0.0015
