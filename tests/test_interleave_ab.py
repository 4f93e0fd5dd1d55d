"""``tools/interleave_ab.py`` runs a checkout against itself, once with an
instance planted to raise on one side."""

import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "perfbench"))

import generate  # noqa: E402
import interleave_ab  # noqa: E402
import worker  # noqa: E402

LINE = re.compile(r"(old|new) matrix-solve seed 1: ops/s ([\d.]+)  "
                  r"p50 ([\d.]+) ms  p[\d.]+ ([\d.]+) ms  "
                  r"won (\d)/2 passes  raised 0$")
INSTANCE = re.compile(r"instance (\S+): old ([\d.]+) ms  new ([\d.]+) ms$")
SAME = re.compile(r"(old|new) same outcome on both sides: (\d+)/(\d+) "
                  r"instances  p50 ([\d.]+) ms$")


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
    instances = [INSTANCE.match(line) for line in out[2:-2]]
    assert [match[1] for match in instances] == \
        [inst["key"] for inst in generate.instances("matrix-solve", 1)]
    for side, summary in zip((2, 3), lines):
        means = [float(match[side]) for match in instances]
        assert min(means) > 0
        assert abs(statistics.median(means) - float(summary[3])) < 0.0015
    # the checkout against itself: every instance has one outcome class on
    # both sides, so the same-outcome p50 is the p50 of all instances
    same = [SAME.match(line) for line in out[-2:]]
    assert [match[1] for match in same] == ["old", "new"]
    for match, summary in zip(same, lines):
        assert int(match[2]) == int(match[3]) == len(instances)
        assert match[4] == summary[3]


def test_the_same_outcome_p50_leaves_out_an_instance_that_changed_class(
        monkeypatch):
    """With the first instance raising on the new side only, the
    same-outcome p50 of each side is the median over the other instances."""
    build, sides = worker.build_ops, []

    def build_ops(mods, workload, instances):
        ops, check = build(mods, workload, instances)
        sides.append(mods)
        if len(sides) == 2:     # the new side

            def planted():
                raise ArithmeticError("planted")

            ops = [planted] + ops[1:]
        return ops, check

    monkeypatch.setattr(worker, "build_ops", build_ops)
    result = interleave_ab.compare(ROOT, ROOT, "matrix-solve", 2)
    keys = [inst["key"] for inst in generate.instances("matrix-solve", 1)]
    assert result["new"]["raised"] == 2 and result["old"]["raised"] == 0
    for side in interleave_ab.SIDES:
        means = result[side]["means_ms"]
        assert result[side]["same"] == len(keys) - 1
        assert result[side]["same_p50_ms"] == \
            statistics.median(means[key] for key in keys[1:])


def test_the_seed_option_picks_the_instance_list(capsys):
    """``--seed 2`` runs seed 2's instances and names the seed (without it,
    the lines above read seed 1)."""
    assert interleave_ab.main([str(ROOT), str(ROOT), "--workload",
                               "matrix-solve", "--passes", "1",
                               "--seed", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert all(line.startswith(f"{side} matrix-solve seed 2: ")
               for side, line in zip(("old", "new"), out[:2]))
    assert [INSTANCE.match(line)[1] for line in out[2:-2]] == \
        [inst["key"] for inst in generate.instances("matrix-solve", 2)]
