"""``tools/cold_ring.py`` runs a checkout against itself for one run."""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import cold_ring  # noqa: E402

LINE = re.compile(r"(old|new) \(7,2,2\) x\+pi prec 7: first ([\d.]+) s  "
                  r"second ([\d.]+) s  median of 1$")


def test_the_repo_against_itself(capsys):
    assert cold_ring.main([str(ROOT), str(ROOT), "--ring", "7,2,2",
                           "--runs", "1"]) == 0
    lines = [LINE.match(line) for line in
             capsys.readouterr().out.splitlines()]
    assert [match[1] for match in lines] == ["old", "new"]
    for match in lines:
        assert float(match[2]) > 0 and float(match[3]) > 0


def test_the_document_is_x_plus_pi_at_prec_p():
    doc = cold_ring.document(13, 2, 4)
    assert doc["ring"] == {"p": 13, "m": 2, "e": 4,
                           "E": [-13, 0, 0, 0, 1], "prec": 13}
    assert doc["family"]["L"] == "x+pi"
