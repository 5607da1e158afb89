"""tools/fuzz_configs.py on a few seeded documents."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tallies_five_documents():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fuzz_configs.py"), "--src", str(ROOT / "src"),
         "--seed", "37", "--docs", "5"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}).stdout
    # document 4 puts the station at latitude -88.4 deg behind an 81 deg mask, which
    # satellite 0 of its 4,501 km, 75 deg orbit never clears
    assert out.splitlines() == ["seed 37, 5 documents", "rejected: 1", "ran: 4",
                                "stopped at t = 0: 0", "stopped later: 0"]
