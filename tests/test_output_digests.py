"""``output_digests.py``, the bit-identity tool, runs and hashes every output."""

import hashlib
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "output_digests.py"
OUTPUTS = ("graph_batches", "fit", "fit_prefixes", "fit_margin", "evaluate", "ranks", "queries")


def test_desk_seed_0_gives_one_digest_per_output():
    done = subprocess.run([sys.executable, str(SCRIPT), "--workloads", "desk", "--seeds", "0",
                           "--queries", "2"], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = [line.split() for line in done.stdout.splitlines()]
    assert [line[:3] for line in lines] == [["desk", "0", name] for name in OUTPUTS]
    digests = [line[3] for line in lines]
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests)
    # each output fed its hash: no digest is that of nothing, and none repeats
    assert hashlib.sha256().hexdigest() not in digests
    assert len(set(digests)) == len(digests)
