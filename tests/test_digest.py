"""``tools/digest.py`` on a few ops: the digest of a seed is a SHA-256
that does not depend on the directory the workload ran in, and differs
between seeds."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import digest  # noqa: E402


def test_replay_bodies_digest_repeats_and_depends_on_the_seed(capsys):
    first = digest.seed_digest("replay-bodies", 1, 3)
    assert len(first) == 64 and int(first, 16) >= 0
    assert digest.seed_digest("replay-bodies", 1, 3) == first
    assert digest.main(["--workload", "replay-bodies", "--seeds", "1", "2", "--ops", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"replay-bodies seed 1 ops 3: {first}"
    assert lines[1].startswith("replay-bodies seed 2 ops 3: ") and lines[1][-64:] != first
