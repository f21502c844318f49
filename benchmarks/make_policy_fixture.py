"""Train the policy that the ``eval`` workload loads, once, and store it.

The fixture is kept in the repository so that ``eval`` measures evaluation
alone and never depends on how fast, or how reproducibly, training runs. Run
this from the repository root only to replace the fixture on purpose:

    python3 benchmarks/make_policy_fixture.py

It trains with the default ``TrainConfig`` for ``EPISODES`` episodes on a
fleet generated for this purpose, through the ``ecofollow train`` command,
and copies the resulting format-v1 policy JSON to ``fixtures/policy_v1.json``.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_inputs  # noqa: E402

EPISODES = 200
SEED = 7
FIXTURE = HERE / "fixtures" / "policy_v1.json"


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from ecofollower.cli import main as ecofollow

    scratch = Path.cwd() / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        fleet = Path(tmp) / "fleet.csv"
        bench_inputs.write_events_csv(bench_inputs.make_fleet(SEED, "fixture", 40, (18.0, 30.0)),
                                      fleet)
        code = ecofollow(["train", "--events", str(fleet), "--seed", str(SEED),
                          "--episodes", str(EPISODES), "--out", str(Path(tmp) / "run")])
        if code != 0:
            return code
        shutil.copyfile(Path(tmp) / "run" / "policy.json", FIXTURE)
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
