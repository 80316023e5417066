"""The benchmark's own test: its smoke mode, run in-process.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import run


def test_smoke_emits_every_declared_metric():
    assert run.main(["--smoke"]) == 0
