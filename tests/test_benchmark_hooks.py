"""The package names that the benchmark's probe wraps must exist.

``perfbench/probe.py`` replaces module globals of ``romdom.bounds`` and
``romdom.cli`` in every benchmark run, so deleting or renaming one of them
makes every run fail. The test reads its tables and leaves them as they are.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import romdom
import romdom.cli

_PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def test_every_name_the_probe_wraps_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_probe", _PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    # the traced run wraps TRACED; the node meter wraps the solvers in both
    # modules and times cli.run_suite
    targets = set(probe.TRACED) | {(m, fn) for m in ("bounds", "cli") for fn in probe.SOLVERS}
    assert ("cli", "run_suite") in targets
    missing = [
        f"romdom.{m}.{fn}"
        for m, fn in sorted(targets)
        if not callable(getattr(getattr(romdom, m), fn, None))
    ]
    assert missing == []
