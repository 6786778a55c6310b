"""Set-up probe: a fresh interpreter gets ready to run one workload.

It imports numpy and wavebound and resolves the workload's configs (argv
parsing, profile and data construction), then prints the seconds since
``t0``, the parent's ``time.monotonic()`` just before it started this
process. That is ``setup_s``, interpreter start included and exit excluded.

    python3 perfbench/setup_probe.py <workload> <seed> <t0>
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy  # noqa: E402,F401

import wavebound.cli  # noqa: E402,F401
from workloads import resolve  # noqa: E402

resolve(sys.argv[1], int(sys.argv[2]))
print(time.monotonic() - float(sys.argv[3]))
