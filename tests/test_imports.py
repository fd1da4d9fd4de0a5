"""What ``import spherehc`` loads: numpy, and no scipy or process pool."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import spherehc


def test_import_loads_neither_scipy_nor_the_process_pool():
    src = str(Path(spherehc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, spherehc, spherehc.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m == 'concurrent.futures.process'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
