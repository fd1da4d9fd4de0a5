"""What ``import spherehc`` loads: numpy, and no scipy or process pool."""

from __future__ import annotations

import os
import subprocess
import sys
import types
from pathlib import Path

import spherehc

ROOT = Path(__file__).resolve().parents[1]


def _run(code: str) -> subprocess.CompletedProcess:
    src = str(Path(spherehc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)


def test_import_loads_neither_scipy_nor_the_process_pool():
    code = (
        "import sys, spherehc, spherehc.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m == 'concurrent.futures.process'))"
    )
    assert _run(code).stdout.strip() == "[]"


def test_repro_runs_its_scan_in_process():
    # --jobs sizes the pool of `scan` only; on the repro grid a pool costs more than it saves
    code = (
        "import sys; from spherehc.cli import main; "
        "code = main(['repro', '--jobs', '2', '--format', 'csv']); "
        "print(code, 'concurrent.futures.process' in sys.modules)"
    )
    assert _run(code).stdout.strip().splitlines()[-1] == "0 False"


def test_every_traced_layer_name_resolves():
    # benchmarks/spans.py wraps these functions by name; one that is gone makes
    # `benchmarks/run.py --trace 1` fail.  The file is compiled from its text,
    # so no bytecode is written next to it.
    path = ROOT / "benchmarks" / "spans.py"
    spans = types.ModuleType("spans")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), spans.__dict__)
    missing = [
        f"{module.__name__}.{name}"
        for module, names in spans.LAYERS.values()
        for name in names
        if not callable(getattr(module, name, None))
    ]
    assert missing == []
