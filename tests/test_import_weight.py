"""``import repro`` loads no stack that serving does not run.

The metrics HTTP server imports ``http.server`` (and with it
``socketserver``, ``http.client`` and ``ssl``) when it starts, and the
dense worker imports ``multiprocessing.shared_memory`` when it first
needs a segment: a process that never scrapes or never runs a dense
model pays for neither.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules ``import repro`` must leave unloaded.
LAZY = ("http.server", "socketserver", "ssl", "multiprocessing.shared_memory")


def test_import_repro_loads_no_http_or_shared_memory_stack():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    probe = (
        "import sys, repro; "
        f"print(' '.join(m for m in {LAZY!r} if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    )
    assert done.stdout.split() == []
