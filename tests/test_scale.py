"""Report digests at scale, run only on request.

Each case runs the ``onsager`` CLI in a fresh process and checks its exit
code, the sha256 of its stdout and its stderr.  The cases take from 1 s
to over a minute each, so they run only when ``ONSAGER_SCALE`` is set:
``ONSAGER_SCALE=1`` runs the first five, ``ONSAGER_SCALE=2`` adds the
(7,4) audit.  Otherwise they are reported as skipped.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from onsager import cli

LEVEL = int(os.environ.get("ONSAGER_SCALE") or 0)

CASES = [
    (1, ["audit", "theorem", "--mdegree", "6", "--index", "4", "--format", "json"], 0,
     "1bc57b324724a0655c281c778fdc408c062d4c5cee5ac7fcd9aebe5fe510af96", ""),
    (1, ["verify", "--max-index", "4", "--max-order", "4", "--format", "json"], 1,
     "b4dfd1e1f26eff95c419bea5610ca7a9c4f72b9a9584a53f2e7a6094ed2b39c7", ""),
    (1, ["coords", "dp(xp(1),2)*dp(xm(1),2)", "--mdegree", "6", "--index", "4"], 1,
     hashlib.sha256(b"").hexdigest(),
     "error: coordinates not unique at this truncation (kernel dimension 68335)\n"),
    # the largest span cutoff: 40,959 even p-vectors and 24,323 odd ones
    (1, ["audit", "span", "--parity", "even", "--cutoff", "400", "--format", "json"], 0,
     "123dfd9a87c9f06e5c195669a11f72034f0feb6aee92c62fb503b6adf0723378", ""),
    (1, ["audit", "span", "--parity", "odd", "--cutoff", "400", "--format", "json"], 0,
     "5f3969e6fda3142e1a85487c78d6415063e15d89cfd1e4106988070722b83860", ""),
    (2, ["audit", "theorem", "--mdegree", "7", "--index", "4", "--format", "json"], 0,
     "a21fd35d606244ee1b01f56291e6c851a12f0baad7b32721f904c9d98142d6d2", ""),
]


@pytest.mark.parametrize("level, argv, code, digest, stderr", CASES,
                         ids=[" ".join(case[1]) for case in CASES])
def test_scale_digest(level, argv, code, digest, stderr):
    if LEVEL < level:
        pytest.skip(f"set ONSAGER_SCALE={level} to run")
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop(cli.ENV_CONFIG, None)
    proc = subprocess.run([sys.executable, "-m", "onsager.cli", *argv],
                          capture_output=True, env=env, timeout=600)
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), proc.stderr.decode()) == \
        (code, digest, stderr)
