"""Helpers shared by the test modules."""

import os
import subprocess
import sys


def run_cli(*argv, env_extra=None):
    """Run ``python -m tmoments`` with ``argv`` in a fresh interpreter.

    TMOMENT_SEED is removed from the environment unless ``env_extra`` sets it.
    """
    env = os.environ.copy()
    env.pop("TMOMENT_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "tmoments", *argv],
                          capture_output=True, text=True, env=env)
