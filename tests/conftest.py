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


def mp_incomplete_beta(a, b, y):
    """Regularized incomplete beta I_y(a, b) in mpmath, 0 <= y <= 1.

    The positive-term series y^a (1-y)^b / (a B(a, b)) 2F1(a+b, 1; a+1; y),
    taken directly below the mean a/(a+b), where I is about 1/2 or less, and
    as 1 - I_(1-y)(b, a) above it, so the smaller of the two is never a
    difference. Set the working precision around the call.
    """
    import mpmath

    a, b, y = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(y)
    if y == 0 or y == 1:
        return y
    if y > a / (a + b):
        return 1 - mp_incomplete_beta(b, a, 1 - y)
    return (y ** a * (1 - y) ** b / (a * mpmath.beta(a, b))
            * mpmath.hyp2f1(a + b, 1, a + 1, y))
