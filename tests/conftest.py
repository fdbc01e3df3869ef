"""Shared test set-up.

No test writes bytecode into the checkout: a ``__pycache__`` under ``src``
would let later cold processes skip compiling the package, so they would no
longer run the program as a fresh checkout runs it.  The cold processes the
tests start set ``PYTHONDONTWRITEBYTECODE=1`` for the same reason.
"""

import sys

sys.dont_write_bytecode = True
