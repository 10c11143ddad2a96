"""Locate the checkout and import lyapset from its `src/`, never from elsewhere."""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def use_checkout_source():
    """Import lyapset from ROOT/src; exit with code 2 if it is not there."""
    package = os.path.join(SRC, "lyapset")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"perfbench: no lyapset source at {package}")
    sys.path.insert(0, SRC)
    import lyapset

    if os.path.dirname(os.path.abspath(lyapset.__file__)) != package:
        sys.exit(f"perfbench: lyapset was imported from {lyapset.__file__}, not {package}")
