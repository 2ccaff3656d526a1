"""The environment for a child interpreter that must run this checkout.

pytest finds the package through `pythonpath` in pyproject.toml, but a
child `python -m delpezzo` only sees PYTHONPATH, so every spawn passes
`child_env()`: the checkout's `src/` first, then whatever PYTHONPATH held.
"""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict:
    """os.environ with this checkout's src/ first on PYTHONPATH."""
    rest = os.environ.get("PYTHONPATH")
    path = str(SRC) + (os.pathsep + rest if rest else "")
    return {**os.environ, "PYTHONPATH": path}
