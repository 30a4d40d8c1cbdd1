"""Where the benchmark finds the program and keeps its scratch files."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"


def import_gumkf():
    """Import gumkf from this checkout's ``src``, never from an installed copy;
    exit with an error when the checkout holds no gumkf sources."""
    init = SRC / "gumkf" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from the root of a gumkf checkout")
    sys.path.insert(0, str(SRC))
    import gumkf

    if Path(gumkf.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: gumkf was imported from {gumkf.__file__}, not {init}")
