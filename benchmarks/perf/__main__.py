"""``python -m benchmarks.perf`` (also runnable as a script path)."""

import sys

if __package__ in (None, ""):
    # run as ``python benchmarks/perf/__main__.py``: make the package
    # importable from the repository root
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.perf.cli import main
else:
    from .cli import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
