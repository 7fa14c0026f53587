"""pyproject.toml declares numpy>=1.24, and a suite run on numpy 2 cannot show
that the package still imports and runs on numpy 1.24. This test keeps the
source off the numpy 2 additions that numpy 1.24 lacks."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NUMPY_2_ONLY = re.compile(
    r"\.mT\b|\bvecdot\b|\bmatvec\b|\bvecmat\b|np\.concat\(|np\.permute_dims\b|np\.astype\("
)


def test_source_keeps_to_the_numpy_1_24_api():
    assert '"numpy>=1.24"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    hits = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted((ROOT / "src" / "signolearn").glob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if NUMPY_2_ONLY.search(line)
    ]
    assert not hits, hits
