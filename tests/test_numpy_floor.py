"""pyproject.toml declares numpy>=1.24, and a suite run on numpy 2 cannot show
that the package still imports and runs on numpy 1.24. This test keeps the
source off the numpy 2 additions that numpy 1.24 lacks."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

NUMPY_2_ONLY = re.compile(
    r"\.mT\b|\bvecdot\b|\bmatvec\b|\bvecmat\b|np\.concat\(|np\.permute_dims\b|np\.astype\("
    r"|np\.asarray\(.*\bcopy=|np\.unstack\b|np\.cumulative_(sum|prod)\b"
    r"|np\.isdtype\b|np\.bitwise_count\b"
    r"|np\.linalg\.(matrix_transpose|svdvals|matrix_norm|vector_norm|outer|cross|diagonal"
    r"|trace|tensordot|matmul)\b|\bpinv\(.*\brtol="
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


def test_no_source_or_test_line_is_longer_than_100_characters():
    long = [
        f"{path.parent.name}/{path.name}:{i}: {len(line)} characters"
        for folder in (ROOT / "src" / "signolearn", ROOT / "tests")
        for path in sorted(folder.glob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert not long, long


@pytest.mark.parametrize("line, flagged", [
    ("y = np.asarray(x, dtype=float, copy=False)", True),
    ("parts = np.unstack(a)", True),
    ("c = np.cumulative_sum(a, axis=0)", True),
    ("c = np.cumulative_prod(a)", True),
    ("t = np.linalg.matrix_transpose(a)", True),
    ("if np.isdtype(a.dtype, 'real floating'):", True),
    ("n = np.bitwise_count(a)", True),
    ("s = np.linalg.svdvals(a)", True),
    ("r = np.linalg.matrix_norm(a, ord=2)", True),
    ("r = np.linalg.vector_norm(a, axis=-1)", True),
    ("o = np.linalg.outer(a, b)", True),
    ("c = np.linalg.cross(a, b)", True),
    ("d = np.linalg.diagonal(a)", True),
    ("t = np.linalg.trace(a)", True),
    ("t = np.linalg.tensordot(a, b, axes=1)", True),
    ("p = np.linalg.matmul(a, b)", True),
    ("x = np.linalg.pinv(a, rtol=1e-12) @ b", True),
    # numpy 1.24 has copy= on np.array, and np.asarray without it
    ("x = np.array(x0, dtype=float, copy=True)", False),
    ("y = np.asarray(x, dtype=float)", False),
    ("c = np.cumsum(a)", False),
    # the numpy 1.24 spellings of the same operations
    ("p = np.matmul(a, b)", False),
    ("t = np.trace(a)", False),
    ("x = np.linalg.pinv(a)", False),
    ("u, s, vt = np.linalg.svd(a, full_matrices=False)", False),
])
def test_the_guard_flags_numpy_2_only_calls(line, flagged):
    assert bool(NUMPY_2_ONLY.search(line)) is flagged
