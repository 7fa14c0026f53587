import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_tour_runs(monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["ev"].log_gradient.shape == (4,)
