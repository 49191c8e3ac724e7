"""The README's python blocks run as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for k, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {k}", "exec"), namespace)
