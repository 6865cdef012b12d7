import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_as_shown(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    sgp, sp, ratio = capsys.readouterr().out.splitlines()[0].split()
    assert float(sgp) == 20.0
    assert sp.startswith("17.3205")
    assert ratio.startswith("1.1547")
    assert float(ratio) == pytest.approx(2.0 / 3.0**0.5, rel=1e-6)
