"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    scope = {}
    exec(compile(code, f"{README}:Library example", "exec"), scope)
    rank, l, mv = scope["cfg"].rank, scope["cfg"].l, scope["cfg"].mv
    assert scope["w"].shape == (scope["cfg"].n3, scope["cfg"].n_ports, rank)
    assert len(scope["taps"]) == mv and scope["taps"][0] == 0
    assert scope["grid"].shape == (2 * l, mv)
