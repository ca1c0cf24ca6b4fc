"""The README's documented call shapes run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs_as_written(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} (Library example)", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == ["S1-S2", "S1-S3", "S1-S4", "S1-S5"]
