"""The README's library example runs as written."""

import re
from pathlib import Path

from parapt.timegrid import PiecewiseLinearField

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example(capsys):
    text = README.read_text()
    library = text[text.index("\n## Library\n"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    scope = {}
    exec(compile(code, f"{README}:Library", "exec"), scope)
    assert scope["report"].iterations >= 1
    assert isinstance(scope["y_lift"], PiecewiseLinearField)
    assert capsys.readouterr().out.startswith(
        str(scope["report"].iterations))
