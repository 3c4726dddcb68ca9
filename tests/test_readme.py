"""The README's library example runs as written."""

import re
from pathlib import Path

from parapt.fem import build_mesh, mass_matrix, stiffness_matrix
from parapt.optimizer import discretize_problem, fixed_point_solve
from parapt.problems import example1, example2
from parapt.timegrid import PiecewiseLinearField, uniform_grid

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


def test_readme_record_example_counts():
    """The step solves the README counts for its ``record`` example are the
    ones the solve records."""
    text = " ".join(README.read_text().split())
    found = re.search(
        r"Example (\d) at `nh=(\d+)` and M=(\d+), for instance, takes (\d+) "
        r"sweeps: one factor, (\d+) band solves \(.*?\) and the terminal "
        r"`k = 0` PCG solve of (\d+) iterations", text)
    example, nh, M, sweeps, bands, its = found.groups()
    prob = {"1": example1, "2": example2}[example]()
    mesh = build_mesh(int(nh))
    dp = discretize_problem(prob, mesh, mass_matrix(mesh),
                            stiffness_matrix(mesh))
    rep = fixed_point_solve(dp, uniform_grid(prob.T, int(M)))
    assert rep.iterations == int(sweeps)
    assert [kind for kind, _, _ in rep.record] == (
        ["factor"] + ["band"] * int(bands) + ["pcg"])
    assert rep.record[-1][1:] == (0.0, int(its))
