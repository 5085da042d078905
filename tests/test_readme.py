"""The README's library example runs as written."""

import math
import re
from pathlib import Path

import numpy as np

from nesua.power import PowerParams, cell_draw

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_runs_and_draws_a_plausible_power():
    scope = {}
    exec(compile(_library_example(), str(README), "exec"), scope)
    watts, cfg, g = scope["watts"], scope["cfg"], scope["g"]
    p, t = PowerParams(), g.n_prb_total
    full_cell_w = float(cell_draw(np.array([float(t)]), p, t)[0])
    assert math.isfinite(watts)
    assert cfg.n_cells * p.p_sleep_w <= watts <= cfg.n_cells * full_cell_w
