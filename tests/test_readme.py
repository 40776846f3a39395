"""The README's python examples run, in order, in one namespace."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) >= 2
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue()
    # the decomposition and representation decompose_power returns
    assert namespace["dec_power"].factors is None
    assert namespace["rep_power"].centers.shape[0] == namespace["D"].n
