"""README's library quick start runs as written.

Its two ``python`` blocks share one namespace: the second uses the
first's ``mu`` and ``eta``.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_one_namespace():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert f"{namespace['mu']:.4f}" == "0.4789"  # as its comment says
    assert namespace["res"].result.key_bits_lower > 0.0
