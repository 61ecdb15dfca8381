import re
from pathlib import Path

import hedgelab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_exports_are_the_readme_example_names():
    block = re.search(r"from hedgelab import \((.*?)\)", README.read_text(), re.S).group(1)
    names = {name.strip() for name in block.split(",") if name.strip()}
    assert names == set(hedgelab.__all__)
    assert all(hasattr(hedgelab, name) for name in hedgelab.__all__)
