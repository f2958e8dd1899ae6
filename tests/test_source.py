import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "pcsgd")


def test_no_source_line_is_over_100_characters():
    long_lines = [
        f"{os.path.basename(path)}:{number}"
        for path in sorted(glob.glob(os.path.join(SRC, "*.py")))
        for number, line in enumerate(open(path, encoding="utf-8"), 1)
        if len(line.rstrip("\n")) > 100
    ]
    assert long_lines == []
