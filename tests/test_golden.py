"""The determinism contract: every CLI output and demo stdout against the
recorded golden file, and reruns byte for byte.

Strings, integers and bools must match exactly and floats to 1e-12
relative, so a rounding change in NumPy or BLAS between hosts does not fail
the test while any moved value does.  ``python tests/golden/record.py``
rewrites the golden file.
"""

import json
import math
import re

import pytest

from golden.record import GOLDEN, collect, run_commands

REL = 1e-12
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def mismatches(actual, expected, where="$"):
    """The paths at which actual differs from expected."""
    if type(actual) is not type(expected):
        return [f"{where}: {actual!r} != {expected!r}"]
    if isinstance(expected, dict):
        if actual.keys() != expected.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for key in expected for m in mismatches(actual[key], expected[key], f"{where}.{key}")]
    if isinstance(expected, list):
        if len(actual) != len(expected):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [m for i, (a, e) in enumerate(zip(actual, expected)) for m in mismatches(a, e, f"{where}[{i}]")]
    if isinstance(expected, float):
        same = math.isclose(actual, expected, rel_tol=REL, abs_tol=0.0)
    else:
        same = actual == expected
    return [] if same else [f"{where}: {actual!r} != {expected!r}"]


def text_mismatches(actual, expected, where):
    """Printed text compared with its numbers as floats and the rest exactly."""
    words, numbers = NUMBER.split(actual), NUMBER.findall(actual)
    if words != NUMBER.split(expected):
        return [f"{where}: text differs:\n{actual}\n!=\n{expected}"]
    return mismatches([float(v) for v in numbers], [float(v) for v in NUMBER.findall(expected)], where)


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, collect(root)


def test_outputs_match_the_golden_file(first_run):
    _, actual = first_run
    expected = json.loads(GOLDEN.read_text())
    assert actual.keys() == expected.keys()
    assert mismatches(actual["runs"], expected["runs"]) == []
    assert actual["demos"].keys() == expected["demos"].keys()
    assert [m for name in expected["demos"] for m in text_mismatches(actual["demos"][name], expected["demos"][name], name)] == []


def test_reruns_are_byte_identical(first_run, tmp_path):
    root, _ = first_run
    again = run_commands(tmp_path)
    assert len(again) == 20
    for key, out in again.items():
        first = root / out.relative_to(tmp_path)
        names = sorted(path.name for path in out.iterdir())
        assert names == sorted(path.name for path in first.iterdir()), key
        for name in names:
            assert (out / name).read_bytes() == (first / name).read_bytes(), f"{key}/{name}"


def test_text_comparison_reads_numbers_as_floats():
    assert text_mismatches("gap 1.5e-03 at n=256", "gap 1.5e-03 at n=256", "demo") == []
    assert text_mismatches("gap 1.6e-03 at n=256", "gap 1.5e-03 at n=256", "demo")
    assert text_mismatches("gap 1.5e-03 at m=256", "gap 1.5e-03 at n=256", "demo")
    assert mismatches({"a": [1, 2.0, True]}, {"a": [1, 2.0 * (1 + 1e-14), True]}) == []
    assert mismatches({"a": 1}, {"a": 1.0}) and mismatches({"a": True}, {"a": 1})
