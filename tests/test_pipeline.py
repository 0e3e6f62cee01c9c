"""The paper's pipeline end to end through the command line: regions ->
scenario -> prime subnetwork -> reconstitution, which must give back the
scenario byte for byte, and the scalability harness."""

import json

import pytest

from rcckit.cli import main

# an L, a C-frame with the square it frames and a dot in that square, a
# notched pentagon sharing an edge with the L, a triangle touching the L
# at a vertex, and a bar overlapping it
NON_CONVEX = {"regions": [
    {"id": "ell", "ring": [[0, 0], [6, 0], [6, 2], [2, 2], [2, 6], [0, 6]]},
    {"id": "frame", "ring": [[14, 0], [26, 0], [26, 12], [21, 12], [21, 10],
                             [24, 10], [24, 2], [16, 2], [16, 10], [19, 10],
                             [19, 12], [14, 12]]},
    {"id": "square", "ring": [[16, 2], [24, 2], [24, 10], [16, 10]]},
    {"id": "dot", "ring": [[19, 5], [21, 5], [21, 7], [19, 7]]},
    {"id": "notched", "ring": [[6, 0], [10, 0], [10, 4], [8, 3], [6, 4]]},
    {"id": "triangle", "ring": [[2, 6], [8, 7], [5, 10]]},
    {"id": "bar", "ring": [[-2, 3], [4, 3], [4, 4], [-2, 4]]},
]}


def _round_trip(regions):
    """geom2net, prime and reconstitute on a region file in the working
    directory; the reconstituted network must equal the scenario."""
    for argv in (["geom2net", regions, "-o", "scene.net"],
                 ["prime", "scene.net", "-o", "prime.net"],
                 ["reconstitute", "prime.net", regions, "-o", "back.net"]):
        assert main(argv) == 0, argv
    with open("scene.net", "rb") as scene, open("back.net", "rb") as back:
        assert scene.read() == back.read()


@pytest.mark.parametrize("n, profile", [
    (40, "mixed"),
    # almost every pair box-apart
    (200, "scattered"),
    # closed in several sweeps
    (200, "nested"),
])
def test_pipeline_on_generated_regions(tmp_path, monkeypatch, n, profile):
    monkeypatch.chdir(tmp_path)
    assert main(["gen-regions", "-n", str(n), "--seed", "7", "--profile",
                 profile, "-o", "regions.json"]) == 0
    _round_trip("regions.json")


def test_pipeline_on_non_convex_regions(tmp_path, monkeypatch):
    # the general predicate, not the convex one
    monkeypatch.chdir(tmp_path)
    (tmp_path / "shapes.json").write_text(json.dumps(NON_CONVEX))
    _round_trip("shapes.json")


def test_bench_with_multi_row_and_one_row_closure_blocks():
    # 60 and 120 variables close in blocks of several rows, 200 in one-row
    # blocks
    assert main(["bench", "--sizes", "60,120,200", "--profile", "nested",
                 "--seed", "7"]) == 0
