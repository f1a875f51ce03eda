import copy
import gc
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import cutglue
from cutglue import cli, suites
from cutglue.reports import Check, Report, gap
from peaks import traced_peak

CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                      "path9_cubic.json")
GRID_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                           "grid5_quartic.json")
# Changes to path9_cubic: three scales whose kernels all average over several
# nodes, so that data of one scale reaching the next would change a report.
INTERVAL_CHANGES = {
    "name": "interval41",
    "mesh": {"type": "interval", "n_interior": 41, "spacing": 1.0},
    "cut": {"axis": 0, "value": 21.0},
    "operator": {"mass_squared": 0.1},
    "kernel": {"shape": "bump"},
    "lambdas": [0.2, 0.3, 0.5],
    "eta": [0.3, -0.7],
}


# A 5-node path as a `file` mesh; cases append one more edge line.
FIVE_NODES = "".join(
    ["mesh dim=1 spacing=1.0 nodes=5\n"]
    + [f"node {k} {'boundary' if k in (0, 4) else 'interior'} vol=1.0 pos {k}.0\n"
       for k in range(5)]
    + [f"edge {k} {k + 1} w=1.0 len=1.0\n" for k in range(4)])


def unit_path(nodes):
    """A unit path of `nodes` nodes, its two ends the boundary, as a `file` mesh."""
    return "".join(
        [f"mesh dim=1 spacing=1.0 nodes={nodes}\n"]
        + [f"node {k} {'boundary' if k in (0, nodes - 1) else 'interior'} vol=1.0 pos {k}.0\n"
           for k in range(nodes)]
        + [f"edge {k} {k + 1} w=1.0 len=1.0\n" for k in range(nodes - 1)])


# path9_cubic's own mesh as a `file` mesh; cases change one value in it.
NINE_NODES = unit_path(9)


def path9_with(tmp_path, **changes):
    """The committed path9 config with some top-level entries replaced."""
    with open(CONFIG, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw.update(changes)
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(raw))
    return str(path)


def mesh_file(text):
    """A `file` mesh entry; its text is written under the test's tmp_path."""
    def write(tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text(text)
        return {"type": "file", "path": str(path)}
    return write


def test_list_suites(capsys):
    assert cli.main(["list-suites"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) >= 5
    names = [l.split(":")[0] for l in lines]
    assert "gluing-theorem" in names
    assert "averaging-closed-form" in names
    assert names == sorted(names)


def test_run_fast_suites(tmp_path, capsys):
    code = cli.main(["run", CONFIG, "--out-dir", str(tmp_path),
                     "--suite", "green-identities",
                     "--suite", "kernel-properties"])
    assert code == 0
    out = capsys.readouterr().out
    assert "green-identities: pass" in out
    assert "kernel-properties: pass" in out
    for suite in ("green-identities", "kernel-properties"):
        for ext in (".csv", ".json"):
            assert (tmp_path / f"path9_cubic-{suite}{ext}").exists()
    summary = json.loads((tmp_path / "path9_cubic-summary.json").read_text())
    assert summary["passed"] is True


@pytest.mark.parametrize("changes, message", [
    ({"lambdas": [0.1]}, "config error: lam below lambda_1: 0.1 <= 0.25\n"),
    ({"operator": {"mass_squared": -5}},
     "non-positive spectrum in interior operator: smallest eigenvalue -4.84776\n"),
    ({"lambdas": ["x"]}, "lambdas entry must be a finite number, got 'x'"),
    ({"max_order": 3.0}, "above the cap"),
    ({"interaction": {"3": [0.1, 0.2]}}, "has 2 entries, mesh has 9 nodes"),
    ({"interaction": {"3": "x"}}, "must be a finite number"),
    ({"interaction": {"3": float("nan")}}, "must be a finite number"),
    ({"interaction": {"3": None}}, "must be a finite number"),
    ({"interaction": {"3": {"x": 0.1}}}, "not a node id"),
    ({"interaction": {"3": {"9": 0.1}}}, "not a node id"),
    ({"eta": [float("nan"), 0.0]}, "eta value must be a finite number, got nan"),
    ({"name": "../../etc/x"}, "must be a plain file name"),
    ({"name": ""}, "must be a plain file name"),
    ({"name": "."}, "must be a plain file name"),
    ({"name": ".."}, "must be a plain file name"),
    ({"mesh": {"type": "file", "path": "no/such/mesh.txt"}},
     "cannot read mesh file"),
    ({"mesh": mesh_file("mesh dim=1 spacing=1.0 nodes=1\nnode 0\n")},
     "truncated line: 'node 0'"),
    ({"mesh": mesh_file("mesh dim=1 spacing=1.0 nodes=2\n"
                        "node 0 boundary vol=0.5 pos 0.0\n"
                        "node 1 interior vol=1.0 pos 1.0\n"
                        "edge 1 7 w=1.0 len=1.0\n")},
     "node index out of range"),
    ({"mesh": mesh_file("mesh dim=1 spacing=1.0 nodes=2\n"
                        "node 0 boundary vol=0.5 pos 0.0\n"
                        "node 0 boundary vol=0.5 pos 1.0\n"
                        "edge 0 1 w=1.0 len=1.0\n")},
     "duplicate node id 0"),
    ({"mesh": mesh_file("mesh dim=1 spacing=1.0 nodes=2\n"
                        "node 0 boundary vol=0.5 pos 0.0\n"
                        "node 5 boundary vol=0.5 pos 1.0\n"
                        "edge 0 1 w=1.0 len=1.0\n")},
     "node id 5 out of range 0..1"),
    ({"mesh": mesh_file("mesh dim=1 spacing=1.0 nodes=5\n"
                        "node 0 boundary vol=0.5 pos 0.0\n"
                        "node 1 interior vol=1.0 pos 1.0\n"
                        "node 2 boundary vol=0.5 pos 2.0\n"
                        "edge 0 1 w=1.0 len=1.0\n"
                        "edge 1 2 w=1.0 len=1.0\n")},
     "header says nodes=5, file has 3 node lines"),
    ({"mesh": mesh_file(FIVE_NODES + "edge 1 1 w=1.0 len=1.0\n")},
     "self-loop edge at node 1"),
    ({"mesh": mesh_file(FIVE_NODES + "edge 2 1 w=1.0 len=1.0\n")},
     "nodes 1 and 2 are joined by more than one edge"),
    ({"mesh": mesh_file(NINE_NODES.replace("edge 2 3 w=1.0", "edge 2 3 w=inf"))},
     "edge_weights must be finite and positive"),
    ({"mesh": mesh_file(NINE_NODES.replace("2 3 w=1.0 len=1.0", "2 3 w=1.0 len=inf"))},
     "edge_lengths must be finite and positive"),
    ({"mesh": mesh_file(NINE_NODES.replace("node 0 boundary vol=1.0",
                                           "node 0 boundary vol=nan"))},
     "node_volumes must be finite and positive"),
    ({"mesh": mesh_file(NINE_NODES.replace("node 2 interior vol=1.0",
                                           "node 2 interior vol=nan"))},
     "node_volumes must be finite and positive"),
    ({"mesh": mesh_file(NINE_NODES.replace("pos 2.0", "pos nan"))},
     "positions must be finite"),
    ({"eta": [[1.0, -0.5]]}, "eta must be a flat list of 2 boundary values"),
    ({"cut": {"axis": 0.7, "value": 4.0}}, "cut axis must be an integer, got 0.7"),
    ({"cut": {"axis": True, "value": 4.0}}, "cut axis must be an integer, got True"),
    ({"cut": {"axis": 0, "value": "4"}}, "cut value must be a finite number"),
    ({"mesh": {"type": "interval", "n_interior": 7.0, "spacing": 1.0}},
     "mesh n_interior must be an integer, got 7.0"),
    ({"mesh": {"type": "grid", "nx": 5, "ny": "5", "spacing": 1.0}},
     "mesh ny must be an integer, got '5'"),
    ({"mesh": {"type": "interval", "n_interior": 7, "spacing": False}},
     "mesh spacing must be a finite number"),
    ({"operator": {"mass_squared": "0.1"}}, "mass_squared must be a finite number"),
    ({"lambdas": [True, 2.5]}, "lambdas entry must be a finite number, got True"),
    ({"lambdas": 2.5}, "lambdas must be a list of numbers"),
    ({"max_order": "1.5"}, "max_order must be a finite number, got '1.5'"),
    ({"eta": {"0": True}}, "eta value must be a finite number, got True"),
    ({"eta": [True, False]}, "eta value must be a finite number, got True"),
    ({"eta": {"0": "-0.5"}}, "eta value must be a finite number, got '-0.5'"),
    ({"suites": "green-identities"}, "suites must be a list of suite names"),
    ({"name": None}, "name must be a string, got None"),
    ({"name": 5}, "name must be a string, got 5"),
    ({"kernel": {"shape": ["bump"]}}, "kernel shape must be a string, got ['bump']"),
    ({"kernel": ["bump"]}, "kernel must be a JSON object, got ['bump']"),
    ({"operator": None}, "operator must be a JSON object, got None"),
    ({"mesh": None}, "mesh must be a JSON object, got None"),
    ({"cut": [0, 4.0]}, "cut must be a JSON object, got [0, 4.0]"),
    ({"interaction": [0.3]}, "interaction must be a JSON object, got [0.3]"),
    # lambda_1 is 1/3, and no side node is 1/0.4 from its side's boundary
    ({"mesh": {"type": "interval", "n_interior": 5, "spacing": 1.0},
      "cut": {"axis": 0, "value": 3.0}, "lambdas": [0.4], "eta": None},
     "empty vertex region at lam 0.4"),
    ({"suits": ["green-identities"]}, "unknown config keys: ['suits']"),
    ({"etaa": {"0": 1.0}}, "unknown config keys: ['etaa']"),
    ({"kernel": {"shap": "bump"}}, "unknown kernel keys: ['shap']"),
    ({"mesh": {"type": "interval", "n_interior": 7, "spacing": 1.0, "nx": 9}},
     "unknown interval mesh keys: ['nx']"),
    ({"mesh": {"type": "grid", "nx": 5, "ny": 5, "spacing": 1.0, "n_interior": 7},
      "cut": {"axis": 0, "value": 2.0}, "lambdas": [1.5, 2.5], "eta": None},
     "unknown grid mesh keys: ['n_interior']"),
    ({"mesh": lambda tmp_path: {**mesh_file(NINE_NODES)(tmp_path), "spacing": 1.0}},
     "unknown file mesh keys: ['spacing']"),
    ({"cut": {"axis": 0, "value": 4.0, "side": "left"}}, "unknown cut keys: ['side']"),
    ({"operator": {"mass": 0.1}}, "unknown operator keys: ['mass']"),
    ({"interaction": {"3": 0.3, "03": 0.5}},
     "interaction powers ['03'] are not canonical decimals"),
    ({"interaction": {"3": {"4": 0.1, "04": 0.2}}}, "names '04', not a node id"),
    ({"eta": {"8": -0.5, "08": 1.0}}, "eta names '08', not a boundary node id"),
    ({"lambdas": [1.0, 1.0]}, "lambdas repeat a scale: [1.0, 1.0]"),
    ({"mesh": mesh_file("")}, "mesh.txt: bad header ''"),
    ({"mesh": mesh_file(NINE_NODES.replace("mesh dim=1 spacing=1.0 nodes=9",
                                           "grid nodes=9"))},
     "mesh.txt: bad header 'grid nodes=9'"),
    ({"mesh": mesh_file(NINE_NODES.replace("nodes=9", "nodes=9 dim"))},
     "mesh.txt: bad header 'mesh dim=1 spacing=1.0 nodes=9 dim'"),
    ({"mesh": mesh_file(NINE_NODES.replace("nodes=9", "nodes=9=9"))},
     "mesh.txt: bad header 'mesh dim=1 spacing=1.0 nodes=9=9'"),
    ({"mesh": mesh_file(NINE_NODES.replace(" nodes=9", ""))},
     "mesh.txt: bad header 'mesh dim=1 spacing=1.0': nodes= must be an integer"),
    ({"mesh": mesh_file(NINE_NODES.replace("nodes=9", "nodes=9.0"))},
     "mesh.txt: bad header 'mesh dim=1 spacing=1.0 nodes=9.0': nodes= must be"),
    ({"suites": []}, "suites must be nonempty"),
    ({"mesh": mesh_file(NINE_NODES.replace("node 8 boundary", "node 8 boundry"))},
     "mesh.txt: role 'boundry' is not boundary or interior in line "
     "'node 8 boundry vol=1.0 pos 8.0'"),
    ({"mesh": mesh_file(NINE_NODES.replace("node 3 interior vol=1.0",
                                           "node 3 interior vol=abc"))},
     "mesh.txt: 'abc' is not a number in line 'node 3 interior vol=abc pos 3.0'"),
    ({"mesh": mesh_file(NINE_NODES.replace("edge 2 3 w=1.0", "edge 2 3 w=abc"))},
     "mesh.txt: 'abc' is not a number in line 'edge 2 3 w=abc len=1.0'"),
    ({"mesh": mesh_file(NINE_NODES.replace("node 3 interior", "node x interior"))},
     "mesh.txt: 'x' is not an integer in line 'node x interior vol=1.0 pos 3.0'"),
    ({"mesh": mesh_file(NINE_NODES.replace("pos 3.0", "pos 3.0 0.0"))},
     "mesh.txt: line 'node 3 interior vol=1.0 pos 3.0 0.0' has 2 coordinates, "
     "the first node line has 1"),
    ({"mesh": mesh_file(NINE_NODES.replace("node 3 interior vol=1.0 pos",
                                           "node 3 interior vol=1.0"))},
     "mesh.txt: no pos in line 'node 3 interior vol=1.0 3.0'"),
    ({"mesh": mesh_file(re.sub(r"pos \S+", "pos", NINE_NODES))},
     "mesh.txt: no coordinates after pos in line 'node 0 boundary vol=1.0 pos'"),
    ({"mesh": mesh_file(NINE_NODES.replace("edge 2 3 w=1.0 len=1.0", "edge 2 3 w=1.0"))},
     "mesh.txt: want w= len= once each and nothing else in line 'edge 2 3 w=1.0'"),
    ({"mesh": mesh_file(NINE_NODES.replace("edge 2 3 w=1.0", "edge 2 3 w=1.0 w=1.0"))},
     "mesh.txt: want w= len= once each and nothing else in line "
     "'edge 2 3 w=1.0 w=1.0 len=1.0'"),
    ({"mesh": mesh_file(NINE_NODES.replace("node 3 interior vol=1.0",
                                           "node 3 interior vol=1.0 mass=2.0"))},
     "mesh.txt: want vol= once each and nothing else in line "
     "'node 3 interior vol=1.0 mass=2.0 pos 3.0'"),
    ({"mesh": mesh_file(NINE_NODES.replace("node 3 interior vol=1.0", "node 3 interior"))},
     "mesh.txt: want vol= once each and nothing else in line 'node 3 interior pos 3.0'"),
    ({"mesh": {"type": "grid", "nx": 5, "ny": 5, "spacing": 1e200}},
     "spacing 1e+200 overflows edge weights or volumes"),
    ({"mesh": {"type": "grid", "nx": 5, "ny": 5, "spacing": 1e300}},
     "spacing 1e+300 overflows edge weights or volumes"),
    ({"mesh": {"type": "interval", "n_interior": 7, "spacing": 1e-310}},
     "spacing 1e-310 overflows edge weights or volumes"),
    ({"mesh": mesh_file(NINE_NODES.replace("edge 3 4 w=1.0", "edge 3 4 w=1e300"))},
     "interior operator is too ill-conditioned for float64: "
     "condition number at least 1e+300\n"),
    # 201 interior nodes: G comes from the block recursion, not one leaf
    ({"mesh": mesh_file(unit_path(203).replace("edge 100 101 w=1.0",
                                               "edge 100 101 w=1e300"))},
     "interior operator is too ill-conditioned for float64: "
     "condition number at least 2.52475e+301\n"),
], ids=["lambda-below-cut-scale", "negative-spectrum", "lambda-not-a-number",
        "leg-cap-exceeded", "coupling-list-length", "coupling-not-a-number",
        "coupling-nan", "coupling-null", "coupling-node-not-an-id",
        "coupling-node-out-of-range", "eta-nan", "name-leaves-out-dir",
        "name-empty", "name-dot", "name-dot-dot", "mesh-file-missing",
        "mesh-line-truncated", "mesh-edge-to-missing-node",
        "mesh-node-id-duplicate", "mesh-node-id-out-of-range",
        "mesh-header-node-count", "mesh-self-loop", "mesh-edge-repeated",
        "mesh-weight-inf", "mesh-length-inf", "mesh-boundary-volume-nan",
        "mesh-interior-volume-nan", "mesh-position-nan",
        "eta-nested", "cut-axis-float",
        "cut-axis-bool", "cut-value-string", "mesh-size-float",
        "mesh-size-string", "mesh-spacing-bool", "mass-string",
        "lambda-bool", "lambdas-not-a-list", "max-order-string",
        "eta-value-bool", "eta-list-bool", "eta-value-string",
        "suites-not-a-list", "name-null", "name-number", "kernel-shape-list",
        "kernel-list", "operator-null", "mesh-null", "cut-list",
        "interaction-list", "empty-vertex-region", "key-unknown-top-level",
        "key-unknown-eta", "key-unknown-kernel", "key-unknown-interval-mesh",
        "key-unknown-grid-mesh", "key-unknown-file-mesh", "key-unknown-cut",
        "key-unknown-operator", "power-key-not-canonical",
        "coupling-node-key-not-canonical", "eta-node-key-not-canonical",
        "lambda-repeated", "mesh-header-empty", "mesh-header-not-mesh",
        "mesh-header-token-without-value", "mesh-header-token-two-values",
        "mesh-header-nodes-missing", "mesh-header-nodes-not-integer",
        "suites-empty", "mesh-role-misspelt", "mesh-volume-not-a-number",
        "mesh-weight-not-a-number", "mesh-node-id-not-an-integer",
        "mesh-coordinate-counts-mixed", "mesh-node-pos-missing",
        "mesh-node-pos-empty",
        "mesh-edge-key-missing", "mesh-edge-key-repeated", "mesh-node-key-unknown",
        "mesh-node-key-missing", "grid-volume-overflow-1e200",
        "grid-volume-overflow-1e300", "interval-weight-overflow-1e-310",
        "operator-ill-conditioned", "operator-ill-conditioned-above-leaf"])
def test_bad_config_exits_two(tmp_path, capsys, changes, message):
    changes = {k: v(tmp_path) if callable(v) else v for k, v in changes.items()}
    bad = path9_with(tmp_path, **changes)
    assert cli.main(["run", bad, "--out-dir", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("config error:") == 1
    assert not (tmp_path / "r").exists()


def test_singular_operator_exits_two(tmp_path, capsys):
    """path9's nodes with edge 0-8 in place of 0-1 and no edge 7-8: the
    interior nodes 1..7 form a path touching no boundary node, so the interior
    operator is singular.  Its computed smallest eigenvalue is a rounding
    residue whose sign depends on the LAPACK build; either way the run exits
    2 with one config error, and a positive value is not called non-positive."""
    singular = NINE_NODES.replace("edge 0 1 w=1.0", "edge 0 8 w=1.0").replace(
        "edge 7 8 w=1.0 len=1.0\n", "")
    bad = path9_with(tmp_path, mesh=mesh_file(singular)(tmp_path))
    assert cli.main(["run", bad, "--out-dir", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error:") == 1 and err.count("\n") == 1
    found = re.search(r"(non-positive spectrum in interior operator|interior operator "
                      r"is not positive definite to rounding): smallest eigenvalue "
                      r"(\S+)\n", err)
    assert found, err
    assert (float(found[2]) <= 0.0) == found[1].startswith("non-positive")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("args, message", [
    (["--seed", "-1"], "--seed must be nonnegative"),
    (["--out-dir", "{file}/x"], "cannot create --out-dir"),
], ids=["negative-seed", "out-dir-under-a-file"])
def test_bad_argument_exits_two(tmp_path, capsys, args, message):
    """Checked before any suite runs, so nothing is written."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = [a.format(file=blocker) for a in args]
    code = cli.main(["run", CONFIG, "--suite", "quadratic-decomposition",
                     "--out-dir", str(tmp_path / "r"), *args])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and err.count("config error:") == 1
    assert sorted(os.listdir(tmp_path)) == ["file"]


# What a mutation puts in place of a value or multiplies a number by.
MUTANT_NUMBERS = (0, 1, -1, 1e300, -1e300, 1e-300, -1e-300, math.nan, math.inf, -math.inf)
MUTANT_VALUES = (None, True, "x", [], {}, [1.0], {"0": 1.0})


def _entries(value, path=()):
    """Every (path, value) below a JSON value, depth first."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield path + (key,), child
        yield from _entries(child, path + (key,))


def mutate(raw: dict, rng: random.Random):
    """A copy of the config with one entry deleted, replaced by a value of
    another type, or, if a number, set to or scaled by one of MUTANT_NUMBERS;
    and a line saying which."""
    raw = copy.deepcopy(raw)
    path, value = rng.choice(list(_entries(raw)))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    kind = rng.choice(("delete", "swap", "set", "scale") if number else ("delete", "swap"))
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "swap":
        parent[path[-1]] = rng.choice(MUTANT_VALUES)
    elif kind == "set":
        parent[path[-1]] = rng.choice(MUTANT_NUMBERS)
    else:
        parent[path[-1]] *= rng.choice(MUTANT_NUMBERS)
    return raw, f"{kind} {'/'.join(map(str, path))}"


@pytest.mark.parametrize("config, seed", [(CONFIG, 1), (GRID_CONFIG, 2)],
                         ids=["path9_cubic", "grid5_quartic"])
def test_mutated_configs_keep_the_exit_code_contract(tmp_path, capsys, config, seed):
    """Seeded mutations of a committed config, each run with one random suite:
    main returns 0, 1 or 2 and raises nothing, an exit 1 names a failed check
    and an exit 2 prints one config error."""
    with open(config, encoding="utf-8") as fh:
        raw = json.load(fh)
    rng = random.Random(seed)
    for k in range(100):
        mutant, what = mutate(raw, rng)
        path = tmp_path / f"mutant{k}.json"
        path.write_text(json.dumps(mutant))
        code = cli.main(["run", str(path), "--out-dir", str(tmp_path / f"r{k}"),
                         "--suite", rng.choice(sorted(suites.SUITES))])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), what
        assert (code == 1) == ("  failed: " in err), (what, err)
        assert (code == 2) == (err.count("config error:") == 1), (what, err)


def test_coupling_by_node_reaches_the_vertices(tmp_path, capsys):
    """Node ids arrive as JSON strings; the coupling must see them as nodes,
    and the quartic shift of the renormalization suite must accept them."""
    from cutglue.config import load_config
    path = path9_with(tmp_path, interaction={"3": 0.3, "4": {"4": 0.5}})
    cfg = load_config(path, suites.SUITES)
    for scale in cfg.scales:
        np.testing.assert_array_equal(scale.interaction.coupling_at(4, np.arange(9)),
                                      [0.0] * 4 + [0.5] + [0.0] * 4)
    code = cli.main(["run", path, "--out-dir", str(tmp_path / "r"),
                     "--suite", "renormalization"])
    assert code == 0


def test_coupling_list_and_node_map_write_the_same_reports(tmp_path, capsys):
    """{node id: value} is the per-node list with zeros elsewhere: every report,
    renormalization included, is byte-identical."""
    written = []
    for k, cubic in enumerate(([0.0, 0.0, 0.3, 0.0, 0.5, 0.0, 0.0, -0.2, 0.0],
                               {"2": 0.3, "4": 0.5, "7": -0.2})):
        out = tmp_path / f"r{k}"
        path = path9_with(tmp_path, interaction={"3": cubic, "4": 0.2})
        assert cli.main(["run", path, "--out-dir", str(out)]) == 0
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert any(name.endswith("-renormalization.csv") for name in written[0])
    assert written[0] == written[1]


def test_eta_list_and_node_map_write_the_same_reports(tmp_path, capsys):
    """eta as one value per boundary node, in mesh.boundary order, and as
    {boundary node id: value} is one node field: on the grid-deep benchmark
    workload's seed-1 config (`bench/workloads.py`) every report is
    byte-identical."""
    from cutglue.meshes import build_grid_mesh
    rng = random.Random(1)
    values = [rng.uniform(-1.0, 1.0) for _ in range(40)]
    boundary = build_grid_mesh(11, 11, 1.0).boundary.tolist()
    grid11 = {
        "name": "grid11",
        "mesh": {"type": "grid", "nx": 11, "ny": 11, "spacing": 1.0},
        "cut": {"axis": 0, "value": 5.0},
        "operator": {"mass_squared": 0.1},
        "interaction": {"3": 0.2, "4": 0.1},
        "kernel": {"shape": "bump"},
        "lambdas": [1.5, 2.5],
        "max_order": 1.5,
        "suites": ["gluing-theorem", "lambda-sweep"],
    }
    written = []
    for k, eta in enumerate((values, {str(n): v for n, v in zip(boundary, values)})):
        path, out = tmp_path / f"grid11-{k}.json", tmp_path / f"r{k}"
        path.write_text(json.dumps({**grid11, "eta": eta}))
        assert cli.main(["run", str(path), "--out-dir", str(out)]) == 0
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert "grid11-gluing-theorem.csv" in written[0] and written[0] == written[1]


def test_unknown_suite_exits_two(tmp_path, capsys):
    code = cli.main(["run", CONFIG, "--out-dir", str(tmp_path),
                     "--suite", "nonexistent"])
    assert code == 2
    assert "unknown suites" in capsys.readouterr().err


def test_suite_override_is_settled_at_load(tmp_path):
    """An override is refused with the config's own message, after every
    entry of the config, and keeps each suite once, in the order first named."""
    from cutglue.config import ConfigError, load_config
    listed = path9_with(tmp_path, suites=["nope", "lambda-sweep", "nope"])
    with pytest.raises(ConfigError) as own:
        load_config(listed, suites.SUITES)
    with pytest.raises(ConfigError) as override:
        load_config(CONFIG, suites.SUITES, suites=["nope", "lambda-sweep", "nope"])
    assert str(override.value) == str(own.value) == "unknown suites: ['nope', 'nope']"
    with pytest.raises(ConfigError, match="name 'a/b' must be a plain file name"):
        load_config(path9_with(tmp_path, name="a/b"), suites.SUITES, suites=["nope"])
    cfg = load_config(CONFIG, suites.SUITES,
                      suites=["lambda-sweep", "green-identities", "lambda-sweep"])
    assert cfg.suites == ("lambda-sweep", "green-identities")
    assert list(suites.run_suites(cfg, 0)) == list(cfg.suites)


def test_suite_listed_twice_runs_once(tmp_path, capsys):
    from cutglue.config import load_config
    path = path9_with(tmp_path, suites=["lambda-sweep", "green-identities",
                                        "lambda-sweep"])
    assert load_config(path, suites.SUITES).suites == ("lambda-sweep", "green-identities")
    assert cli.main(["run", path, "--out-dir", str(tmp_path / "r")]) == 0
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "lambda-sweep", "green-identities"]


def test_report_that_cannot_be_written_exits_two(tmp_path, capsys):
    """A directory where a report file goes is found only after the suites
    ran: one config error line, not a traceback."""
    out = tmp_path / "r"
    (out / "path9_cubic-green-identities.csv").mkdir(parents=True)
    code = cli.main(["run", CONFIG, "--suite", "green-identities",
                     "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("config error: cannot write reports: ")
    assert captured.err.count("\n") == 1 and "Is a directory" in captured.err


def test_bad_max_order_exits_two(tmp_path, capsys):
    code = cli.main(["run", CONFIG, "--out-dir", str(tmp_path),
                     "--max-order", "0.3", "--suite", "green-identities"])
    assert code == 2
    assert "half-integer" in capsys.readouterr().err


def test_max_order_override_checks_leg_cap(tmp_path, capsys):
    code = cli.main(["run", CONFIG, "--out-dir", str(tmp_path / "r"),
                     "--max-order", "3.0", "--suite", "green-identities"])
    assert code == 2
    assert "above the cap" in capsys.readouterr().err


def run_cutglue(*args, stdin=""):
    """`python -m cutglue` in a fresh process, stdin fed from a pipe."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cutglue.__file__)))
    return subprocess.run([sys.executable, "-m", "cutglue", *args],
                          env=dict(os.environ, PYTHONPATH=src), input=stdin,
                          capture_output=True, text=True, timeout=60)


def test_huge_max_order_exits_two_at_once(tmp_path):
    """The leg cap rejects before any vertex multiset is enumerated."""
    proc = run_cutglue("run", CONFIG, "--out-dir", str(tmp_path / "r"),
                       "--max-order", "1e7")
    assert proc.returncode == 2, proc.stderr
    assert "above the cap of 12" in proc.stderr
    assert proc.stderr.count("config error:") == 1


@pytest.mark.parametrize("path", [0, True], ids=["zero", "true"])
def test_mesh_path_must_be_a_string(tmp_path, path):
    """open() would take a number as a file descriptor: 0 reads the mesh
    piped to stdin, True opens stdout.  A fresh process keeps this one's
    descriptors out of reach."""
    from cutglue.meshes import build_interval_mesh
    config = path9_with(tmp_path, mesh={"type": "file", "path": path})
    proc = run_cutglue("run", config, "--out-dir", str(tmp_path / "r"),
                       stdin=build_interval_mesh(7, 1.0).to_text())
    assert proc.returncode == 2, proc.stderr
    assert f"mesh path must be a string, got {path!r}" in proc.stderr
    assert proc.stderr.count("config error:") == 1 and proc.stdout == ""
    assert not (tmp_path / "r").exists()


def count_calls(monkeypatch, names) -> dict:
    """Count calls of the named cutglue functions through every module alias,
    as taken by `from .x import y`; the returned dict fills as they run."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("cutglue."):
            for name in calls:
                if name in vars(module):
                    monkeypatch.setattr(module, name,
                                        counted(name, vars(module)[name]))
    return calls


def test_suites_build_green_data_once(tmp_path, monkeypatch, capsys):
    """One gluing context per run and one kernel per lam, however many
    checks and widening steps read them."""
    calls = count_calls(monkeypatch,
                        ("green_bundle", "side_bundle", "build_mesh_kernel"))
    code = cli.main(["run", CONFIG, "--out-dir", str(tmp_path),
                     "--suite", "gluing-theorem"])
    assert code == 0
    data = json.loads((tmp_path / "path9_cubic-gluing-theorem.json").read_text())
    assert any(c["check"].startswith("widened-step-") for c in data["checks"])
    with open(CONFIG, encoding="utf-8") as fh:
        n_lambdas = len(json.load(fh)["lambdas"])
    assert n_lambdas >= 2
    assert calls == {"green_bundle": 1, "side_bundle": 2,
                     "build_mesh_kernel": n_lambdas}


def test_run_builds_green_data_once(tmp_path, monkeypatch, capsys):
    """Every suite that reads Green data shares one gluing context per run.
    kernel-properties, which builds its own left side bundle, is left out."""
    calls = count_calls(monkeypatch,
                        ("GluingContext", "green_bundle", "side_bundle"))
    selected = [s for s in suites.SUITES if s != "kernel-properties"]
    code = cli.main(["run", CONFIG, "--out-dir", str(tmp_path),
                     *(a for s in selected for a in ("--suite", s))])
    assert code == 0
    assert calls == {"GluingContext": 1, "green_bundle": 1, "side_bundle": 2}


@pytest.mark.parametrize("config", [CONFIG, GRID_CONFIG, INTERVAL_CHANGES],
                         ids=["path9_cubic", "grid5_quartic", "interval41"])
def test_suite_alone_writes_the_same_report(tmp_path, capsys, config):
    """A suite must leave nothing in the shared context or the shared scale
    data that changes the suites after it: alone, each writes the bytes it
    writes among all."""
    if isinstance(config, dict):
        config = path9_with(tmp_path, **config)
        from cutglue.config import load_config
        from cutglue.kernels import build_mesh_kernel
        cfg = load_config(config, suites.SUITES)
        assert not any(build_mesh_kernel(cfg.context.mesh, s.lam, s.shape).is_identity
                       for s in cfg.scales)
    together = tmp_path / "together"
    names = sorted(suites.SUITES)
    assert cli.main(["run", config, "--out-dir", str(together),
                     *(a for s in names for a in ("--suite", s))]) == 0
    for name in names:
        alone = tmp_path / name
        assert cli.main(["run", config, "--out-dir", str(alone),
                         "--suite", name]) == 0
        written = sorted(alone.glob(f"*-{name}.*"))
        assert [p.suffix for p in written] == [".csv", ".json"]
        for path in written:
            assert path.read_bytes() == (together / path.name).read_bytes(), path.name


def test_run_builds_each_scale_once(tmp_path, monkeypatch, capsys):
    """Every suite that reads a scale shares its data: one kernel, one
    averaged propagator H G H' and one glued covariance per scale, four
    products by the glued Green's matrix per scale (the glued covariance
    and deformed-gluing's three blocks), and one interface map, one
    interior eigendecomposition and one Cholesky factor of the whole
    interior operator per run, the one that loading the config makes.
    kernel-properties, which builds its own kernels, is left out; the
    saturation oracle of lambda-sweep averages nothing."""
    calls = count_calls(monkeypatch, ("build_mesh_kernel", "regularized_green",
                                      "glued_gaussian", "glued_product",
                                      "interface_map", "GluingContext"))
    eighs, whole_factors = [], []
    eigh, cholesky = np.linalg.eigh, np.linalg.cholesky
    with open(CONFIG, encoding="utf-8") as fh:
        raw = json.load(fh)
    n_interior, n_lambdas = raw["mesh"]["n_interior"], len(raw["lambdas"])

    def counted_eigh(*args, **kwargs):
        eighs.append(1)
        return eigh(*args, **kwargs)

    def counted_cholesky(m, *args, **kwargs):
        if m.shape == (n_interior, n_interior):
            whole_factors.append(1)
        return cholesky(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    selected = [s for s in suites.SUITES if s != "kernel-properties"]
    assert cli.main(["run", CONFIG, "--out-dir", str(tmp_path),
                     *(a for s in selected for a in ("--suite", s))]) == 0
    assert calls == {"build_mesh_kernel": n_lambdas,
                     "regularized_green": n_lambdas,
                     "glued_gaussian": n_lambdas, "glued_product": 4 * n_lambdas,
                     "interface_map": 1, "GluingContext": 1}
    assert len(eighs) == 1 and len(whole_factors) == 1


def test_run_reads_lambda_one_once(tmp_path, monkeypatch, capsys):
    """lambda_1 is a field of the cut's context: one read admits every scale."""
    calls = count_calls(monkeypatch, ("lambda_one",))
    assert cli.main(["run", CONFIG, "--out-dir", str(tmp_path)]) == 0
    assert calls == {"lambda_one": 1}


def test_scale_in_the_slack_band_passes(tmp_path, capsys):
    """At lam just above 1/(shortest edge), inside the slack of the ball rule,
    the ball still holds the neighbours at distance 1: the kernel averages, so
    kernel-properties predicts no saturation, and the run passes, warning-free."""
    changed = path9_with(tmp_path, lambdas=[1.0000000001])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", changed, "--out-dir", str(tmp_path / "r"),
                         "--suite", "kernel-properties"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), err
    assert "kernel-properties: pass" in out
    report = json.loads((tmp_path / "r" / "path9_cubic-kernel-properties.json").read_text())
    names = [c["check"] for c in report["checks"]]
    assert len(names) == 3 and not any(n.startswith("saturation-identity-") for n in names)


@pytest.mark.parametrize("suite, reads_glued", [("regularization", False),
                                               ("deformed-gluing", False),
                                               ("gluing-theorem", True)])
def test_scale_suite_alone_builds_only_what_it_reads(tmp_path, monkeypatch, capsys,
                                                     suite, reads_glued):
    """A scale's data is built field by field on first read: run alone, a
    suite that reads no glued Gaussian builds none."""
    calls = count_calls(monkeypatch, ("glued_gaussian",))
    assert cli.main(["run", CONFIG, "--out-dir", str(tmp_path), "--suite", suite]) == 0
    with open(CONFIG, encoding="utf-8") as fh:
        n_lambdas = len(json.load(fh)["lambdas"])
    assert calls == {"glued_gaussian": n_lambdas if reads_glued else 0}


@pytest.mark.parametrize("suite, unread", [
    ("quadratic-decomposition", ("side_bundle",)),
    ("regularization", ("side_bundle", "restrict_kernel_to_submesh",
                        "deformed_side_nodes")),
])
def test_suite_alone_builds_no_side_data(tmp_path, monkeypatch, capsys, suite, unread):
    """The run's side Green data, like a scale's data, is built field by
    field on first read: run alone, a suite that reads no side data builds
    none.  Loading the config builds the whole bundle alone, and reads the
    two deep sets per scale that refuse an empty vertex region."""
    calls = count_calls(monkeypatch, unread)
    assert cli.main(["run", CONFIG, "--out-dir", str(tmp_path), "--suite", suite]) == 0
    with open(CONFIG, encoding="utf-8") as fh:
        at_load = {"deformed_side_nodes": 2 * len(json.load(fh)["lambdas"])}
    assert calls == {name: at_load.get(name, 0) for name in unread}


@pytest.mark.parametrize("suite, per_scale", [("gluing-theorem", 0),
                                             ("lambda-sweep", 0),
                                             ("deformed-gluing", 2)])
def test_only_deformed_gluing_restricts_kernels(tmp_path, monkeypatch, capsys,
                                                suite, per_scale):
    """The glued route averages with the scale's kernel itself; deformed-gluing
    alone restricts it, once to each side per scale, to check that the rows
    of the deep nodes come through unchanged."""
    calls = count_calls(monkeypatch, ("restrict_kernel_to_submesh",))
    assert cli.main(["run", CONFIG, "--out-dir", str(tmp_path), "--suite", suite]) == 0
    with open(CONFIG, encoding="utf-8") as fh:
        n_lambdas = len(json.load(fh)["lambdas"])
    assert calls == {"restrict_kernel_to_submesh": per_scale * n_lambdas}


def test_lambda_sweep_reads_the_base_series(tmp_path, monkeypatch, capsys):
    """Beside gluing-theorem, lambda-sweep runs no engine pass of its own
    but the unaveraged oracle of each saturated scale."""
    from cutglue.perturbation import NodeGaussian
    passes = []
    series = NodeGaussian.series

    def counted(self, *args, **kwargs):
        passes.append(1)
        return series(self, *args, **kwargs)

    monkeypatch.setattr(NodeGaussian, "series", counted)
    counts = []
    for selected in (["gluing-theorem"], ["gluing-theorem", "lambda-sweep"]):
        passes.clear()
        out = tmp_path / str(len(selected))
        assert cli.main(["run", CONFIG, "--out-dir", str(out),
                         *(a for s in selected for a in ("--suite", s))]) == 0
        counts.append(len(passes))
    sweep = json.loads((out / "path9_cubic-lambda-sweep.json").read_text())
    saturated = sum(c["check"].endswith("-saturation-bitwise")
                    for c in sweep["checks"])
    assert saturated == 1
    assert counts[1] - counts[0] == saturated


def test_one_scale_alive_at_a_time(tmp_path, monkeypatch, capsys):
    """The run's copy of a scale is freed, by reference counting alone,
    before the copy of the next scale is made, and the last before reports
    are written."""
    built = []
    build = suites.copy

    def tracked(scale):
        assert all(ref() is None for ref in built), "an earlier scale is alive"
        data = build(scale)
        built.append(weakref.ref(data))
        return data

    monkeypatch.setattr(suites, "copy", tracked)
    gc.disable()
    try:
        assert cli.main(["run", CONFIG, "--out-dir", str(tmp_path)]) == 0
        assert len(built) == 3 and all(ref() is None for ref in built)
    finally:
        gc.enable()


def test_per_scale_runners_read_only_scale_data(tmp_path, capsys):
    """The per-scale runners are library functions of one scale's data,
    built here from path9 without a config: their parts, joined over the
    scales, are the bytes `cutglue run` writes."""
    from cutglue.gluing import GluingContext, ScaleData
    from cutglue.meshes import build_interval_mesh, cut_along_interface
    from cutglue.operators import OperatorSpec
    from cutglue.perturbation import InteractionSpec
    mesh = build_interval_mesh(7, 1.0)
    ctx = GluingContext(mesh, OperatorSpec(0.0),
                        cut_along_interface(mesh, lambda n: n == 4))
    every_scale = {"regularization": suites.suite_regularization,
                   "deformed-gluing": suites.suite_deformed_gluing,
                   "gluing-theorem": suites.suite_gluing_theorem,
                   "lambda-sweep": suites.suite_lambda_sweep}
    reports = {}
    for k, lam in enumerate((0.5, 1.0, 2.5)):
        data = ScaleData(
            context=ctx, interaction=InteractionSpec({3: 0.3, 4: 0.2}),
            lam=lam, shape="uniform", eta=np.array([1.0] + [0.0] * 7 + [-0.5]),
            max_order=1.5)
        runners = dict(every_scale)
        if k == 0:
            runners["renormalization"] = suites.suite_renormalization
        for name, runner in runners.items():
            part = runner(data)
            reports.setdefault(name, Report(part.name)).extend(part.checks)
    assert cli.main(["run", CONFIG, "--out-dir", str(tmp_path),
                     *(a for s in reports for a in ("--suite", s))]) == 0
    for name, report in reports.items():
        base = tmp_path / f"path9_cubic-{name}"
        assert report.to_csv().encode() == base.with_suffix(".csv").read_bytes()
        assert report.to_json().encode() == base.with_suffix(".json").read_bytes()


def test_context_arrays_are_read_only():
    """So are the deep sets read at load, which every run copy of a scale
    shares, the mesh's distances, each scale's eta, kernel, restricted
    kernel, trimmed set and Gaussian data."""
    from cutglue.config import load_config
    from cutglue.kernels import restrict_kernel_to_submesh
    from cutglue.meshes import LEFT
    cfg = load_config(CONFIG, suites.SUITES)
    ctx = cfg.context
    assert cfg.context is ctx
    with pytest.raises(ValueError, match="read-only"):
        ctx.bundle.green[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        cfg.scales[0].region[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        cfg.scales[0].eta[0] = 0.0
    for array in (ctx.bundle.poisson, ctx.bundle.dtn, ctx.g_sigma, ctx.to_sigma,
                  *ctx.eigenpairs, ctx.mesh.distance_matrix(),
                  *(a for sb in ctx.sides.values()
                    for a in (sb.green, sb.poisson, sb.dtn)),
                  *(a for scale in cfg.scales
                    for a in (scale.region, *scale.deep.values(), scale.eta,
                              scale.kernel.matrix, scale.trimmed,
                              restrict_kernel_to_submesh(
                                  scale.kernel, ctx.sides[LEFT].nodes).matrix,
                              scale.glued.mean, scale.glued.cov,
                              scale.whole.mean, scale.whole.cov))):
        assert not array.flags.writeable


def test_run_reads_each_deep_set_once(tmp_path, monkeypatch, capsys):
    """Loading reads both sides' deep sets per scale; the run reads none."""
    calls = count_calls(monkeypatch, ("deformed_side_nodes",))
    assert cli.main(["run", CONFIG, "--out-dir", str(tmp_path)]) == 0
    with open(CONFIG, encoding="utf-8") as fh:
        n_lambdas = len(json.load(fh)["lambdas"])
    assert calls == {"deformed_side_nodes": 2 * n_lambdas}


def test_run_leaves_the_loaded_scales_as_loaded(monkeypatch):
    """The run works on copies that share the loaded deep sets and keep all
    else they build: afterwards each loaded scale holds no other field."""
    from dataclasses import fields

    from cutglue.config import load_config
    cfg = load_config(CONFIG, suites.SUITES)
    copies = []
    build = suites.copy

    def kept(scale):
        copies.append(build(scale))
        return copies[-1]

    monkeypatch.setattr(suites, "copy", kept)
    suites.run_suites(cfg, seed=0)
    assert len(copies) == len(cfg.scales)
    for scale, data in zip(cfg.scales, copies):
        assert set(vars(scale)) == {f.name for f in fields(scale)} | {"deep", "region"}
        assert data.deep is scale.deep and data.region is scale.region
        assert "kernel" in vars(data)


def test_cut_tolerance_follows_the_mesh_extent(tmp_path, capsys):
    """The interface is chosen to rounding of the coordinates along the cut
    axis: grid5 at spacing 1e-13, its cut and scales scaled alike, loads."""
    with open(GRID_CONFIG, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw.update(mesh={"type": "grid", "nx": 5, "ny": 5, "spacing": 1e-13},
               cut={"axis": 0, "value": 2e-13}, lambdas=[1.5e13, 2.5e13])
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "r"),
                     "--suite", "green-identities"]) == 0


def test_numerical_failure_exits_one(tmp_path, monkeypatch, capsys):
    def failing(cfg, seed):
        rep = Report("forced")
        rep.add(Check("forced-failure", residual=1.0, tolerance=1e-10))
        return rep

    patched = dict(suites.SUITES)
    patched["forced-failure"] = ("always fails", failing)
    monkeypatch.setattr(suites, "SUITES", patched)
    monkeypatch.setattr(cli, "SUITES", patched)
    code = cli.main(["run", CONFIG, "--out-dir", str(tmp_path),
                     "--suite", "forced-failure"])
    assert code == 1
    captured = capsys.readouterr()
    assert "forced-failure: FAIL" in captured.out
    assert "failed: forced-failure" in captured.err


def test_pass_line_names_the_worst_check(tmp_path, monkeypatch, capsys):
    def two_checks(cfg, seed):
        rep = Report("two")
        rep.add(Check("small", residual=1e-14, tolerance=1e-10))
        rep.add(Check("worst-one", residual=2e-12, tolerance=1e-10))
        rep.add(Check("tied", residual=2e-12, tolerance=1e-10))
        return rep

    patched = dict(suites.SUITES, two=("two checks", two_checks),
                   empty=("no checks", lambda cfg, seed: Report("empty")))
    monkeypatch.setattr(suites, "SUITES", patched)
    monkeypatch.setattr(cli, "SUITES", patched)
    code = cli.main(["run", CONFIG, "--out-dir", str(tmp_path),
                     "--suite", "two", "--suite", "empty"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["two: pass (max residual 2.000e-12 at worst-one, 3 checks)",
                   "empty: pass (max residual 0.000e+00, 0 checks)"]


def test_nan_residual_is_the_worst_check(tmp_path, monkeypatch, capsys):
    """A NaN residual fails its check and ranks above every number, wherever
    it stands among the checks."""
    def with_nan(cfg, seed):
        rep = Report("nan")
        rep.add(Check("small", residual=1e-14, tolerance=1e-10))
        rep.add(Check("nan-one", residual=float("nan"), tolerance=1e-10))
        rep.add(Check("later", residual=2e-12, tolerance=1e-10))
        return rep

    patched = dict(suites.SUITES, nan=("a NaN check", with_nan))
    monkeypatch.setattr(suites, "SUITES", patched)
    monkeypatch.setattr(cli, "SUITES", patched)
    assert cli.main(["run", CONFIG, "--out-dir", str(tmp_path), "--suite", "nan"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["nan: FAIL (max residual nan at nan-one, 3 checks)"]


@pytest.mark.parametrize("changes", [{"lambdas": [1e308]},
                                     {"eta": {"0": 1e300, "8": -0.5}}],
                         ids=["huge-lambda", "huge-eta"])
def test_overflow_is_a_numerical_failure(tmp_path, capsys, changes):
    """Valid configs whose arithmetic overflows: under the error filter for
    RuntimeWarning, no warning escapes; the NaN residuals fail their checks
    (exit 1, `failed:` lines) and every report file is written."""
    code = cli.main(["run", path9_with(tmp_path, **changes),
                     "--out-dir", str(tmp_path / "r")])
    assert code == 1
    assert "  failed: " in capsys.readouterr().err
    with open(CONFIG, encoding="utf-8") as fh:
        names = json.load(fh)["suites"]
    assert sorted(os.listdir(tmp_path / "r")) == sorted(
        [f"path9_cubic-{n}.{ext}" for n in names for ext in ("csv", "json")]
        + ["path9_cubic-summary.json"])


# Traced peak of a run over the level before it, in n x n float64 arrays.  The
# interval run below reads about 9.5, where gluing-theorem sets it.  A glued
# Green's matrix formed as one n x n array and kept for the run, as it once
# was, takes it to 10.5.
DENSE_ARRAYS_PEAK = 10.0


def test_dense_working_set(tmp_path, capsys):
    """Every n x n array a run allocates is one a check reads: the traced peak
    of an interval run with every mesh suite but renormalization stays below
    DENSE_ARRAYS_PEAK n x n float64 arrays."""
    path = path9_with(tmp_path, **{
        **INTERVAL_CHANGES, "name": "interval201",
        "mesh": {"type": "interval", "n_interior": 201, "spacing": 1.0},
        "cut": {"axis": 0, "value": 101.0},
        "interaction": {"3": 0.3, "4": 0.2}, "lambdas": [0.05, 0.1, 0.2],
        "max_order": 1.0,
        "suites": ["green-identities", "quadratic-decomposition", "kernel-properties",
                   "regularization", "deformed-gluing", "gluing-theorem", "lambda-sweep"]})

    def run():
        assert cli.main(["run", path, "--out-dir", str(tmp_path / "r")]) == 0

    peak = traced_peak(run, 201 + 2)  # interior nodes and the two ends
    assert peak < DENSE_ARRAYS_PEAK, peak


def test_gap_reads_every_entry_and_never_broadcasts():
    """gap is 0.0 over no entries, compares a scalar with every entry, and
    refuses two shapes instead of broadcasting one against the other."""
    assert gap(np.zeros((0, 3)), np.zeros((0, 3))) == 0.0
    assert gap(np.zeros(0), 1.0) == 0.0
    assert gap(np.array([1.0, -2.0]), 1.0) == 3.0
    for got, want in ((np.zeros(3), np.zeros((3, 1))), (np.zeros(3), np.zeros(2)),
                      (0.0, np.zeros(1))):
        with pytest.raises(ValueError, match="cannot compare shapes"):
            gap(got, want)


@pytest.mark.parametrize("where", ["argument", "config"])
def test_repeated_suite_runs_once(tmp_path, capsys, where):
    """A suite named twice, on the command line or in the config, is run,
    written, printed and summarized once."""
    name = "green-identities"
    if where == "argument":
        config, args = CONFIG, ["--suite", name, "--suite", name]
    else:
        config, args = path9_with(tmp_path, suites=[name, name]), []
    assert cli.main(["run", config, "--out-dir", str(tmp_path / "r"), *args]) == 0
    assert capsys.readouterr().out.count(f"{name}: pass") == 1
    report = json.loads((tmp_path / "r" / f"path9_cubic-{name}.json").read_text())
    summary = json.loads((tmp_path / "r" / "path9_cubic-summary.json").read_text())
    assert len(report["checks"]) > 0
    assert len(summary["checks"]) == len(report["checks"])


def test_run_keeps_scipy_off_the_import_path(tmp_path):
    """A full run imports no scipy module: numpy alone serves every layer.

    Nor does it load `numpy.ma` (numpy's set routines import it on first
    call, so region sets are node masks), `fractions` or `decimal` (Wick
    counts are integers), or `numpy.random` (the seeded trials of
    quadratic-decomposition draw from the stdlib `random`), or `logging`
    (nothing in a run logs).  `numpy.polynomial`, for the Gauss-Legendre
    nodes of the flat-space quadrature, is allowed.
    """
    # a package and its submodules, not a sibling such as numpy.matrixlib
    banned = tuple(f"{m}." for m in ("scipy", "numpy.ma", "numpy.random",
                                     "fractions", "decimal", "_decimal", "logging"))
    script = (
        "import sys\n"
        "from cutglue.cli import main\n"
        f"code = main(['run', {CONFIG!r}, '--out-dir', {str(tmp_path)!r}])\n"
        f"print(code, sorted(m for m in sys.modules if (m + '.').startswith({banned!r})))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cutglue.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_reports_byte_identical_across_reruns(tmp_path, capsys):
    args = ["run", CONFIG, "--suite", "green-identities", "--seed", "7"]
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for d in dirs:
        assert cli.main(args + ["--out-dir", d]) == 0
    capsys.readouterr()
    for fname in sorted(os.listdir(dirs[0])):
        a = Path(dirs[0], fname).read_bytes()
        b = Path(dirs[1], fname).read_bytes()
        assert a == b, fname


def test_reports_byte_identical_across_hash_seeds(tmp_path):
    """Set and dict iteration orders must not reach the numbers: two
    processes with different string hashing write the same bytes, the
    seeded quadratic-decomposition trials included."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cutglue.__file__)))
    dirs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "cutglue", "run", CONFIG, "--out-dir", str(out),
             "--seed", "5", "--suite", "quadratic-decomposition",
             "--suite", "gluing-theorem", "--suite", "lambda-sweep",
             "--suite", "renormalization"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        dirs.append(out)
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1])) and len(names) == 9
    for fname in names:
        assert ((dirs[0] / fname).read_bytes()
                == (dirs[1] / fname).read_bytes()), fname


def test_engine_passes_per_lambda_do_not_grow_with_widening(tmp_path, monkeypatch,
                                                           capsys):
    """All widening steps of one scale share one engine pass per Gaussian, so
    every scale costs the same number of passes however far it widens."""
    from cutglue.perturbation import NodeGaussian
    passes = []
    series = NodeGaussian.series

    def counted(self, *args, **kwargs):
        passes[-1] += 1
        return series(self, *args, **kwargs)

    verify = suites.verify_gluing_theorem

    def per_lambda(*args, **kwargs):
        passes.append(0)
        return verify(*args, **kwargs)

    monkeypatch.setattr(NodeGaussian, "series", counted)
    monkeypatch.setattr(suites, "verify_gluing_theorem", per_lambda)
    assert cli.main(["run", CONFIG, "--out-dir", str(tmp_path),
                     "--suite", "gluing-theorem"]) == 0
    checks = json.loads((tmp_path / "path9_cubic-gluing-theorem.json").read_text())
    lambdas = list(dict.fromkeys(c["lam"] for c in checks["checks"]))
    steps = [sum(c["lam"] == lam and c["check"].startswith("widened-step-")
                 for c in checks["checks"]) for lam in lambdas]
    assert len(passes) == len(lambdas) and min(steps) >= 1
    assert len(set(steps)) > 1  # the scales widen by different amounts
    assert len(set(passes)) == 1, dict(zip(lambdas, passes))


def test_renormalization_computes_its_base_once(tmp_path, monkeypatch, capsys):
    """Both coupling redefinitions are compared against one base report:
    one gluing-theorem verification for the base and one per redefinition."""
    from cutglue import gluing
    calls = []
    verify = gluing.verify_gluing_theorem

    def counted(*args, **kwargs):
        calls.append(1)
        return verify(*args, **kwargs)

    monkeypatch.setattr(gluing, "verify_gluing_theorem", counted)
    assert cli.main(["run", CONFIG, "--out-dir", str(tmp_path),
                     "--suite", "renormalization"]) == 0
    assert len(calls) == 3


def test_max_order_override_applies(tmp_path, capsys):
    code = cli.main(["run", CONFIG, "--out-dir", str(tmp_path),
                     "--suite", "gluing-theorem", "--max-order", "0.5"])
    assert code == 0
    data = json.loads((tmp_path / "path9_cubic-gluing-theorem.json").read_text())
    orders = {float(c["order"]) for c in data["checks"] if "order" in c}
    assert orders and max(orders) <= 0.5
