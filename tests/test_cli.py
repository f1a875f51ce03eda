import gc
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

import cutglue
from cutglue import cli, suites
from cutglue.reports import Check, Report

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
    ({"lambdas": [0.1]}, "lam below lambda_1"),
    ({"operator": {"mass_squared": -5}}, "non-positive spectrum"),
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
], ids=["lambda-below-cut-scale", "negative-spectrum", "lambda-not-a-number",
        "leg-cap-exceeded", "coupling-list-length", "coupling-not-a-number",
        "coupling-nan", "coupling-null", "coupling-node-not-an-id",
        "coupling-node-out-of-range", "eta-nan", "name-leaves-out-dir",
        "name-empty", "name-dot", "name-dot-dot", "mesh-file-missing",
        "mesh-line-truncated", "mesh-edge-to-missing-node",
        "mesh-node-id-duplicate", "mesh-node-id-out-of-range",
        "mesh-header-node-count", "mesh-self-loop", "mesh-edge-repeated",
        "eta-nested", "cut-axis-float",
        "cut-axis-bool", "cut-value-string", "mesh-size-float",
        "mesh-size-string", "mesh-spacing-bool", "mass-string",
        "lambda-bool", "lambdas-not-a-list", "max-order-string",
        "eta-value-bool", "eta-list-bool", "eta-value-string",
        "suites-not-a-list"])
def test_bad_config_exits_two(tmp_path, capsys, changes, message):
    changes = {k: v(tmp_path) if callable(v) else v for k, v in changes.items()}
    bad = path9_with(tmp_path, **changes)
    assert cli.main(["run", bad, "--out-dir", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("config error:") == 1
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


def test_coupling_by_node_reaches_the_vertices(tmp_path, capsys):
    """Node ids arrive as JSON strings; the coupling must see them as nodes,
    and the quartic shift of the renormalization suite must accept them."""
    from cutglue.config import load_config
    path = path9_with(tmp_path, interaction={"3": 0.3, "4": {"4": 0.5}})
    cfg = load_config(path, suites.SUITES)
    np.testing.assert_array_equal(cfg.interaction.coupling_at(4, np.arange(9)),
                                  [0.0] * 4 + [0.5] + [0.0] * 4)
    code = cli.main(["run", path, "--out-dir", str(tmp_path / "r"),
                     "--suite", "renormalization"])
    assert code == 0


def test_unknown_suite_exits_two(tmp_path, capsys):
    code = cli.main(["run", CONFIG, "--out-dir", str(tmp_path),
                     "--suite", "nonexistent"])
    assert code == 2
    assert "unknown suites" in capsys.readouterr().err


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
                        ("gluing_context", "green_bundle", "side_bundle"))
    selected = [s for s in suites.SUITES if s != "kernel-properties"]
    code = cli.main(["run", CONFIG, "--out-dir", str(tmp_path),
                     *(a for s in selected for a in ("--suite", s))])
    assert code == 0
    assert calls == {"gluing_context": 1, "green_bundle": 1, "side_bundle": 2}


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
        assert not any(build_mesh_kernel(cfg.mesh, lam, cfg.shape).is_identity
                       for lam in cfg.lambdas)
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
    averaged propagator H G H' and one glued covariance per scale, and one
    glued Green's matrix and one interior eigendecomposition per run.
    kernel-properties, which builds its own kernels, is left out; the
    saturation oracle of lambda-sweep averages with its own identity kernel
    at the one saturated scale (2.5)."""
    calls = count_calls(monkeypatch, ("build_mesh_kernel", "regularized_green",
                                      "glued_gaussian", "glued_green",
                                      "gluing_context"))
    eighs = []
    eigh = np.linalg.eigh

    def counted_eigh(*args, **kwargs):
        eighs.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    selected = [s for s in suites.SUITES if s != "kernel-properties"]
    assert cli.main(["run", CONFIG, "--out-dir", str(tmp_path),
                     *(a for s in selected for a in ("--suite", s))]) == 0
    with open(CONFIG, encoding="utf-8") as fh:
        n_lambdas = len(json.load(fh)["lambdas"])
    assert calls == {"build_mesh_kernel": n_lambdas,
                     "regularized_green": n_lambdas + 1,
                     "glued_gaussian": n_lambdas, "glued_green": 1,
                     "gluing_context": 1}
    assert len(eighs) == 1


def test_lambda_sweep_reads_the_base_series(tmp_path, monkeypatch, capsys):
    """Beside gluing-theorem, lambda-sweep runs no engine pass of its own
    but the identity-kernel oracle of each saturated scale."""
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
    """The data of a scale is freed, by reference counting alone, before
    the data of the next scale is built, and the last before reports are
    written."""
    built = []
    build = suites.scale_data

    def tracked(scenario):
        assert all(ref() is None for ref in built), "an earlier scale is alive"
        data = build(scenario)
        built.append(weakref.ref(data))
        return data

    monkeypatch.setattr(suites, "scale_data", tracked)
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
    from cutglue.gluing import GluingScenario, gluing_context, scale_data
    from cutglue.meshes import build_interval_mesh, cut_along_interface
    from cutglue.operators import OperatorSpec
    from cutglue.perturbation import InteractionSpec
    mesh = build_interval_mesh(7, 1.0)
    ctx = gluing_context(mesh, OperatorSpec(0.0),
                         cut_along_interface(mesh, lambda n: n == 4))
    every_scale = {"regularization": suites.suite_regularization,
                   "deformed-gluing": suites.suite_deformed_gluing,
                   "gluing-theorem": suites.suite_gluing_theorem,
                   "lambda-sweep": suites.suite_lambda_sweep}
    reports = {}
    for k, lam in enumerate((0.5, 1.0, 2.5)):
        data = scale_data(GluingScenario(
            context=ctx, interaction=InteractionSpec({3: 0.3, 4: 0.2}),
            lam=lam, shape="uniform", eta=np.array([1.0, -0.5]), max_order=1.5))
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
    from cutglue.config import load_config
    cfg = load_config(CONFIG, suites.SUITES)
    ctx = cfg.context
    assert cfg.context is ctx
    with pytest.raises(ValueError, match="read-only"):
        ctx.bundle.green[0, 0] = 1.0
    for array in (ctx.bundle.poisson, ctx.bundle.dtn, ctx.g_sigma, ctx.glued,
                  ctx.to_sigma, *ctx.eigenpairs,
                  *(a for sb in ctx.sides.values()
                    for a in (sb.green, sb.poisson, sb.dtn))):
        assert not array.flags.writeable


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
    """A full run imports no scipy module: numpy alone serves every layer."""
    script = (
        "import sys\n"
        "from cutglue.cli import main\n"
        f"code = main(['run', {CONFIG!r}, '--out-dir', {str(tmp_path)!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
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
        a = open(os.path.join(dirs[0], fname), "rb").read()
        b = open(os.path.join(dirs[1], fname), "rb").read()
        assert a == b, fname


def test_reports_byte_identical_across_hash_seeds(tmp_path):
    """Set and dict iteration orders must not reach the numbers: two
    processes with different string hashing write the same bytes."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cutglue.__file__)))
    dirs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "cutglue", "run", CONFIG, "--out-dir", str(out),
             "--suite", "gluing-theorem", "--suite", "lambda-sweep",
             "--suite", "renormalization"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        dirs.append(out)
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1])) and len(names) == 7
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
