"""Declarative scenario configs: JSON in, validated objects out.

A config names a mesh, a cut, an operator, an interaction, a kernel shape,
a scale grid, boundary data, and the suites to run.  All cross-references
are checked here, before any numerics start; no object may hold a key that
nothing reads.  The mesh, operator and cut are held by one
`gluing.GluingContext`; loading builds the whole mesh's Green bundle alone,
which is the spectrum check.  Each lambda becomes one `gluing.ScaleData`,
which owns both admissibility rules; `suites.run_suites` runs on copies.
The suite list is settled here: a list given to `load_config` overrides the
config's, unknown names are refused and repeats dropped, so
`ScenarioConfig.suites` is what runs.  A coupling given as {node id: value}
becomes the list of one value per node, zero at the nodes it does not name,
so the interaction holds a constant or one value per node and nothing else.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .gluing import GluingContext, GluingError, ScaleData
from .kernels import SHAPES
from .meshes import Mesh, MeshError, build_grid_mesh, build_interval_mesh, \
    cut_along_interface
from .operators import OperatorSpec
from .perturbation import LEG_CAP, InteractionSpec, leg_budget


class ConfigError(ValueError):
    pass


REQUIRED_KEYS = {"name", "mesh", "cut", "operator", "interaction", "lambdas", "max_order"}
MESH_KEYS = {"interval": {"type", "n_interior", "spacing"},
             "grid": {"type", "nx", "ny", "spacing"}, "file": {"type", "path"}}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated inputs of one batch run: context holds the mesh, operator
    and cut, scales one `gluing.ScaleData` per lambda, in config order, and
    suites the names of the suites that run, each once."""

    name: str
    context: GluingContext
    scales: tuple
    suites: tuple


def _build_mesh(spec) -> Mesh:
    kind = _object(spec, "mesh").get("type")
    if not (isinstance(kind, str) and kind in MESH_KEYS):
        raise ConfigError(f"unknown mesh type {kind!r}")
    _object(spec, f"{kind} mesh", MESH_KEYS[kind])
    if kind == "interval":
        return build_interval_mesh(_integer(spec["n_interior"], "mesh n_interior"),
                                   _finite(spec["spacing"], "mesh spacing"))
    if kind == "grid":
        return build_grid_mesh(_integer(spec["nx"], "mesh nx"),
                               _integer(spec["ny"], "mesh ny"),
                               _finite(spec["spacing"], "mesh spacing"))
    # open() takes an integer (or a boolean) as a file descriptor
    path = _string(spec["path"], "mesh path")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read mesh file: {exc}") from exc
    try:
        return Mesh.from_text(text)
    except MeshError as exc:
        raise ConfigError(f"mesh file {path}: {exc}") from exc


def _build_cut(mesh: Mesh, spec):
    spec = _object(spec, "cut", {"axis", "value"})
    axis = _integer(spec["axis"], "cut axis")
    value = _finite(spec["value"], "cut value")
    if axis < 0 or axis >= mesh.positions.shape[1]:
        raise ConfigError(f"cut axis {axis} out of range")
    along = mesh.positions[:, axis]
    tol = 1e-12 * float(np.abs(along).max())  # rounding of the axis's extent
    return cut_along_interface(mesh, lambda n: abs(along[n] - value) < tol)


def _object(value, what: str, keys=None) -> dict:
    """A JSON object; with keys, one holding no others (a misspelt key would
    read as absent and fall back to its default)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    unknown = sorted(value.keys() - keys) if keys else []
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    return value


def _canonical(key: str) -> bool:
    """Whether a key writes an integer the one way str() does ("8", not "08",
    "+8" or " 8"), so that no two keys name the same integer."""
    return key.isascii() and key.isdecimal() and str(int(key)) == key


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def _finite(value, what: str) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    """A JSON integer: no float, however round, and no boolean."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _build_coupling(mesh: Mesh, power: str, spec):
    """A constant, a list with one value per node, or {node id: value}."""
    what = f"interaction {power} coupling"
    if isinstance(spec, dict):
        by_node = np.zeros(mesh.n_nodes)
        for node, value in spec.items():
            if not (_canonical(node) and int(node) < mesh.n_nodes):
                raise ConfigError(f"{what} names {node!r}, not a node id "
                                  f"below {mesh.n_nodes}")
            by_node[int(node)] = _finite(value, what)
        return by_node
    if isinstance(spec, list):
        if len(spec) != mesh.n_nodes:
            raise ConfigError(f"{what} has {len(spec)} entries, "
                              f"mesh has {mesh.n_nodes} nodes")
        return [_finite(value, what) for value in spec]
    return _finite(spec, what)


def _build_name(name) -> str:
    """Report files are named after the config: keep them in --out-dir."""
    name = _string(name, "name")
    if name in ("", ".", "..") or any(sep in name for sep in ("/", "\\", "\0")):
        raise ConfigError(f"name {name!r} must be a plain file name")
    return name


def _build_eta(mesh: Mesh, spec) -> np.ndarray:
    """The node field, zero off the boundary, of absent data, of a list in
    mesh.boundary order, or of {boundary node id: value}."""
    eta, nb = np.zeros(mesh.n_nodes), mesh.boundary.size
    if isinstance(spec, dict):
        on_boundary = set(mesh.boundary.tolist())
        for node, value in spec.items():
            if not (_canonical(node) and int(node) in on_boundary):
                raise ConfigError(f"eta names {node!r}, not a boundary node id")
            eta[int(node)] = _finite(value, "eta value")
    elif isinstance(spec, list) and len(spec) == nb:
        eta[mesh.boundary] = [_finite(value, "eta value") for value in spec]
    elif spec is not None:
        raise ConfigError(f"eta must be a flat list of {nb} boundary values, "
                          f"got {spec!r}")
    return eta


def _suite_list(names: list, known_suites) -> tuple:
    """The named suites, each once, in the order first named."""
    if not names:
        raise ConfigError("suites must be nonempty")
    unknown = [s for s in names if s not in known_suites]
    if unknown:
        raise ConfigError(f"unknown suites: {unknown}")
    return tuple(dict.fromkeys(names))


def check_max_order(interaction: InteractionSpec, max_order: float) -> float:
    """A nonnegative half-integer order whose terms stay within LEG_CAP legs."""
    if not (math.isfinite(max_order) and max_order >= 0
            and round(2 * max_order) == 2 * max_order):
        raise ConfigError("max_order must be a nonnegative half-integer")
    powers = interaction.powers()
    # Copies of the lowest vertex alone bound the legs from below at no cost;
    # the exact count enumerates every vertex multiset within the order.
    low = powers[0] * (int(round(2 * max_order)) // (powers[0] - 2)) if powers else 0
    legs = low if low > LEG_CAP else leg_budget(powers, max_order)
    if legs > LEG_CAP:
        raise ConfigError(f"max_order {max_order} needs terms with {legs} "
                          f"field legs, above the cap of {LEG_CAP}")
    return max_order


def load_config(path: str, known_suites, max_order=None, suites=None) -> ScenarioConfig:
    """The config at path; max_order and suites, when given, replace its own."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    try:
        return _interpret(raw, known_suites, max_order, suites)
    except ConfigError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        # MeshError, GreenError and PerturbationError are ValueErrors too.
        raise ConfigError(f"bad config entry: {exc}") from exc


def _interpret(raw: dict, known_suites, max_order, suites) -> ScenarioConfig:
    missing = REQUIRED_KEYS - raw.keys()
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    _object(raw, "config", REQUIRED_KEYS | {"kernel", "eta", "suites"})

    mesh = _build_mesh(raw["mesh"])
    cut = _build_cut(mesh, raw["cut"])
    mass_squared = _object(raw["operator"], "operator",
                           {"mass_squared"}).get("mass_squared", 0.0)
    operator = OperatorSpec(_finite(mass_squared, "mass_squared"))
    if not isinstance(raw["lambdas"], list):
        raise ConfigError("lambdas must be a list of numbers")
    lambdas = tuple(_finite(x, "lambdas entry") for x in raw["lambdas"])
    if len(set(lambdas)) < len(lambdas):
        raise ConfigError(f"lambdas repeat a scale: {list(lambdas)}")
    # The spectrum check; side operators and the summed interface response
    # inherit positivity from the whole one.
    context = GluingContext(mesh, operator, cut)
    context.bundle
    couplings = _object(raw["interaction"], "interaction")
    bad = [k for k in couplings if not _canonical(k)]
    if bad:
        raise ConfigError(f"interaction powers {bad} are not canonical decimals")
    interaction = InteractionSpec({int(k): _build_coupling(mesh, k, v)
                                   for k, v in couplings.items()})

    kernel = _object(raw.get("kernel", {}), "kernel", {"shape"})
    shape = _string(kernel.get("shape", "uniform"), "kernel shape")
    if shape not in SHAPES:
        raise ConfigError(f"unknown kernel shape {shape!r}")

    own = check_max_order(interaction, _finite(raw["max_order"], "max_order"))
    max_order = own if max_order is None else check_max_order(interaction, max_order)
    eta = _build_eta(mesh, raw.get("eta"))

    if not lambdas:
        raise ConfigError("lambdas must be nonempty")
    try:
        scales = tuple(ScaleData(context, interaction, lam, shape, eta, max_order)
                       for lam in lambdas)
    except GluingError as exc:
        raise ConfigError(str(exc)) from exc

    listed = raw.get("suites", sorted(known_suites))
    if not isinstance(listed, list):
        raise ConfigError("suites must be a list of suite names")
    listed = _suite_list(listed, known_suites)
    name = _build_name(raw["name"])
    if suites is not None:  # after the config: its own errors are reported first
        listed = _suite_list(suites, known_suites)
    return ScenarioConfig(name=name, context=context, scales=scales, suites=listed)
