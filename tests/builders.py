"""Test data shared by several test modules: a curved metric profile, a
mesh with its nodes relabelled, a Dirichlet boundary field and the whole
route to the effective action built from scratch."""

import numpy as np

from cutglue.gluing import averaged_gaussian
from cutglue.meshes import Mesh


def _bumpy(x):
    return 1.0 + 0.5 * np.sin(np.sum(x)) ** 2


def _scrambled(mesh: Mesh, seed: int) -> tuple[Mesh, np.ndarray]:
    """The mesh read back from text with nodes and edges relabelled at random.

    Returns the new mesh and perm, where old node i is new node perm[i].
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.n_nodes)
    header, *rows = mesh.to_text().splitlines()
    nodes, edges = {}, []
    for ln in rows:
        kind, a, *rest = ln.split()
        if kind == "node":
            nodes[perm[int(a)]] = " ".join([kind, str(perm[int(a)]), *rest])
        else:
            b, *rest = rest
            edges.append(" ".join([kind, str(perm[int(a)]), str(perm[int(b)]), *rest]))
    lines = [header, *(nodes[k] for k in range(mesh.n_nodes)),
             *(edges[k] for k in rng.permutation(len(edges)))]
    return Mesh.from_text("\n".join(lines)), perm


def boundary_field(mesh, values):
    """The node field holding values on mesh.boundary, in its order, and
    zero elsewhere: the form of Dirichlet data eta."""
    field = np.zeros(mesh.n_nodes)
    field[mesh.boundary] = values
    return field


def effective_action_series(bundle, kernel, lam, interaction, eta, max_order,
                            region=None):
    """Minus log of the regularized partition function, order by order, on
    the whole route built from scratch: the averaged Gaussian of
    `averaged_gaussian` with the kernel at scale lam, and vertices on the
    node set trimmed at lam (or the explicit region if one is given)."""
    mesh = bundle.mesh
    if region is None:
        region = mesh.trim_to_deformed(lam)
    gaussian = averaged_gaussian(kernel, eta, bundle)
    return gaussian.series(interaction, [region], mesh.node_volumes, max_order)[0]
