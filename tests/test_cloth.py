import dataclasses
import tracemalloc

import numpy as np
import pytest

from drapebench import rotations as rot
from drapebench.body import BUILD_CATALOG, Capsule, body_capsules, build_parametric_body
from drapebench.bench import BenchConfig, MotionSpec, _load_motion, _simulate_garment
from drapebench.cloth import (
    AIR_DRAG,
    COLLISION_OFFSET,
    STANDARD_GRAVITY,
    STRAIN_REF,
    ClothParams,
    ClothState,
    ClothSimulationError,
    SpringNetwork,
    _Solver,
    _advance,
    _capsule_arrays,
    _closest_on_segments,
    _collide_pairs,
    _collision_candidates,
    _substep_count,
    build_spring_network,
    kinetic_energy,
    max_capsule_penetration,
    simulate_sequence,
)
from drapebench import cloth
from drapebench.garment import generate_garment
from drapebench.kinematics import procedural_motion, sequence_transforms
from drapebench.mesh import TriMesh, edge_table


def grid_mesh(n, spacing=0.02, origin=(0.0, 0.0, 0.0)):
    xs, ys = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    verts = np.stack(
        [xs.ravel() * spacing + origin[0], np.full(n * n, origin[1]), ys.ravel() * spacing + origin[2]],
        axis=-1,
    )
    faces = []
    for i in range(n - 1):
        for j in range(n - 1):
            a, b, c, d = i * n + j, (i + 1) * n + j, (i + 1) * n + j + 1, i * n + j + 1
            faces += [[a, b, c], [a, c, d]]
    return TriMesh(verts, np.array(faces))


def _loop_spring_network(mesh, straight_threshold_deg=150.0):
    """Reference: shear and bend pairs collected with dicts and sets, one vertex at a time."""
    faces = mesh.faces
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    opposite = np.concatenate([faces[:, 2], faces[:, 0], faces[:, 1]])
    structural, inverse = np.unique(np.sort(edges, axis=1), axis=0, return_inverse=True)
    by_edge = {}
    for row, e in enumerate(inverse):
        by_edge.setdefault(int(e), []).append(int(opposite[row]))
    shear = sorted(tuple(sorted(o)) for o in by_edge.values() if len(o) == 2 and o[0] != o[1])
    neighbors = {}
    for a, b in structural:
        neighbors.setdefault(int(a), set()).add(int(b))
        neighbors.setdefault(int(b), set()).add(int(a))
    cos_thresh = np.cos(np.deg2rad(straight_threshold_deg))
    bend = set()
    verts = mesh.vertices
    for v, nbrs in neighbors.items():
        nbrs = sorted(nbrs)
        for ii in range(len(nbrs)):
            for jj in range(ii + 1, len(nbrs)):
                a, b = nbrs[ii], nbrs[jj]
                da = verts[a] - verts[v]
                db = verts[b] - verts[v]
                if float(da @ db / (np.linalg.norm(da) * np.linalg.norm(db))) < cos_thresh:
                    bend.add((a, b))

    def pairs(rows):
        return np.array(sorted(rows), dtype=np.int64).reshape(-1, 2)

    return structural, pairs(shear), pairs(bend)


def _all_pairs_spring_network(mesh):
    """Reference: the bend search over every neighbor pair of a vertex at once.

    Shear and rest lengths as build_spring_network takes them; each pair's
    vectors are gathered from the pair index arrays a_idx, b_idx, whose
    length is the count of neighbor pairs.
    """
    faces = mesh.faces
    _, structural, inverse, counts = edge_table(faces)
    opposite = np.concatenate([faces[:, 2], faces[:, 0], faces[:, 1]])
    opp = opposite[np.argsort(inverse, kind="stable")]
    first = (np.cumsum(counts) - counts)[counts == 2]
    o1, o2 = opp[first], opp[first + 1]
    distinct = o1 != o2
    lo, hi = np.minimum(o1, o2)[distinct], np.maximum(o1, o2)[distinct]
    order = np.lexsort((hi, lo))
    shear = np.stack([lo[order], hi[order]], axis=-1)

    hub = np.concatenate([structural[:, 0], structural[:, 1]])
    nbr = np.concatenate([structural[:, 1], structural[:, 0]])
    order = np.lexsort((nbr, hub))
    hub, nbr = hub[order], nbr[order]
    group_end = np.searchsorted(hub, hub, side="right")
    later = group_end - np.arange(len(hub)) - 1
    a_idx = np.repeat(np.arange(len(hub)), later)
    b_idx = a_idx + 1 + np.arange(len(a_idx)) - np.repeat(np.cumsum(later) - later, later)
    verts = mesh.vertices
    center = verts[hub[a_idx]]
    da = verts[nbr[a_idx]] - center
    db = verts[nbr[b_idx]] - center
    cos_ab = rot.dot(da, db) / (np.sqrt(rot.dot(da, da)) * np.sqrt(rot.dot(db, db)))
    straight = cos_ab < cloth._BEND_COS
    span = len(verts)
    keys = np.unique(nbr[a_idx][straight] * span + nbr[b_idx][straight])
    bend = np.stack(np.divmod(keys, span), axis=-1)

    def rest(pairs):
        if len(pairs) == 0:
            return np.zeros(0)
        return np.linalg.norm(verts[pairs[:, 1]] - verts[pairs[:, 0]], axis=-1)

    return SpringNetwork(structural, rest(structural), shear, rest(shear), bend, rest(bend))


def _assert_same_network(ours, ref):
    for f in dataclasses.fields(SpringNetwork):
        a, b = getattr(ours, f.name), getattr(ref, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape, f.name
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), f.name


def _reference_collision_candidates(x, v, cap_from, cap_to, dt):
    """Reference: per-capsule matmul and norm distances, both poses tested even when they are one."""
    speeds = np.sqrt(np.einsum("ij,ij->i", v, v))
    margin = 0.02 + dt * speeds + STANDARD_GRAVITY * dt * dt
    part_idx = []
    cap_idx = []
    for c in range(len(cap_from[0])):
        near = None
        for cap in (cap_from, cap_to):
            p0, seg, r = cap[0][c], cap[1][c], cap[2][c]
            denom = max(float(seg @ seg), 1e-18)
            t = np.clip(((x - p0) @ seg) / denom, 0.0, 1.0)
            closest = p0 + t[:, None] * seg
            d = np.linalg.norm(x - closest, axis=-1)
            mask = d < r + margin
            near = mask if near is None else (near | mask)
        hits = np.nonzero(near)[0]
        part_idx.append(hits)
        cap_idx.append(np.full(len(hits), c, dtype=np.int64))
    return np.concatenate(part_idx), np.concatenate(cap_idx)


def _reference_forces(solver, x, v):
    """Reference: fancy-index gathers and one bincount per axis and spring end."""
    d = x[solver.ej]
    d -= x[solver.ei]
    dv = v[solver.ej]
    dv -= v[solver.ei]
    length = np.sqrt(np.einsum("ij,ij->i", d, d))
    np.maximum(length, 1e-12, out=length)
    v_along = np.einsum("ij,ij->i", dv, d) / length
    fvec = d * ((solver.k * (length - solver.rest) + solver.damp * v_along) / length)[:, None]
    out = np.empty((solver.n, 3))
    for axis in range(3):
        out[:, axis] = np.bincount(solver.ei, weights=fvec[:, axis], minlength=solver.n)
        out[:, axis] -= np.bincount(solver.ej, weights=fvec[:, axis], minlength=solver.n)
    return out


def _reference_collide_pairs(x, v, pidx, p0, seg, radius):
    """Reference: masked [hit][order] gathers; returns the number of penetrating pairs."""
    closest, delta, dist = _closest_on_segments(x[pidx], p0, seg)
    depth = radius - dist
    hit = depth > 0.0
    if not hit.any():
        return 0
    order = np.argsort(depth[hit], kind="stable")
    sub = pidx[hit][order]
    d = np.maximum(dist[hit][order], 1e-12)[:, None]
    n = delta[hit][order] / d
    x[sub] = closest[hit][order] + n * radius[hit][order][:, None]
    vn = np.einsum("ij,ij->i", v[sub], n)
    v[sub] = v[sub] - np.minimum(vn, 0.0)[:, None] * n
    return int(hit.sum())


def _reference_advance(state, solver, params, dt, cap_from, cap_to, pin_to):
    """Reference: the substep loop with masked v[free] / x[free] updates.

    Returns (positions, velocities, penetrating pairs resolved over the substeps).
    """
    x = state.positions.copy()
    v = state.velocities.copy()
    pinned = state.pinned
    free = ~pinned
    n_sub = _substep_count(dt)
    h = dt / n_sub
    g_vec = np.array([0.0, -params.gravity, 0.0])
    pin_from = x[pinned]
    p0, seg, radius = cap_from
    p0_move, seg_move = cap_to[0] - p0, cap_to[1] - seg
    half_travel = 0.5 * np.maximum(np.linalg.norm(p0_move, axis=-1), np.linalg.norm(p0_move + seg_move, axis=-1))
    pidx, cidx = _collision_candidates(
        x.T, v.T, p0 + 0.5 * p0_move, seg + 0.5 * seg_move, radius + half_travel, dt, params.gravity
    )
    p0_a, seg_a, r_pair, p0_move, seg_move = (a[cidx] for a in (p0, seg, radius, p0_move, seg_move))
    drag = max(0.0, 1.0 - AIR_DRAG * h)
    resolved = 0
    for s in range(n_sub):
        f = _reference_forces(solver, x, v)
        v[free] += (f[free] / params.vertex_mass + g_vec) * h
        v[free] *= drag
        x[free] += v[free] * h
        alpha = (s + 1) / n_sub
        x[pinned] = pin_from + alpha * (pin_to - pin_from)
        resolved += _reference_collide_pairs(x, v, pidx, p0_a + alpha * p0_move, seg_a + alpha * seg_move, r_pair)
    v[pinned] = 0.0
    return x, v, resolved


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.fixture(
    scope="module", params=[("female_average", 1.0), ("male_large", 1.5)], ids=lambda p: f"{p[0]}-{p[1]}"
)
def fast_frame_scene(request):
    """One moving `fast` frame of a merged class-6 garment, at the smallest
    and the largest size the benchmark simulates.

    The garment rides its binding joints' rest frames into frame k, so the
    limbs of frames k and k + 1 cut through it; velocities are random on every
    row, pinned rows included.
    """
    build, resolution_scale = request.param
    body = build_parametric_body(build)
    sk = body.skeleton
    garment = generate_garment(body, ("tshirt", "trousers"), 6, resolution_scale)
    joint_pos, joint_orient = sequence_transforms(procedural_motion("fast", 1.0, 30.0, 1, sk))
    k = 10
    binding = garment.binding_joint
    local = garment.mesh.vertices - sk.rest_positions()[binding]
    ride = [joint_pos[f, binding] + rot.rotate(joint_orient[f, binding], local) for f in (k, k + 1)]
    v = np.random.default_rng(0).normal(0.0, 0.5, ride[0].shape)
    state = ClothState(ride[0], v, garment.pinned.copy())
    caps = [
        _capsule_arrays(body_capsules(sk, body.build_label, joint_positions=joint_pos[f]))
        for f in (k, k + 1)
    ]
    solver = _Solver(build_spring_network(garment.mesh), ClothParams(), garment.pinned, 1.0 / 30.0)
    return state, solver, caps, ride[1][garment.pinned]


def test_forces_match_loop_reference(fast_frame_scene):
    state, solver, _, _ = fast_frame_scene
    x, v = state.positions, state.velocities
    x2 = x + np.random.default_rng(1).normal(0.0, 0.01, x.shape)
    ours = solver.forces(x.T, v.T).T
    assert _same_bits(ours, _reference_forces(solver, x, v))
    # The reused gather buffers carry nothing from one call into the next.
    assert _same_bits(solver.forces(x2.T, -v.T).T, _reference_forces(solver, x2, -v))
    assert _same_bits(solver.forces(x.T, v.T).T, ours)


def test_advance_matches_masked_reference(fast_frame_scene):
    state, solver, (cap_from, cap_to), pin_to = fast_frame_scene
    params = ClothParams()
    dt = 1.0 / 30.0
    assert state.pinned.any() and not state.pinned.all()
    x, v, resolved = _reference_advance(state, solver, params, dt, cap_from, cap_to, pin_to)
    assert resolved > 0  # candidate pairs penetrate, so the collision response runs
    assert solver.dt == dt
    ours_x, ours_v = state.positions.T.copy(), state.velocities.T.copy()
    _advance(solver, ours_x, ours_v, cap_from, cap_to, pin_to)
    assert _same_bits(ours_x.T.copy(), x)
    assert _same_bits(ours_v.T.copy(), v)


def test_collide_pairs_deepest_wins_on_ties():
    # Particle 0 lies 0.25 deep in two coincident capsules and 0.125 deep in
    # a third written after them; particle 1 is inside one capsule; particle
    # 2 lies 0.25 deep in two capsules that push it opposite ways, so the
    # later pair must win. Every figure is exact in binary.
    x = np.array([[0.0, 0.0, 0.0], [3.0, 0.125, 0.0], [6.0, 0.0, 0.0], [9.0, 0.0, 0.0]])
    v = np.array([[0.0, 0.3, 0.1], [0.0, 0.2, 0.0], [0.1, 0.25, -0.5], [1.0, 1.0, 1.0]])
    pairs = [
        (2, (5.0, -0.5, 0.0), 0.75),
        (0, (-1.0, 0.5, 0.0), 0.75),
        (1, (2.0, 0.0, 0.0), 0.5),
        (0, (-1.0, 0.5, 0.0), 0.75),
        (2, (5.0, 0.25, 0.0), 0.5),
        (0, (-1.0, -1.0, 0.0), 1.125),
    ]
    pidx = np.array([p for p, _, _ in pairs])
    p0 = np.array([a for _, a, _ in pairs])
    seg = np.tile([2.0, 0.0, 0.0], (len(pairs), 1))
    radius = np.array([r for _, _, r in pairs])
    ref_x, ref_v = x.copy(), v.copy()
    assert _reference_collide_pairs(ref_x, ref_v, pidx, p0, seg, radius) == len(pairs)
    # The tie on particle 2 is real: the earlier pair would push it the other way.
    assert ref_x[2, 1] == -0.25 and ref_v[2, 1] == 0.0
    ours_x, ours_v = x.T.copy(), v.T.copy()
    seg_sq = np.maximum(rot.rowdot(seg, seg), 1e-18)
    _collide_pairs(ours_x, ours_v, pidx, p0.T.copy(), seg.T.copy(), seg_sq, radius)
    assert _same_bits(ours_x.T.copy(), ref_x)
    assert _same_bits(ours_v.T.copy(), ref_v)


def test_spring_outside_the_particles_refused(monkeypatch):
    empty = np.zeros((0, 2), dtype=np.int64)
    net = SpringNetwork(np.array([[0, 5]]), np.array([0.1]), empty, np.zeros(0), empty, np.zeros(0))
    tri = TriMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float), np.array([[0, 1, 2]]))
    message = r"spring 0 joins particles \[0, 5\], outside \[0, 3\)"
    with pytest.raises(ValueError, match=message):
        _Solver(net, ClothParams(), np.zeros(3, dtype=bool), 1.0 / 60.0)
    # A mesh's own network cannot reach past its vertices, so the network is substituted.
    monkeypatch.setattr(cloth, "build_spring_network", lambda mesh: net)
    with pytest.raises(ValueError, match=message):
        simulate_sequence(
            tri, np.zeros(3, dtype=bool), np.zeros((1, 0, 3)), [[]], ClothParams(), 30.0, warmup=0.0
        )


@pytest.fixture(scope="module")
def male_large_scene():
    """A merged class-6 male_large garment at resolution 1.5 and its body."""
    body = build_parametric_body("male_large")
    garment = generate_garment(body, ("tshirt", "trousers"), 6, resolution_scale=1.5)
    return body, garment


def single_spring_network(rest=0.1):
    empty = np.zeros((0, 2), dtype=np.int64)
    return SpringNetwork(
        np.array([[0, 1]]), np.array([rest]), empty, np.zeros(0), empty, np.zeros(0)
    )


def test_woven_cotton_default_parameters():
    p = ClothParams()
    assert p.vertex_mass == 0.05
    assert p.stiffness_structural == 15.0
    assert p.stiffness_shear == 10.0
    assert p.stiffness_bending == 0.5
    assert p.damping_structural == 5.0
    assert p.damping_shear == 5.0
    assert p.damping_bending == 0.5


def test_params_validation():
    with pytest.raises(ValueError):
        ClothParams(vertex_mass=0.0)
    with pytest.raises(ValueError):
        ClothParams(stiffness_shear=-1.0)
    # The checks are written so that NaN fails them, as infinity does.
    for name in (f.name for f in dataclasses.fields(ClothParams)):
        want = "positive" if name == "vertex_mass" else "non-negative"
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"{name} must be {want} and finite, got {value!r}"):
                ClothParams(**{name: value})


def test_single_triangle_network():
    tri = TriMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float), np.array([[0, 1, 2]]))
    net = build_spring_network(tri)
    assert (len(net.structural), len(net.shear), len(net.bend)) == (3, 0, 0)


def test_quad_network():
    quad = TriMesh(
        np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float),
        np.array([[0, 1, 2], [0, 2, 3]]),
    )
    net = build_spring_network(quad)
    assert len(net.structural) == 5
    assert len(net.shear) == 1
    assert sorted(net.shear[0]) == [1, 3]


def test_grid_network_combinatorial_oracle():
    for n in (5, 8, 11):
        net = build_spring_network(grid_mesh(n))
        exp_struct = 2 * n * (n - 1) + (n - 1) ** 2
        exp_shear = exp_struct - 4 * (n - 1)
        exp_bend = 2 * n * (n - 2) + (n - 2) ** 2
        assert len(net.structural) == exp_struct
        assert len(net.shear) == exp_shear
        assert len(net.bend) == exp_bend


def test_network_matches_loop_reference(male_large_scene):
    _, garment = male_large_scene
    tri = TriMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float), np.array([[0, 1, 2]]))
    meshes = [tri, grid_mesh(3), grid_mesh(5), grid_mesh(8), grid_mesh(11), garment.mesh]
    meshes.append(grid_mesh(12, 0.02, origin=(-0.11, 0.15, -0.11)))
    for mesh in meshes:
        net = build_spring_network(mesh)
        for ours, ref in zip((net.structural, net.shear, net.bend), _loop_spring_network(mesh)):
            assert ours.dtype == ref.dtype and ours.shape == ref.shape
            assert np.array_equal(ours, ref)


@pytest.mark.parametrize("build", sorted(BUILD_CATALOG))
def test_network_matches_all_pairs_reference(build):
    """Bend pairs found one neighbor offset at a time give the all-pairs
    search's arrays bit for bit, on every build, tight to loose, at two
    resolutions and for both garment sets; a fit the program refuses is skipped."""
    body = build_parametric_body(build)
    compared = 0
    for categories in (("tshirt", "trousers"), ("unicloth",)):
        for drape in (1, 3, 6):
            for scale in (1.0, 1.5):
                try:
                    garment = generate_garment(body, categories, drape, resolution_scale=scale)
                except ValueError:
                    continue
                _assert_same_network(build_spring_network(garment.mesh), _all_pairs_spring_network(garment.mesh))
                compared += 1
    assert compared > 0
    tri = TriMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float), np.array([[0, 1, 2]]))
    for mesh in (tri, grid_mesh(12, 0.02, origin=(-0.11, 0.15, -0.11))):
        _assert_same_network(build_spring_network(mesh), _all_pairs_spring_network(mesh))


def test_network_build_holds_no_pair_sized_array(male_large_scene):
    """No array is as long as the neighbor pairs. Under tracemalloc the
    all-pairs search peaked at 7.7-8.7 MB on this garment, the search one
    offset at a time at 3.8-4.2 MB; the higher figures are first calls."""
    mesh = male_large_scene[1].mesh
    tracemalloc.start()
    try:
        build_spring_network(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6


def _pair_keys(pairs, num_capsules):
    particle, capsule = pairs
    return particle * num_capsules + capsule


def test_collision_candidates_match_reference(male_large_scene):
    body, garment = male_large_scene
    sk = body.skeleton
    joint_pos, joint_orient = sequence_transforms(procedural_motion("fast", 1.0, 30.0, 1, sk))
    k = 10
    dt = 1.0 / 30.0
    # The garment ridden rigidly into frame k by its binding joints.
    binding = garment.binding_joint
    local = garment.mesh.vertices - sk.rest_positions()[binding]
    moved = joint_pos[k, binding] + rot.rotate(joint_orient[k, binding], local)
    v = np.random.default_rng(0).normal(0.0, 0.5, moved.shape)
    rest = _capsule_arrays(body_capsules(sk, body.build_label))
    start, end = (
        _capsule_arrays(body_capsules(sk, body.build_label, joint_positions=joint_pos[f]))
        for f in (k, k + 1)
    )

    # A still body tests the one pose at the capsule radius: the two-pose sets exactly.
    ours = _collision_candidates(garment.mesh.vertices.T, v.T, rest[0], rest[1], rest[2], dt, STANDARD_GRAVITY)
    ref = _reference_collision_candidates(garment.mesh.vertices, v, rest, rest, dt)
    assert len(ours[0]) > 0
    for a, b in zip(ours, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b)

    # A moving body: mid-frame pose, reach = radius + half the farthest end travel.
    p0_move, seg_move = end[0] - start[0], end[1] - start[1]
    reach = start[2] + 0.5 * np.maximum(
        np.linalg.norm(p0_move, axis=-1), np.linalg.norm(p0_move + seg_move, axis=-1)
    )
    ours = _collision_candidates(
        moved.T, v.T, start[0] + 0.5 * p0_move, start[1] + 0.5 * seg_move, reach, dt, STANDARD_GRAVITY
    )
    assert np.all(np.diff(ours[1]) >= 0)  # capsule-major
    num_caps = len(start[2])
    keys = _pair_keys(ours, num_caps)
    ref = _reference_collision_candidates(moved, v, start, end, dt)
    assert np.isin(_pair_keys(ref, num_caps), keys).all()
    # Brute force over the frame's substep poses: every pair that comes within
    # the collision radius plus the particle margin at any of them is a candidate.
    margin = 0.02 + dt * np.linalg.norm(v, axis=-1) + STANDARD_GRAVITY * dt * dt
    n_sub = 34
    swept = np.zeros((len(moved), num_caps), dtype=bool)
    for s in range(n_sub):
        alpha = (s + 1) / n_sub
        p0 = start[0] + alpha * p0_move
        seg = start[1] + alpha * seg_move
        for c in range(num_caps):
            t = np.clip((moved - p0[c]) @ seg[c] / (seg[c] @ seg[c]), 0.0, 1.0)
            d = np.linalg.norm(moved - p0[c] - t[:, None] * seg[c], axis=-1)
            swept[:, c] |= d < start[2][c] + margin - 1e-9
    swept_keys = _pair_keys(np.nonzero(swept), num_caps)
    assert np.isin(swept_keys, keys).all()
    # The limbs sweep through pairs that neither end pose finds.
    assert not np.isin(swept_keys, _pair_keys(ref, num_caps)).all()


def test_non_manifold_rejected():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0.5]], dtype=float)
    f = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(ValueError, match="non-manifold"):
        build_spring_network(TriMesh(v, f))


def test_zero_gravity_rest_is_fixed_point():
    mesh = grid_mesh(6)
    rest, stepped = simulate_sequence(
        mesh, np.zeros(mesh.num_vertices, dtype=bool), np.zeros((2, 0, 3)), [[], []],
        ClothParams(gravity=0.0), 60.0, warmup=0.0,
    )
    assert np.array_equal(rest.positions, mesh.vertices)
    assert np.abs(stepped.positions - rest.positions).max() < 1e-12
    assert np.abs(stepped.velocities).max() < 1e-12


def test_oscillator_frequency_matches_analytic():
    rest = 0.1
    net = single_spring_network(rest)
    params = ClothParams(gravity=0.0, damping_structural=0.3)
    k = params.stiffness_structural * params.vertex_mass * STANDARD_GRAVITY / (STRAIN_REF * rest)
    f_analytic = np.sqrt(k / params.vertex_mass) / (2.0 * np.pi)
    # One spring is no mesh's network, so the compiled run is driven directly.
    run = _Solver(net, params, np.array([True, False]), 0.001)
    x = np.array([[0.0, rest * 1.1], [0.0, 0.0], [0.0, 0.0]])
    v = np.zeros((3, 2))
    still = _capsule_arrays([])
    xs = []
    for _ in range(3000):
        _advance(run, x, v, still, still, x[:, :1].T.copy())
        xs.append(x[0, 1] - rest)
    xs = np.array(xs)
    crossings = np.nonzero(np.diff(np.sign(xs)) != 0)[0]
    period = 2.0 * np.mean(np.diff(crossings[:20])) * 0.001
    f_measured = 1.0 / period
    assert abs(f_measured - f_analytic) / f_analytic < 0.05
    # converged to rest length
    assert abs(xs[-1]) < 1e-3 * rest


def test_square_dropped_on_capsule_settles_on_surface():
    mesh = grid_mesh(12, 0.02, origin=(-0.11, 0.15, -0.11))
    capsule = Capsule(np.array([-0.3, 0.0, 0.0]), np.array([0.3, 0.0, 0.0]), 0.05)
    n = 121  # the rest state and 2 s of frames at 60 fps
    states = simulate_sequence(
        mesh, np.zeros(mesh.num_vertices, dtype=bool), np.zeros((n, 0, 3)), [[capsule]] * n,
        ClothParams(), 60.0, warmup=0.0,
    )
    state = states[-1]
    assert max_capsule_penetration(state.positions, [capsule]) < 0.001
    # at least the center of the square rests near the capsule surface
    assert state.positions[:, 1].max() <= 0.055 + 0.02


def test_rising_capsule_keeps_sheet_outside():
    mesh = grid_mesh(12, 0.02, origin=(-0.11, 0.06, -0.11))
    n = 30
    rise = 0.01  # m per frame, 0.3 m/s at 30 fps
    frames = [
        [Capsule(np.array([-0.3, rise * f, 0.0]), np.array([0.3, rise * f, 0.0]), 0.05)]
        for f in range(n)
    ]
    pinned = np.zeros(mesh.num_vertices, dtype=bool)
    states = simulate_sequence(
        mesh, pinned, np.zeros((n, 0, 3)), frames, ClothParams(), 30.0, warmup=1.0
    )
    for state, caps in zip(states, frames):
        assert max_capsule_penetration(state.positions, caps) < 1e-3
    # The sheet rode up with the capsule rather than falling through it.
    assert states[-1].positions[:, 1].max() > rise * (n - 1) + 0.05


def test_strong_gravity_keeps_falling_sheet_outside():
    # Under 100 m/s^2 the sheet falls 56 mm in the first frame, from 36 mm
    # above the collision radius: the candidate margin must use that gravity.
    capsule = Capsule(np.array([-0.3, 0.0, 0.0]), np.array([0.3, 0.0, 0.0]), 0.05)
    mesh = grid_mesh(12, 0.02, origin=(-0.11, capsule.radius + COLLISION_OFFSET + 0.036, -0.11))
    n = 4
    states = simulate_sequence(
        mesh, np.zeros(mesh.num_vertices, dtype=bool), np.zeros((n, 0, 3)), [[capsule]] * n,
        ClothParams(gravity=100.0), 30.0, warmup=0.0,
    )
    for frame, state in enumerate(states):
        depth = max_capsule_penetration(state.positions, [capsule])
        assert depth < 1e-3, f"frame {frame}: {1000 * depth:.2f} mm inside the capsule"


@pytest.mark.parametrize("drape", [1, 6])
def test_fast_motion_keeps_cloth_outside_the_body(drape):
    # Free particles may sink into the body's true capsules by at most the
    # cloth thickness that the collision radius adds, at every recorded frame.
    config = BenchConfig(
        seed=1, motions=(MotionSpec("fast", duration_s=0.5, fps=30.0),),
        drape_classes=(drape,), resolution_scale=1.0, warmup_s=0.5,
    )
    body = build_parametric_body("female_average")
    sk = body.skeleton
    seq = _load_motion(config, config.motions[0], sk)
    joint_pos, joint_orient = sequence_transforms(seq)
    garment = generate_garment(body, config.garment_categories, drape)
    states = _simulate_garment(config, body, garment, seq, joint_pos, joint_orient)
    free = ~garment.pinned
    for frame, (state, pos) in enumerate(zip(states, joint_pos)):
        caps = body_capsules(sk, body.build_label, joint_positions=pos)
        depth = max_capsule_penetration(state.positions[free], caps)
        assert depth < COLLISION_OFFSET, f"frame {frame}: {1000 * depth:.2f} mm inside the body"


def test_collider_frames_with_different_capsule_counts_refused():
    mesh = grid_mesh(3)
    cap = Capsule(np.zeros(3), np.array([1.0, 0.0, 0.0]), 0.05)
    with pytest.raises(ValueError, match="capsule count"):
        simulate_sequence(
            mesh, np.zeros(9, dtype=bool), np.zeros((2, 0, 3)), [[cap], []],
            ClothParams(), 30.0, warmup=0.0,
        )


def test_empty_motion_refused():
    mesh = grid_mesh(3)
    pinned = np.zeros(9, dtype=bool)
    with pytest.raises(ValueError, match="no frames"):
        simulate_sequence(mesh, pinned, np.zeros((0, 0, 3)), [], ClothParams(), 30.0, warmup=0.0)
    pinned[:2] = True
    with pytest.raises(ValueError, match="no frames"):
        simulate_sequence(mesh, pinned, np.zeros((0, 2, 3)), [], ClothParams(), 30.0)


def test_pin_frames_of_wrong_shape_refused():
    mesh = grid_mesh(3)
    pinned = np.zeros(9, dtype=bool)
    pinned[:2] = True
    cap = Capsule(np.zeros(3), np.array([1.0, 0.0, 0.0]), 0.05)
    with pytest.raises(ValueError, match=r"pin_frames has shape \(2, 1, 3\), expected \(2, 2, 3\)"):
        simulate_sequence(mesh, pinned, np.zeros((2, 1, 3)), [[cap], [cap]], ClothParams(), 30.0, warmup=0.0)
    with pytest.raises(ValueError, match=r"pin_frames has shape \(3, 2, 3\), expected \(2, 2, 3\)"):
        simulate_sequence(mesh, pinned, np.zeros((3, 2, 3)), [[cap], [cap]], ClothParams(), 30.0, warmup=0.0)


def test_pinned_mask_of_wrong_shape_refused():
    mesh = grid_mesh(3)
    with pytest.raises(ValueError, match=r"pinned has shape \(8,\), expected \(9,\)"):
        simulate_sequence(mesh, np.zeros(8, dtype=bool), np.zeros((1, 0, 3)), [[]], ClothParams(), 30.0)


@pytest.mark.parametrize(
    "argument, value",
    [("fps", v) for v in (0.0, -30.0, float("inf"), float("nan"))]
    + [("warmup", v) for v in (-1.0, float("inf"), float("nan"))],
)
def test_rate_and_warmup_refused_before_any_work(monkeypatch, argument, value):
    def no_work(mesh):
        raise AssertionError("the spring network was built before the inputs were checked")

    monkeypatch.setattr(cloth, "build_spring_network", no_work)
    mesh = grid_mesh(3)
    kwargs = {"fps": 30.0, "warmup": 0.0, argument: value}
    want = "positive" if argument == "fps" else "non-negative"
    with pytest.raises(ValueError, match=f"{argument} must be {want} and finite, got {value!r}"):
        simulate_sequence(mesh, np.zeros(9, dtype=bool), np.zeros((2, 0, 3)), [[], []], ClothParams(), **kwargs)


def test_capsule_radius_change_refused(monkeypatch):
    # _advance reads only the from-frame radius, so a growing capsule would
    # leave the cloth inside it.
    def no_work(mesh):
        raise AssertionError("the spring network was built before the inputs were checked")

    monkeypatch.setattr(cloth, "build_spring_network", no_work)
    mesh = grid_mesh(3, 0.1, origin=(-0.1, 0.2, -0.1))
    still = Capsule(np.array([0.0, -1.0, 0.0]), np.array([0.0, -0.5, 0.0]), 0.05)

    def arm(radius):
        return Capsule(np.array([-0.3, 0.0, 0.0]), np.array([0.3, 0.0, 0.0]), radius)

    frames = [[still, arm(0.1)], [still, arm(0.1)], [still, arm(0.3)]]
    with pytest.raises(ValueError, match="collider frame 2 changes the radius of capsule 1"):
        simulate_sequence(mesh, np.zeros(9, dtype=bool), np.zeros((3, 0, 3)), frames, ClothParams(), 30.0, warmup=0.0)


def test_records_own_their_arrays():
    # A pinned corner dragged sideways under gravity: every frame moves.
    mesh = grid_mesh(4)
    pinned = np.zeros(16, dtype=bool)
    pinned[0] = True
    n = 5
    pin_frames = mesh.vertices[[0]][None] + np.arange(n)[:, None, None] * np.array([0.01, 0.0, 0.0])

    def run(frames):
        return simulate_sequence(
            mesh, pinned, pin_frames[:frames], [[]] * frames, ClothParams(), 30.0, warmup=0.1
        )

    states = run(n)
    arrays = [a for state in states for a in (state.positions, state.velocities)]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
    for earlier, later in zip(states, states[1:]):
        assert not np.array_equal(earlier.positions, later.positions)
    # Each record reads as it did when its frame was the last one simulated.
    for k in range(n - 1):
        last = run(k + 1)[-1]
        assert np.array_equal(states[k].positions, last.positions)
        assert np.array_equal(states[k].velocities, last.velocities)
    # One read-only copy of the mask; times summed frame by frame, warmup included.
    assert all(state.pinned is states[0].pinned for state in states)
    assert not states[0].pinned.flags.writeable and not np.shares_memory(states[0].pinned, pinned)
    assert np.array_equal(states[0].pinned, pinned)
    t = 0.0
    for _ in range(3):
        t += 1.0 / 30.0
    for state in states:
        assert state.time == t
        t += 1.0 / 30.0


def test_initial_positions_of_wrong_shape_refused():
    mesh = grid_mesh(3)
    with pytest.raises(ValueError, match=r"initial_positions has shape \(8, 3\), expected \(9, 3\)"):
        simulate_sequence(
            mesh, np.zeros(9, dtype=bool), np.zeros((2, 0, 3)), [[], []], ClothParams(), 30.0,
            warmup=0.0, initial_positions=mesh.vertices[:8],
        )


def test_nan_detection_names_particle_and_substep():
    run = _Solver(single_spring_network(0.1), ClothParams(), np.zeros(2, dtype=bool), 0.001)
    x = np.array([[0.0, np.inf], [0.0, 0.0], [0.0, 0.0]])
    still = _capsule_arrays([])
    with pytest.raises(ClothSimulationError, match=r"non-finite state for particle 1 at substep 0"):
        _advance(run, x, np.zeros((3, 2)), still, still, np.zeros((0, 3)))


def test_pinned_particles_follow_targets_exactly():
    mesh = grid_mesh(4)
    pinned = np.zeros(16, dtype=bool)
    pinned[0] = True
    target = mesh.vertices[[0]] + np.array([0.05, 0.0, 0.0])
    _, out = simulate_sequence(
        mesh, pinned, np.stack([mesh.vertices[[0]], target]), [[], []], ClothParams(), 60.0, warmup=0.0
    )
    assert np.abs(out.positions[0] - target[0]).max() < 1e-15
    assert np.abs(out.velocities[0]).max() == 0.0


@pytest.fixture(scope="module")
def settled_garment_scene():
    body = build_parametric_body("female_average")
    garment = generate_garment(body, ("tshirt",), 3)
    caps = body_capsules(body.skeleton, body.build_label)
    n = 90  # 3 s of static frames recorded after the warm start
    pin_idx = np.nonzero(garment.pinned)[0]
    pin_frames = np.repeat(garment.mesh.vertices[pin_idx][None], n, axis=0)
    states = simulate_sequence(
        garment.mesh, garment.pinned, pin_frames, [caps] * n, ClothParams(), 30.0, warmup=2.0
    )
    return garment, caps, states


def test_static_body_converges(settled_garment_scene):
    _, caps, states = settled_garment_scene
    last_disp = np.abs(states[-1].positions - states[-2].positions).max()
    assert last_disp < 1e-4  # 0.1 mm
    assert max_capsule_penetration(states[-1].positions, caps) < 1e-3


def test_static_body_kinetic_energy_decays(settled_garment_scene):
    _, _, states = settled_garment_scene
    assert kinetic_energy(states[-1], ClothParams()) < 1e-6


def test_simulation_deterministic(settled_garment_scene):
    garment, caps, states = settled_garment_scene
    n = 10
    pin_idx = np.nonzero(garment.pinned)[0]
    pin_frames = np.repeat(garment.mesh.vertices[pin_idx][None], n, axis=0)
    a = simulate_sequence(
        garment.mesh, garment.pinned, pin_frames, [caps] * n, ClothParams(), 30.0, warmup=0.2
    )
    b = simulate_sequence(
        garment.mesh, garment.pinned, pin_frames, [caps] * n, ClothParams(), 30.0, warmup=0.2
    )
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.positions, sb.positions)
        assert np.array_equal(sa.velocities, sb.velocities)


def test_doubled_gravity_lowers_garment(settled_garment_scene):
    garment, caps, states = settled_garment_scene
    n = 60
    pin_idx = np.nonzero(garment.pinned)[0]
    pin_frames = np.repeat(garment.mesh.vertices[pin_idx][None], n, axis=0)
    heavy = simulate_sequence(
        garment.mesh, garment.pinned, pin_frames, [caps] * n,
        ClothParams(gravity=2 * 9.81), 30.0, warmup=2.0,
    )
    free = ~garment.pinned
    assert heavy[-1].positions[free, 1].mean() < states[-1].positions[free, 1].mean()
