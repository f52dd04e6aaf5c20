import numpy as np
import pytest

from drapebench.body import build_parametric_body
from drapebench.garment import generate_garment
from drapebench.mesh import (
    TriMesh,
    cap_boundaries,
    dump_obj,
    edge_table,
    enclosed_volume,
    is_closed,
    face_components,
    load_obj,
    merge_meshes,
    ray_union_exits,
    surface_points,
)

from conftest import icosphere, open_cylinder, translated, unit_cube


def _loop_face_components(mesh):
    """Reference: union-find over the vertices of every face, one face at a time."""
    parent = np.arange(mesh.num_vertices)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for f in mesh.faces:
        r0 = find(int(f[0]))
        for v in (int(f[1]), int(f[2])):
            r = find(v)
            if r != r0:
                parent[r] = r0
    labels = np.array([find(int(f[0])) for f in mesh.faces])
    _, compact = np.unique(labels, return_inverse=True)
    return compact


def test_unit_cube_volume_exact():
    assert enclosed_volume(unit_cube()) == 1.0


def test_translation_invariance():
    cube = unit_cube()
    moved = translated(cube, (5.0, 5.0, 5.0))
    assert abs(enclosed_volume(moved) - 1.0) < 1e-9


def test_rotation_invariance(rng):
    from drapebench import rotations as rot

    sphere = icosphere(0.5, 2)
    v0 = enclosed_volume(sphere)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    rotated = TriMesh(rot.rotate(q, sphere.vertices), sphere.faces)
    assert abs(enclosed_volume(rotated) - v0) / v0 < 1e-9


def test_icosphere_volume():
    v = enclosed_volume(icosphere(1.0, 4))
    exact = 4.0 * np.pi / 3.0
    assert abs(v - exact) / exact < 0.01


def test_open_mesh_volume_rejected():
    cyl = open_cylinder(0.1, 0.5)
    assert not cyl.is_watertight
    with pytest.raises(ValueError, match="cap_boundaries"):
        enclosed_volume(cyl)


def test_capped_cylinder_volume():
    cyl = open_cylinder(0.1, 0.5, 64, 6)
    capped = cap_boundaries(cyl)
    assert capped.is_watertight
    exact = np.pi * 0.1**2 * 0.5
    assert abs(enclosed_volume(capped) - exact) / exact < 0.02


def test_cap_watertight_returns_unchanged():
    cube = unit_cube()
    assert cap_boundaries(cube) is cube


def test_cap_two_holes_adds_two_fans():
    tube_a = open_cylinder(0.05, 0.2, 12, 3)
    tube_b = translated(open_cylinder(0.07, 0.3, 12, 3), (1.0, 0, 0))
    two = merge_meshes([tube_a, cap_boundaries(tube_b)])
    capped = cap_boundaries(two)
    assert capped.is_watertight
    # one centroid vertex per open ring of tube_a
    assert capped.num_vertices == two.num_vertices + 2


def test_cap_rejects_non_manifold():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0.2]], dtype=float)
    f = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(ValueError, match="non-manifold"):
        cap_boundaries(TriMesh(v, f))


def test_degenerate_face_rejected():
    v = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
    with pytest.raises(ValueError, match="degenerate"):
        TriMesh(v, np.array([[0, 1, 2]]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_rejected(value):
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    v[2, 1] = value
    with pytest.raises(ValueError, match=rf"^vertices must be finite; entry \[2, 1\] is {value}$"):
        TriMesh(v, np.array([[0, 1, 3]]))
    text = dump_obj(unit_cube()).replace("v 1.00000000", f"v {value}", 1)
    with pytest.raises(ValueError, match="vertices must be finite"):
        load_obj(text)


@pytest.mark.parametrize(
    "faces",
    [[[0, 1.7, 2]], [[0, 1, np.nan]], [[True, False, True]], [["0", "1", "2"]]],
    ids=["fraction", "nan", "bool", "string"],
)
def test_face_indices_must_be_integers(faces):
    # A cast to int64 would read [0, 1.7, 2] as [0, 1, 2].
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    with pytest.raises(ValueError, match="^faces must hold integers"):
        TriMesh(v, faces)
    # A whole number stored as a float names its vertex.
    assert TriMesh(v, np.array([[0.0, 1.0, 2.0]])).faces.dtype == np.int64


@pytest.mark.parametrize(
    "record, message",
    [
        ("v 1 0 x", r"line 4: vertex coordinates must be numbers, got \['1', '0', 'x'\]"),
        ("f 1 2.5 3", r"line 4: face indices must be integers, got \['1', '2.5', '3'\]"),
        ("f 0 1 2", r"line 4: face \[0, 1, 2\] names no vertex; OBJ counts from 1"),
        ("f -4 -2 -1", r"line 4: face \[-4, -2, -1\] names no vertex"),
    ],
    ids=["coordinate", "fractional_index", "index_zero", "index_before_first"],
)
def test_obj_refusals_name_their_line(record, message):
    with pytest.raises(ValueError, match=message):
        load_obj(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{record}\nf 1 2 3\n")


def test_face_index_range_checked():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    with pytest.raises(ValueError):
        TriMesh(v, np.array([[0, 1, 3]]))


def test_surface_point_basics():
    cube = unit_cube()
    corner, centroid = surface_points(
        cube.vertices, cube.faces, [0, 0], [[1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3]]
    )
    assert np.allclose(corner, cube.vertices[cube.faces[0, 0]])
    assert np.allclose(centroid, cube.vertices[cube.faces[0]].mean(axis=0))


def test_surface_point_translation_equivariance():
    cube = unit_cube()
    face, bary = [3], [[0.2, 0.5, 0.3]]
    p0 = surface_points(cube.vertices, cube.faces, face, bary)
    p1 = surface_points(translated(cube, (1, 2, 3)).vertices, cube.faces, face, bary)
    assert np.allclose(p1 - p0, [1, 2, 3], atol=1e-12)


def test_surface_points_ride_stacked_frames():
    cube = unit_cube()
    face, bary = np.array([3, 0, 5]), np.array([[0.2, 0.5, 0.3], [1.0, 0.0, 0.0], [0.1, 0.1, 0.8]])
    frames = np.stack([cube.vertices + k for k in range(4)])
    stacked = surface_points(frames, cube.faces, face, bary)
    assert stacked.shape == (4, 3, 3)
    for k in range(4):
        assert np.array_equal(stacked[k], surface_points(frames[k], cube.faces, face, bary))


def test_surface_point_validation():
    cube = unit_cube()
    with pytest.raises(ValueError, match="barycentric"):
        surface_points(cube.vertices, cube.faces, [0], [[0.5, 0.5, 0.5]])
    with pytest.raises(ValueError, match=r"^face must hold integers in \[0, 12\); entry \[0\] is 99$"):
        surface_points(cube.vertices, cube.faces, [99], [[1.0, 0.0, 0.0]])


def test_ray_union_exit_picks_enclosing_surface():
    # Two spheres side by side; a ray from inside the first must exit the
    # first, not the far side of the second.
    a = icosphere(0.5, 2)
    b = translated(icosphere(0.5, 2), (2.0, 0.0, 0.0))
    mesh = merge_meshes([a, b])
    assert face_components(mesh).max() == 1
    # The second ray starts outside both: no enclosing component.
    hit, face, bary = ray_union_exits(
        [np.zeros(3), np.array([-5.0, 0, 0])], np.array([[1.0, 0.0, 0.0]] * 2), mesh
    )
    assert hit.tolist() == [True, False]
    (exit_point,) = surface_points(mesh.vertices, mesh.faces, face[:1], bary[:1])
    assert abs(np.linalg.norm(exit_point) - 0.5) < 0.02


def test_face_components_match_union_find(body):
    from drapebench.garment import generate_garment

    spheres = merge_meshes([icosphere(0.5, 2), translated(icosphere(0.5, 2), (2.0, 0.0, 0.0))])
    # Overlapping pieces share no vertex, so each stays its own component.
    overlapping = merge_meshes([translated(icosphere(0.1 + 0.02 * k, 1), (0.15 * k, 0.0, 0.0)) for k in range(5)])
    garments = generate_garment(body, ("tshirt", "trousers"), 4).mesh
    for mesh, count in ((spheres, 2), (overlapping, 5), (garments, 6)):
        ours = face_components(mesh)
        ref = _loop_face_components(mesh)
        # Same partition: the labels correspond one to one.
        pairs = set(zip(ours.tolist(), ref.tolist()))
        assert len(pairs) == len(set(ours.tolist())) == len(set(ref.tolist()))
        if count is not None:
            assert ours.max() + 1 == count


def test_ray_union_exit_overlapping_components():
    a = icosphere(0.5, 2)
    b = translated(icosphere(0.5, 2), (0.4, 0.0, 0.0))
    mesh = merge_meshes([a, b])
    hit, face, bary = ray_union_exits([np.zeros(3)], [np.array([1.0, 0.0, 0.0])], mesh)
    assert hit.all()
    (exit_point,) = surface_points(mesh.vertices, mesh.faces, face, bary)
    assert abs(exit_point[0] - 0.9) < 0.02  # far surface of the union


def test_obj_round_trip():
    cube = unit_cube()
    back = load_obj(dump_obj(cube))
    assert np.abs(back.vertices - cube.vertices).max() < 1e-7
    assert np.array_equal(back.faces, cube.faces)


def test_obj_rejects_quads():
    with pytest.raises(ValueError, match="triangular"):
        load_obj("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")


def _row_unique_edge_table(faces):
    """Reference: distinct edges as np.unique over rows (axis=0)."""
    directed = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    edges, inverse, counts = np.unique(
        np.sort(directed, axis=1), axis=0, return_inverse=True, return_counts=True
    )
    return directed, edges, inverse, counts


def test_edge_table_matches_row_unique_reference():
    garments = [
        generate_garment(build_parametric_body(build), ("tshirt", "trousers"), 6, scale).mesh.faces
        for build, scale in (("female_average", 1.0), ("male_large", 1.5))
    ]
    random_faces = np.random.default_rng(0).integers(0, 60, (400, 3))
    for faces in garments + [random_faces, np.zeros((0, 3), dtype=np.int64)]:
        for ours, ref in zip(edge_table(faces), _row_unique_edge_table(faces)):
            assert ours.dtype == ref.dtype and ours.shape == ref.shape
            assert np.array_equal(ours, ref)


def test_edge_table_counts_shared_edges():
    cyl = open_cylinder(0.1, 0.3, 16, 4)
    for faces, closed in ((cyl.faces, False), (cap_boundaries(cyl).faces, True), (icosphere(1).faces, True)):
        directed, edges, inverse, counts = edge_table(faces)
        assert np.array_equal(directed[: len(faces)], faces[:, :2])
        assert np.array_equal(edges[inverse], np.sort(directed, axis=1))
        assert np.array_equal(counts, np.bincount(inverse))
        assert len(np.unique(edges, axis=0)) == len(edges)
        assert is_closed(faces) == closed
    assert is_closed(np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4], [0, 1, 5]])) is False
