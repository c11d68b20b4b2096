import numpy as np
import pytest
from hypothesis import given, strategies as st

from nsdarcy import mesh as M
from nsdarcy.cli import EXIT_CONFIG, main


def independent_edge_count(triangles):
    """Count unique edges from the triangle list alone."""
    edges = set()
    for a, b, c in triangles:
        edges.update({tuple(sorted(p)) for p in ((a, b), (b, c), (c, a))})
    return len(edges)


def rectangle_by_cells(nx, ny, split_y):
    """Vertices, triangles, triangle tags, boundary edges and their tags of
    the built-in rectangle, built point by point and cell by cell."""
    dx, dy = 1.0 / nx, 2.0 / ny
    jrow = int(round(split_y / dy))

    def vid(i, j):
        return j * (nx + 1) + i

    vertices = [(dx * i, dy * j) for j in range(ny + 1) for i in range(nx + 1)]
    triangles, tags = [], []
    for j in range(ny):
        tag = M.POROUS if j < jrow else M.FLUID
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            if (i + j) % 2 == 0:
                triangles += [(v00, v10, v11), (v00, v11, v01)]
            else:
                triangles += [(v00, v10, v01), (v10, v11, v01)]
            tags += [tag, tag]

    bedges, btags = [], []
    for i in range(nx):  # bottom, top
        bedges.append((vid(i, 0), vid(i + 1, 0)))
        btags.append(M.GAMMA_PD)
        bedges.append((vid(i, ny), vid(i + 1, ny)))
        btags.append(M.GAMMA_F)
    for j in range(ny):  # left, right
        side = M.GAMMA_PN if j < jrow else M.GAMMA_F
        bedges.append((vid(0, j), vid(0, j + 1)))
        btags.append(side)
        bedges.append((vid(nx, j), vid(nx, j + 1)))
        btags.append(side)
    return tuple(map(np.array, (vertices, triangles, tags, bedges, btags)))


class TestRectangleBuilder:
    @pytest.mark.parametrize("nx, ny, split", [(1, 2, 1.0), (3, 6, 1.0),
                                               (5, 10, 0.4), (7, 4, 1.0),
                                               (48, 96, 1.0)])
    def test_arrays_match_the_cell_loop(self, nx, ny, split):
        m = M.build_rectangle_mesh(nx, ny, split)
        built = (m.vertices, m.triangles, m.tri_tags, m.boundary_edges,
                 m.boundary_tags)
        for name, a, b in zip(("vertices", "triangles", "tri_tags",
                               "boundary_edges", "boundary_tags"),
                              built, rectangle_by_cells(nx, ny, split)):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name

    def test_smallest_crossed_mesh(self):
        m = M.build_rectangle_mesh(1, 2, 1.0)
        assert m.num_triangles == 4
        assert len(m.fluid_triangles()) == 2
        assert len(m.porous_triangles()) == 2
        assert len(m.interface_edges) == 1

    def test_interface_normal_points_down_into_porous(self):
        m = M.build_rectangle_mesh(2, 4, 1.0)
        assert len(m.interface_edges) == 2
        assert np.array_equal(m.interface_normals, [[0.0, -1.0], [0.0, -1.0]])
        # every interface edge sits on the split line
        for a, b in m.interface_edges:
            assert m.vertices[a, 1] == 1.0 and m.vertices[b, 1] == 1.0

    @pytest.mark.parametrize("nx,ny,split", [(1, 2, 1.0), (2, 4, 1.0), (3, 5, 1.2), (4, 4, 1.0)])
    def test_euler_characteristic_of_disk(self, nx, ny, split):
        m = M.build_rectangle_mesh(nx, ny, split)
        V, F = m.num_vertices, m.num_triangles
        E = independent_edge_count(m.triangles)
        assert V - E + F == 1

    @pytest.mark.parametrize("nx,ny,split", [(2, 4, 1.0), (3, 6, 1.0), (5, 8, 0.75)])
    def test_subdomain_areas(self, nx, ny, split):
        m = M.build_rectangle_mesh(nx, ny, split)
        assert m.subdomain_area(M.FLUID) == pytest.approx(1.0 * (2.0 - split), rel=1e-12)
        assert m.subdomain_area(M.POROUS) == pytest.approx(1.0 * split, rel=1e-12)

    def test_counts_scale_with_resolution(self):
        m = M.build_rectangle_mesh(4, 8, 1.0)
        assert m.num_triangles == 64
        assert m.num_vertices == 45
        assert len(m.interface_edges) == 4
        assert sum(m.boundary_tags == M.GAMMA_PD) == 4
        assert sum(m.boundary_tags == M.GAMMA_F) == 4 + 8
        assert sum(m.boundary_tags == M.GAMMA_PN) == 8

    def test_split_off_grid_line_rejected(self):
        with pytest.raises(M.MeshError, match="grid line"):
            M.build_rectangle_mesh(2, 3, 1.1)

    @pytest.mark.parametrize("split", [0.0, 2.0])
    def test_split_on_outer_boundary_rejected(self, split):
        with pytest.raises(M.MeshError, match="strictly inside"):
            M.build_rectangle_mesh(2, 4, split)

    def test_all_triangles_counterclockwise(self):
        m = M.build_rectangle_mesh(3, 5, 1.2)
        assert np.all(M.triangle_areas(m.vertices, m.triangles) > 0)


class TestRefine:
    def test_counts_quadruple_and_interface_doubles(self):
        m = M.build_rectangle_mesh(1, 2, 1.0)
        r = M.refine_uniform(m)
        assert r.num_triangles == 16
        assert len(r.interface_edges) == 2
        assert len(r.boundary_edges) == 2 * len(m.boundary_edges)

    def test_h_halves_exactly(self):
        m = M.build_rectangle_mesh(2, 4, 1.0)
        r = M.refine_uniform(m)
        assert r.h == 0.5 * m.h

    def test_children_inherit_subdomain_tag(self):
        m = M.build_rectangle_mesh(2, 4, 1.0)
        r = M.refine_uniform(m)
        for k in range(m.num_triangles):
            assert np.all(r.tri_tags[4 * k:4 * k + 4] == m.tri_tags[k])

    def test_boundary_children_inherit_tag(self):
        m = M.build_rectangle_mesh(2, 4, 1.0)
        r = M.refine_uniform(m)
        # classify each refined boundary edge geometrically and compare
        for (a, b), tag in zip(r.boundary_edges, r.boundary_tags):
            mid = 0.5 * (r.vertices[a] + r.vertices[b])
            if np.isclose(mid[1], 0.0):
                assert tag == M.GAMMA_PD
            elif np.isclose(mid[1], 2.0) or mid[1] > 1.0:
                assert tag == M.GAMMA_F
            else:
                assert tag == M.GAMMA_PN

    def test_refined_mesh_passes_validation_and_euler(self):
        m = M.refine_uniform(M.refine_uniform(M.build_rectangle_mesh(2, 4, 1.0)))
        V, F = m.num_vertices, m.num_triangles
        assert V - independent_edge_count(m.triangles) + F == 1

    def test_opposite_side_normal_is_exact_negation(self):
        m = M.refine_uniform(M.build_rectangle_mesh(2, 4, 1.0))
        for k, (a, b) in enumerate(m.interface_edges):
            tvec = m.vertices[b] - m.vertices[a]
            n = np.array([tvec[1], -tvec[0]]) / np.linalg.norm(tvec)
            centroid = m.vertices[m.triangles[m.interface_porous_tri[k]]].mean(axis=0)
            mid = 0.5 * (m.vertices[a] + m.vertices[b])
            if np.dot(n, mid - centroid) < 0:
                n = -n
            assert np.array_equal(n, -m.interface_normals[k])


class TestConstructorInvariants:
    def test_clockwise_triangle_is_reoriented(self):
        m = M.build_rectangle_mesh(1, 2, 1.0)
        tris = m.triangles.copy()
        tris[0] = tris[0][[0, 2, 1]]
        r = M.MixedMesh(m.vertices, tris, m.tri_tags, m.boundary_edges, m.boundary_tags)
        assert np.all(M.triangle_areas(r.vertices, r.triangles) > 0)

    def test_reorientation_leaves_the_callers_array_alone(self):
        m = M.build_rectangle_mesh(1, 2, 1.0)
        tris = m.triangles.copy()
        tris[0] = tris[0][[0, 2, 1]]
        given = tris.copy()
        r = M.MixedMesh(m.vertices, tris, m.tri_tags, m.boundary_edges,
                        m.boundary_tags)
        assert r.triangles is not tris
        assert np.array_equal(tris, given)
        assert np.array_equal(r.triangles, m.triangles)
        assert r.triangles.dtype == np.int64 and r.triangles.flags.c_contiguous

    def test_duplicate_vertices_rejected(self):
        m = M.build_rectangle_mesh(1, 2, 1.0)
        verts = m.vertices.copy()
        verts[1] = verts[0]
        with pytest.raises(M.MeshError, match="duplicate|degenerate"):
            M.MixedMesh(verts, m.triangles, m.tri_tags, m.boundary_edges, m.boundary_tags)

    @pytest.mark.parametrize("unit", [1e-13, 1e-100, 1e150])
    def test_validation_does_not_depend_on_the_units(self, unit):
        m = M.build_rectangle_mesh(1, 2, 1.0)
        r = M.MixedMesh(unit * m.vertices, m.triangles, m.tri_tags,
                        m.boundary_edges, m.boundary_tags)
        assert r.h == pytest.approx(unit * m.h, rel=1e-15)

    @pytest.mark.parametrize("unit", [1e-100, 1.0, 1e150])
    def test_degenerate_triangle_rejected_at_any_unit(self, unit):
        m = M.build_rectangle_mesh(1, 2, 1.0)
        verts = m.vertices.copy()
        verts[3] = (0.5, 0.0)  # triangle 0 1 3 collapses onto a segment
        with pytest.raises(M.MeshError, match="degenerate"):
            M.MixedMesh(unit * verts, m.triangles, m.tri_tags,
                        m.boundary_edges, m.boundary_tags)

    def test_coordinates_beyond_the_float_range_name_the_range(self):
        m = M.build_rectangle_mesh(1, 2, 1.0)
        huge = M.dump_mesh(m).replace("1.0 2.0", "1e300 2.0")

        def scaled(unit):
            return lambda: M.MixedMesh(unit * m.vertices, m.triangles,
                                       m.tri_tags, m.boundary_edges,
                                       m.boundary_tags)
        for build, fault in ((scaled(1e200), "overflows"),
                             (lambda: M.load_mesh(huge), "overflows"),
                             (scaled(1e-160), "underflows")):
            with pytest.raises(M.MeshError, match=fault) as info:
                build()
            assert "duplicate" not in str(info.value)

    def test_boundary_roster_mismatch_rejected(self):
        m = M.build_rectangle_mesh(1, 2, 1.0)
        with pytest.raises(M.MeshError, match="roster"):
            M.MixedMesh(m.vertices, m.triangles, m.tri_tags,
                        m.boundary_edges[:-1], m.boundary_tags[:-1])

    def test_boundary_roster_mismatch_prints_plain_integers(self):
        m = M.build_rectangle_mesh(1, 2, 1.0)
        bedges = m.boundary_edges.copy()
        bedges[0] = (0, 5)
        with pytest.raises(M.MeshError) as exc:
            M.MixedMesh(m.vertices, m.triangles, m.tri_tags, bedges,
                        m.boundary_tags)
        assert str(exc.value) == ("boundary roster mismatch: missing "
                                  "[(0, 1)], extra [(0, 5)]")

    @pytest.mark.parametrize("record", ["0 1 gamma_pd", "1 3 gamma_pn"])
    def test_boundary_vertex_out_of_range_rejected(self, record):
        # with 6 vertices, the pair (0, 9) has the key 0 * 6 + 9 of the real
        # edge (1, 3): unchecked, it would read as a repeat of (1, 3), or
        # pass in place of it
        bad = GOLDEN_DUMP.replace(record, "0 9 " + record.split()[-1])
        with pytest.raises(M.MeshError,
                           match="boundary edge vertex index out of range"):
            M.load_mesh(bad)

    def test_gamma_f_on_porous_side_rejected(self):
        m = M.build_rectangle_mesh(1, 2, 1.0)
        tags = m.boundary_tags.copy()
        tags[tags == M.GAMMA_PD] = M.GAMMA_F
        with pytest.raises(M.MeshError, match="gamma_f|gamma_pd"):
            M.MixedMesh(m.vertices, m.triangles, m.tri_tags, m.boundary_edges, tags)

    def test_empty_gamma_pd_rejected(self):
        m = M.build_rectangle_mesh(1, 2, 1.0)
        tags = m.boundary_tags.copy()
        tags[tags == M.GAMMA_PD] = M.GAMMA_PN
        with pytest.raises(M.MeshError, match="gamma_pd"):
            M.MixedMesh(m.vertices, m.triangles, m.tri_tags, m.boundary_edges, tags)


GOLDEN_DUMP = """nsdarcy-mesh 1
vertices 6
0.0 0.0
1.0 0.0
0.0 1.0
1.0 1.0
0.0 2.0
1.0 2.0
triangles 4
0 1 3 porous
0 3 2 porous
2 3 4 fluid
3 5 4 fluid
boundary_edges 6
0 1 gamma_pd
4 5 gamma_f
0 2 gamma_pn
1 3 gamma_pn
2 4 gamma_f
3 5 gamma_f
"""


class TestCanonicalDump:
    def test_golden_text(self):
        m = M.build_rectangle_mesh(1, 2, 1.0)
        assert M.dump_mesh(m) == GOLDEN_DUMP

    def test_roundtrip_identity(self):
        m = M.refine_uniform(M.build_rectangle_mesh(2, 4, 1.0))
        text = M.dump_mesh(m)
        r = M.load_mesh(text)
        assert M.dump_mesh(r) == text
        assert np.array_equal(r.interface_edges, m.interface_edges)
        assert np.array_equal(r.interface_normals, m.interface_normals)

    def test_bad_header_rejected(self):
        with pytest.raises(M.MeshFormatError, match="header"):
            M.load_mesh("something-else 1\n")

    def test_truncated_block_rejected(self):
        text = "\n".join(GOLDEN_DUMP.splitlines()[:5]) + "\n"
        with pytest.raises(M.MeshFormatError, match="truncated|missing"):
            M.load_mesh(text)

    def test_unknown_tag_rejected(self):
        with pytest.raises(M.MeshFormatError, match="unknown"):
            M.load_mesh(GOLDEN_DUMP.replace("0 1 3 porous", "0 1 3 spam"))


GOLDEN_MSH = """$MeshFormat
2.2 0 8
$EndMeshFormat
$PhysicalNames
6
2 1 "fluid"
2 2 "porous"
1 3 "gamma_f"
1 4 "gamma_pd"
1 5 "gamma_pn"
1 6 "interface"
$EndPhysicalNames
$Nodes
6
1 0 0 0
2 1 0 0
3 0 1 0
4 1 1 0
5 0 2 0
6 1 2 0
$EndNodes
$Elements
11
1 2 2 2 1 1 2 4
2 2 2 2 1 1 4 3
3 2 2 1 1 3 4 5
4 2 2 1 1 4 6 5
5 1 2 4 1 1 2
6 1 2 3 1 5 6
7 1 2 5 1 1 3
8 1 2 5 1 2 4
9 1 2 3 1 3 5
10 1 2 3 1 4 6
11 1 2 6 1 3 4
$EndElements
"""


class TestGmshReader:
    def test_golden_file_matches_builder(self, tmp_path):
        p = tmp_path / "two_domain.msh"
        p.write_text(GOLDEN_MSH)
        g = M.load_gmsh_subset(p)
        b = M.build_rectangle_mesh(1, 2, 1.0)
        assert np.array_equal(g.vertices, b.vertices)

        def tri_set(m):
            return {(frozenset(t), tag) for t, tag in zip(map(tuple, m.triangles), m.tri_tags)}

        def edge_set(m):
            return {(frozenset(e), tag) for e, tag in
                    zip(map(tuple, m.boundary_edges), m.boundary_tags)}

        assert tri_set(g) == tri_set(b)
        assert edge_set(g) == edge_set(b)
        assert np.array_equal(g.interface_edges, b.interface_edges)
        assert np.array_equal(g.interface_normals, b.interface_normals)

    def test_unknown_physical_name(self):
        bad = GOLDEN_MSH.replace('1 5 "gamma_pn"', '1 5 "slippery"')
        with pytest.raises(M.UnknownPhysicalName):
            M.parse_gmsh_subset(bad)

    def test_non_triangle_2d_element(self):
        # swap one triangle for a 4-node quadrilateral (type 3)
        bad = GOLDEN_MSH.replace("1 2 2 2 1 1 2 4", "1 3 2 2 1 1 2 4 3")
        with pytest.raises(M.UnsupportedElement):
            M.parse_gmsh_subset(bad)

    def test_unmatched_interface_edge(self):
        # tag an outer fluid edge as interface in addition to the real one
        bad = GOLDEN_MSH.replace("$Elements\n11\n", "$Elements\n12\n")
        bad = bad.replace("$EndElements", "12 1 2 6 1 5 6\n$EndElements")
        with pytest.raises(M.UnmatchedInterfaceEdge):
            M.parse_gmsh_subset(bad)

    def test_empty_elements_section(self):
        bad = GOLDEN_MSH.split("$Elements")[0] + "$Elements\n0\n$EndElements\n"
        with pytest.raises(M.MeshFormatError):
            M.parse_gmsh_subset(bad)

    def test_wrong_format_version(self):
        bad = GOLDEN_MSH.replace("2.2 0 8", "4.1 0 8")
        with pytest.raises(M.MeshFormatError, match="2.2"):
            M.parse_gmsh_subset(bad)

    def test_off_plane_node_rejected(self):
        bad = GOLDEN_MSH.replace("1 0 0 0", "1 0 0 0.5")
        with pytest.raises(M.MeshFormatError, match="z=0"):
            M.parse_gmsh_subset(bad)

    def test_refined_gmsh_mesh_is_usable(self, tmp_path):
        p = tmp_path / "two_domain.msh"
        p.write_text(GOLDEN_MSH)
        r = M.refine_uniform(M.load_gmsh_subset(p))
        assert r.num_triangles == 16
        assert len(r.interface_edges) == 2

    def test_undeclared_node_is_a_format_error(self):
        # the interface line names node 9, which $Nodes does not declare
        bad = GOLDEN_MSH.replace("11 1 2 6 1 3 4", "11 1 2 6 1 3 9")
        with pytest.raises(M.MeshFormatError, match="11 1 2 6 1 3 9"):
            M.parse_gmsh_subset(bad)

    @pytest.mark.parametrize("records", [1, 4], ids=["one", "all"])
    def test_two_node_triangles_are_a_format_error(self, records):
        # the last node dropped from the first or from every triangle record
        bad = GOLDEN_MSH
        for record in ["1 2 2 2 1 1 2 4", "2 2 2 2 1 1 4 3", "3 2 2 1 1 3 4 5",
                       "4 2 2 1 1 4 6 5"][:records]:
            bad = bad.replace(record, record[:-2])
        with pytest.raises(M.MeshFormatError, match="1 2 2 2 1 1 2'"):
            M.parse_gmsh_subset(bad)

    def test_three_node_line_is_a_format_error(self):
        bad = GOLDEN_MSH.replace("5 1 2 4 1 1 2", "5 1 2 4 1 1 2 3")
        with pytest.raises(M.MeshFormatError, match="5 1 2 4 1 1 2 3"):
            M.parse_gmsh_subset(bad)

    def test_interface_lines_are_optional(self):
        # the interface follows from the subdomain tags alone
        golden = M.parse_gmsh_subset(GOLDEN_MSH)
        untagged = M.parse_gmsh_subset(
            GOLDEN_MSH.replace("11 1 2 6 1 3 4\n", ""))
        assert M.dump_mesh(untagged) == M.dump_mesh(golden)
        assert np.array_equal(untagged.interface_edges, golden.interface_edges)

    def test_unmatched_interface_prints_plain_integers(self):
        # an outer fluid edge tagged interface in place of the real one
        bad = GOLDEN_MSH.replace("11 1 2 6 1 3 4", "11 1 2 6 1 5 6")
        with pytest.raises(M.UnmatchedInterfaceEdge) as exc:
            M.parse_gmsh_subset(bad)
        assert "tagged-only [(4, 5)], derived-only [(2, 3)]" in str(exc.value)

    @pytest.mark.parametrize("record, bad", [
        ("11 1 2 6 1 3 4", "11 1 2 6 1 3 9"),
        ("1 2 2 2 1 1 2 4", "1 2 2 2 1 1 2")], ids=["undeclared", "short"])
    def test_mesh_info_names_the_bad_record(self, tmp_path, capsys, record,
                                            bad):
        path = tmp_path / "bad.msh"
        path.write_text(GOLDEN_MSH.replace(record, bad))
        assert main(["mesh-info", "--mesh", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and repr(bad) in err
        assert "Traceback" not in err

    def test_boundary_edge_with_two_tags_is_rejected(self):
        # edge 1-3 as gamma_pn and again as gamma_pd
        bad = GOLDEN_MSH.replace("7 1 2 5 1 1 3", "7 1 2 5 1 1 3\n12 1 2 4 1 1 3")
        with pytest.raises(M.MeshError, match="more than once"):
            M.parse_gmsh_subset(bad)

    def test_interface_line_listed_twice_is_rejected(self, tmp_path, capsys):
        # interface edge 3-4 listed again, the other way round
        bad = (GOLDEN_MSH.replace("$Elements\n11\n", "$Elements\n12\n")
               .replace("11 1 2 6 1 3 4", "11 1 2 6 1 3 4\n12 1 2 6 1 4 3"))
        with pytest.raises(M.MeshError, match="interface line listed more"):
            M.parse_gmsh_subset(bad)
        path = tmp_path / "dup.msh"
        path.write_text(bad)
        assert main(["mesh-info", "--mesh", str(path)]) == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err


def test_triangles_must_have_three_vertices():
    m = M.build_rectangle_mesh(1, 2, 1.0)
    with pytest.raises(M.MeshError, match=r"\(nt, 3\)"):
        M.MixedMesh(m.vertices, m.triangles[:, :2], m.tri_tags,
                    m.boundary_edges, m.boundary_tags)


# -- fuzzed mesh text --------------------------------------------------------

# replacement tokens: non-numeric, fractional, non-finite, negative,
# undeclared or repeated ids and tags, and an integer beyond int64
_TOKENS = ["x", "", "1.5", "nan", "-1", "0", "1", "3", "9", "40",
           "99999999999999999999"]


def _records(text, sections):
    """The lines of ``text``, and the indices of the records inside the
    named ``$`` sections (all lines when ``sections`` is None)."""
    lines, inside, records = text.splitlines(), None, []
    for i, line in enumerate(lines):
        if sections is not None and line.startswith("$"):
            inside = None if line.startswith("$End") else line[1:]
        elif sections is None or inside in sections:
            records.append(i)
    return lines, records


@st.composite
def mutated(draw, text, sections=None):
    """``text`` with one to three records mutated: a token dropped,
    repeated or replaced, or the whole record dropped or repeated."""
    lines, records = _records(text, sections)
    rows = [[line] for line in lines]
    for _ in range(draw(st.integers(1, 3))):
        row = rows[draw(st.sampled_from(records))]
        if not row:
            continue
        tokens = row[0].split() or [""]
        k = draw(st.integers(0, len(tokens) - 1))
        op = draw(st.sampled_from(["drop", "repeat", "replace",
                                   "drop record", "repeat record"]))
        if op == "drop record":
            row.clear()
        elif op == "repeat record":
            row.append(row[0])
        else:
            tokens[k:k + 1] = {"drop": [], "repeat": [tokens[k]] * 2,
                               "replace": [draw(st.sampled_from(_TOKENS))]}[op]
            row[0] = " ".join(tokens)
    return "\n".join(line for row in rows for line in row) + "\n"


def _mesh_or_mesh_error(parse, text):
    try:
        assert isinstance(parse(text), M.MixedMesh)
    except M.MeshError:
        pass


@given(mutated(GOLDEN_MSH, ("PhysicalNames", "Nodes", "Elements")))
def test_fuzzed_gmsh_text_gives_a_mesh_or_a_mesh_error(text):
    _mesh_or_mesh_error(M.parse_gmsh_subset, text)


@given(mutated(M.dump_mesh(M.build_rectangle_mesh(2, 4, 1.0))))
def test_fuzzed_dump_text_gives_a_mesh_or_a_mesh_error(text):
    _mesh_or_mesh_error(M.load_mesh, text)


# -- round trips of generated meshes ---------------------------------------

def _msh_text(m):
    """``m`` as MSH 2.2 text: nodes numbered from 1 in vertex order,
    physical ids 1 and 2 for the subdomains (the triangle tags), 3, 4 and 5
    for the boundary tags (2 + the tag) and 6 for the interface lines."""
    names = [(2, M.TRI_TAG_NAMES[M.FLUID]), (2, M.TRI_TAG_NAMES[M.POROUS])]
    names += [(1, M.EDGE_TAG_NAMES[t]) for t in (M.GAMMA_F, M.GAMMA_PD,
                                                 M.GAMMA_PN)]
    names.append((1, "interface"))
    elements = [(2, tag, tri) for tri, tag in zip(m.triangles, m.tri_tags)]
    elements += [(1, 2 + tag, e) for e, tag in zip(m.boundary_edges,
                                                  m.boundary_tags)]
    elements += [(1, 6, e) for e in m.interface_edges]
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat",
             "$PhysicalNames", str(len(names))]
    lines += [f'{dim} {pid} "{name}"'
              for pid, (dim, name) in enumerate(names, 1)]
    lines += ["$EndPhysicalNames", "$Nodes", str(m.num_vertices)]
    lines += [f"{i} {float(x)!r} {float(y)!r} 0"
              for i, (x, y) in enumerate(m.vertices, 1)]
    lines += ["$EndNodes", "$Elements", str(len(elements))]
    lines += [f"{k} {etype} 2 {pid} 1 " + " ".join(str(v + 1) for v in nodes)
              for k, (etype, pid, nodes) in enumerate(elements, 1)]
    lines.append("$EndElements")
    return "\n".join(lines) + "\n"


def _assert_same_mesh(a, b):
    assert a.vertices.shape == b.vertices.shape
    assert a.vertices.tobytes() == b.vertices.tobytes()  # bitwise
    for name in ("triangles", "tri_tags", "boundary_edges", "boundary_tags",
                 "interface_edges", "interface_normals"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


_INTERFACES = st.sampled_from(["flat", "wavy", "sheared", "polygonal"])


def _generated(interface_maps, nx, ny, interface):
    m = M.build_rectangle_mesh(nx, 2 * ny, 1.0)
    return m if interface == "flat" else interface_maps[interface](m)


@given(nx=st.integers(1, 4), ny=st.integers(1, 3), interface=_INTERFACES,
       refined=st.booleans())
def test_generated_meshes_survive_both_text_formats(interface_maps, nx, ny,
                                                    interface, refined):
    m = _generated(interface_maps, nx, ny, interface)
    if refined:
        m = M.refine_uniform(m)
    _assert_same_mesh(M.load_mesh(M.dump_mesh(m)), m)
    _assert_same_mesh(M.parse_gmsh_subset(_msh_text(m)), m)


# -- the edge table -----------------------------------------------------------

@given(nx=st.integers(1, 4), ny=st.integers(1, 3), interface=_INTERFACES,
       data=st.data())
def test_edge_table_is_lexicographic_whatever_the_triangle_order(
        interface_maps, nx, ny, interface, data):
    m = _generated(interface_maps, nx, ny, interface)
    nt = m.num_triangles
    order = np.array(data.draw(st.permutations(range(nt))))
    turns = np.array(data.draw(st.lists(st.integers(0, 2), min_size=nt,
                                        max_size=nt)))
    rotated = m.triangles[order][np.arange(nt)[:, None],
                                 (np.arange(3) + turns[:, None]) % 3]
    p = M.MixedMesh(m.vertices, rotated, m.tri_tags[order],
                    m.boundary_edges, m.boundary_tags)
    assert np.array_equal(p.edges, m.edges)
    sides = {tuple(sorted(pair)) for a, b, c in rotated.tolist()
             for pair in ((a, b), (b, c), (c, a))}
    assert p.edges.tolist() == [list(pair) for pair in sorted(sides)]
    for k in range(3):
        others = np.sort(np.delete(p.triangles, k, axis=1), axis=1)
        assert np.array_equal(p.edges[p.tri_to_edge[:, k]], others)
    ids = np.arange(len(p.edges))
    assert np.array_equal(p.edge_ids(p.edges), ids)
    assert np.array_equal(p.edge_ids(p.edges[:, ::-1]), ids)
