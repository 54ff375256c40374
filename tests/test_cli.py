import subprocess
import sys

import pytest

from graphcanon import cg_dumps, gen_family, platonic_rotation_system, rs_dumps
from graphcanon.formats import graph6_dumps

from .conftest import complete_graph, path_graph


def run_cli(*argv, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "graphcanon", *argv],
        capture_output=True,
        timeout=300,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr.decode()}")
    return proc


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {}

    def put(name, text):
        p = root / name
        p.write_text(text)
        paths[name] = str(p)

    put("k1.cg", cg_dumps(path_graph(1)))
    put("p3.cg", cg_dumps(path_graph(3)))
    put("p7.cg", cg_dumps(path_graph(7)))
    put("k3.cg", cg_dumps(complete_graph(3)))
    put("c4.cg", cg_dumps(gen_family("cycle", n=4)))
    put("tree9.cg", cg_dumps(gen_family("tree", n=9, seed=21)))
    put("k4.cg", cg_dumps(gen_family("platonic", name="k4")))
    put("k4.rs", rs_dumps(platonic_rotation_system("k4")))
    put("big.cg", cg_dumps(path_graph(11)))
    put("p3.g6", graph6_dumps(path_graph(3)) + "\n")

    from graphcanon import Labeling, apply_permutation

    tree = gen_family("tree", n=9, seed=21)
    put("tree9b.cg", cg_dumps(apply_permutation(tree, Labeling([3, 1, 4, 2, 9, 5, 8, 7, 6]))))
    paths["root"] = str(root)
    return paths


class TestCanon:
    def test_p3_separator_bf_midpoint_first(self, files):
        proc = run_cli(
            "canon", "--input", files["p3.cg"], "--method", "separator",
            "--invariant", "bf", "--r", "1", check=True,
        )
        out = proc.stdout.decode()
        assert "2 -> 1" in out.splitlines()
        assert "cg 1" in out

    def test_graph6_input(self, files):
        proc = run_cli(
            "canon", "--input", files["p3.g6"], "--format", "graph6",
            "--invariant", "bf", check=True,
        )
        assert "2 -> 1" in proc.stdout.decode().splitlines()

    def test_rigidity_method_relabeling_invariant_output(self, files, tmp_path):
        from graphcanon import Labeling, apply_permutation

        base = run_cli(
            "canon", "--input", files["c4.cg"], "--method", "rigidity",
            "--invariant", "bf", "--r", "2", check=True,
        ).stdout
        relabeled = apply_permutation(gen_family("cycle", n=4), Labeling([3, 1, 4, 2]))
        other = tmp_path / "c4b.cg"
        other.write_text(cg_dumps(relabeled))
        moved = run_cli(
            "canon", "--input", str(other), "--method", "rigidity",
            "--invariant", "bf", "--r", "2", check=True,
        ).stdout
        assert base.split(b"cg 1")[1] == moved.split(b"cg 1")[1]

    def test_bf_method_is_oracle_passthrough(self, files):
        proc = run_cli("canon", "--input", files["c4.cg"], "--method", "bf", check=True)
        from graphcanon import apply_permutation, cg_loads, encode, minimum_encoding

        g = gen_family("cycle", n=4)
        code, labeling = minimum_encoding(g)
        body = "cg 1" + proc.stdout.decode().split("cg 1")[1]
        assert encode(cg_loads(body)) == code

    def test_capacity_exit_code(self, files):
        proc = run_cli("canon", "--input", files["big.cg"], "--invariant", "bf")
        assert proc.returncode == 3

    def test_oracle_cap_env_var(self, files):
        import os

        env = dict(os.environ, GRAPHCANON_ORACLE_CAP="11")
        proc = subprocess.run(
            [sys.executable, "-m", "graphcanon", "canon", "--input", files["big.cg"],
             "--invariant", "bf"],
            capture_output=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cg"
        bad.write_text("cg 1\nn 2\ne 2 1\n")
        proc = run_cli("canon", "--input", str(bad))
        assert proc.returncode == 2

    def test_usage_error_exit_code(self):
        proc = run_cli("canon")
        assert proc.returncode == 2

    @pytest.mark.parametrize("method,r", [("separator", "0"), ("rigidity", "-1")])
    def test_bad_r_is_a_usage_error(self, files, method, r):
        proc = run_cli("canon", "--input", files["p3.cg"], "--method", method, "--r", r)
        assert proc.returncode == 2
        assert proc.stdout == b""

    def test_missing_input_exit_code(self, files):
        proc = run_cli("canon", "--input", files["root"] + "/missing.cg")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: ")


class TestIso:
    def test_isomorphic_trees_exit_zero(self, files):
        proc = run_cli(
            "iso", files["tree9.cg"], files["tree9b.cg"], "--invariant", "wl1",
            "--r", "1",
        )
        assert proc.returncode == 0
        assert b"->" in proc.stdout

    def test_non_isomorphic_exit_one(self, files):
        proc = run_cli("iso", files["p3.cg"], files["k3.cg"], "--invariant", "bf")
        assert proc.returncode == 1
        assert proc.stdout == b"non-isomorphic\n"

    def test_self_iso(self, files):
        proc = run_cli("iso", files["k3.cg"], files["k3.cg"], "--invariant", "bf")
        assert proc.returncode == 0

    def test_r_zero_is_a_usage_error(self, files):
        # exit 1 would read as "non-isomorphic" on identical inputs
        proc = run_cli("iso", files["k3.cg"], files["k3.cg"], "--r", "0")
        assert proc.returncode == 2
        assert proc.stdout == b""

    def test_missing_input_is_not_a_negative_verdict(self, files):
        proc = run_cli("iso", files["k3.cg"], files["root"] + "/missing.cg")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: ")

    def test_wl1_blind_pair_still_verified_negative(self, tmp_path):
        # WL-1 cannot tell C6 from two triangles, but their root certificates
        # differ: exit 1
        c6 = tmp_path / "c6.cg"
        c6.write_text(cg_dumps(gen_family("cycle", n=6)))
        from graphcanon import ColoredGraph

        tt = tmp_path / "tt.cg"
        tt.write_text(
            cg_dumps(ColoredGraph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]))
        )
        proc = run_cli(
            "iso", str(c6), str(tt), "--invariant", "wl1", "--r", "2", "--check"
        )
        assert proc.returncode == 1
        assert proc.stdout == b"non-isomorphic\n"

    def test_no_separator_pair_is_isomorphic(self, tmp_path):
        # no 2-set separates this graph; the scope is ordered by its minimum
        # encoding, so the relabeled copy gets the same form
        from graphcanon import ColoredGraph, Labeling, apply_permutation

        g = ColoredGraph(
            6, [(1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 4), (3, 6), (4, 5), (5, 6)]
        )
        a = tmp_path / "a.cg"
        a.write_text(cg_dumps(g))
        b = tmp_path / "b.cg"
        b.write_text(cg_dumps(apply_permutation(g, Labeling([1, 2, 3, 4, 6, 5]))))
        proc = run_cli("iso", str(a), str(b), "--invariant", "wl1", "--r", "2")
        assert proc.returncode == 0


class TestReadouts:
    def test_rigidity_k4(self, files):
        proc = run_cli("rigidity", "--input", files["k4.cg"], check=True)
        assert proc.stdout == b"rig = 3\nwitness: 1 2 3\n"

    def test_aut_order(self, files):
        proc = run_cli("aut", "--input", files["p3.cg"], check=True)
        lines = proc.stdout.decode().splitlines()
        assert lines[0] == "order = 2"
        assert lines[1:] == ["1 2 3", "3 2 1"]

    def test_orbits(self, files):
        proc = run_cli("orbits", "--input", files["p3.cg"], check=True)
        assert proc.stdout == b"orbit: 1 3\norbit: 2\n"

    def test_embed_faces(self, files):
        proc = run_cli("embed", "faces", "--input", files["k4.rs"], check=True)
        out = proc.stdout.decode()
        assert out.count("face:") == 4
        assert "faces = 4" in out
        assert "genus = 0" in out

    def test_embed_genus_polyhedral(self, files):
        assert run_cli("embed", "genus", "--input", files["k4.rs"], check=True).stdout == b"genus = 0\n"
        assert (
            run_cli("embed", "polyhedral", "--input", files["k4.rs"], check=True).stdout
            == b"polyhedral = true\n"
        )

    def test_embed_fixing_triple(self, files):
        proc = run_cli("embed", "fixing-triple", "--input", files["k4.rs"], check=True)
        assert proc.stdout == b"triple: 1 2 3\nverified = true\n"

    def test_embed_fixing_set(self, files):
        proc = run_cli(
            "embed", "fixing-set", "--input", files["k4.cg"], "--genus", "0", check=True
        )
        out = proc.stdout.decode()
        assert "systems = 2" in out
        assert "fixing-set:" in out

    def test_embed_fixing_set_one_vertex(self, files):
        # no edge, no non-trivial automorphism: the empty set, printed as -
        proc = run_cli("embed", "fixing-set", "--input", files["k1.cg"], "--genus", "0")
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == b"systems = 1\nfixing-set: -\n"

    def test_embed_fixing_set_no_polyhedral(self, files):
        proc = run_cli("embed", "fixing-set", "--input", files["c4.cg"], "--genus", "0")
        assert proc.returncode == 1


class TestGen:
    def test_deterministic_stdout(self):
        a = run_cli("gen", "--family", "k_tree", "--n", "8", "--k", "2", "--seed", "4", check=True)
        b = run_cli("gen", "--family", "k_tree", "--n", "8", "--k", "2", "--seed", "4", check=True)
        assert a.stdout == b.stdout

    def test_unwritable_out_exit_code(self, tmp_path):
        out = tmp_path / "no" / "g.cg"
        proc = run_cli("gen", "--family", "tree", "--n", "6", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: ")

    @pytest.mark.parametrize("p", ["2", "-1", "nan"])
    def test_probability_outside_unit_interval_exit_code(self, p):
        proc = run_cli("gen", "--family", "random_gnp", "--n", "6", "--p", p)
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: ")

    def test_manifest_append(self, tmp_path):
        out = tmp_path / "g.cg"
        manifest = tmp_path / "corpus.txt"
        run_cli(
            "gen", "--family", "tree", "--n", "6", "--seed", "3",
            "--out", str(out), "--manifest", str(manifest), check=True,
        )
        from graphcanon import parse_manifest_line

        family, params, seed, path = parse_manifest_line(manifest.read_text())
        assert (family, seed, path) == ("tree", 3, str(out))
        assert params == {"n": "6"}

    def test_platonic_rotation_out(self, tmp_path):
        rs_path = tmp_path / "cube.rs"
        run_cli(
            "gen", "--family", "platonic", "--name", "cube",
            "--out", str(tmp_path / "cube.cg"), "--rotation-out", str(rs_path),
            check=True,
        )
        from graphcanon import euler_genus, rs_loads

        assert euler_genus(rs_loads(rs_path.read_bytes())) == 0


class TestBench:
    def test_schema_and_depth_column(self):
        proc = run_cli(
            "bench", "--family", "k_tree", "--n", "12", "--k", "2", "--trials", "3",
            "--method", "separator", "--invariant", "wl1", "--r", "3", check=True,
        )
        lines = proc.stdout.decode().splitlines()
        assert lines[0] == (
            "family,n,seed,method,invariant,depth,invariant_calls,wall_ms,workers,diagnostics"
        )
        assert len(lines) == 4
        for row in lines[1:]:
            fields = row.split(",")
            assert fields[0] == "k_tree"
            assert int(fields[5]) <= 5  # ceil(log2 12) + 1
            assert fields[9] == "-"

    def test_bad_r_is_a_usage_error(self):
        proc = run_cli(
            "bench", "--family", "tree", "--n", "9", "--method", "separator", "--r", "0"
        )
        assert proc.returncode == 2
        assert proc.stdout == b""

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_is_a_usage_error(self, trials):
        proc = run_cli(
            "bench", "--family", "tree", "--n", "9", "--method", "separator",
            "--trials", trials,
        )
        assert proc.returncode == 2
        assert proc.stdout == b""

    @pytest.mark.parametrize(
        "family_args",
        [["--family", "random_gnp", "--n", "6", "--p", "1.5"], ["--family", "tree"]],
        ids=["p-above-one", "tree-without-n"],
    )
    def test_bad_family_parameters_write_no_header(self, family_args):
        proc = run_cli("bench", *family_args, "--method", "separator")
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: ")

    def test_stable_columns_across_workers(self):
        rows = []
        for workers in ("1", "4"):
            proc = run_cli(
                "bench", "--family", "tree", "--n", "9", "--trials", "2",
                "--method", "separator", "--invariant", "wl1", "--r", "1",
                "--workers", workers, check=True,
            )
            body = [r.split(",") for r in proc.stdout.decode().splitlines()[1:]]
            rows.append([r[:7] + r[9:] for r in body])  # drop wall_ms and workers
        assert rows[0] == rows[1]
