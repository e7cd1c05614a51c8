import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dataclasses import replace

import gridperc.bounds
from gridperc.cli import main
from gridperc.families import builtin_patterns, save_patterns
from gridperc.gridtext import parse_set, write_set
from gridperc.grid import CellSet, GridDims

from oracle import verify_all

DIAMOND_TEXT = "X.X\n.X.\nX.X\n"


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_bound_human(capsys):
    code, out = run_cli(capsys, "bound", "4", "6", "9")
    assert code == 0
    assert "38" in out and "perfect possible" in out


def test_bound_machine(capsys):
    code, out = run_cli(capsys, "--machine", "bound", "2", "3", "4")
    record = json.loads(out)
    assert code == 0
    assert record["exact"] == "26/3"
    assert record["ceil"] == 9
    assert record["perfect_possible"] is False


def test_verify_perfect_seed_file(tmp_path, capsys):
    path = tmp_path / "diamond.txt"
    path.write_text(DIAMOND_TEXT)
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "Perfect" in out


def test_verify_nonpercolating_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("X..\n...\n...\n")
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "NotPercolating" in out


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "ragged.txt"
    path.write_text("X..\n..\n")
    code = main(["verify", str(path)])
    assert code == 2


def test_simulate_trace_output(tmp_path, capsys):
    path = tmp_path / "diamond.txt"
    path.write_text(DIAMOND_TEXT)
    code, out = run_cli(capsys, "simulate", str(path), "--trace")
    assert code == 0
    assert "percolated" in out
    assert "X1X" in out


def test_render(tmp_path, capsys):
    path = tmp_path / "diamond.txt"
    path.write_text(DIAMOND_TEXT)
    code, out = run_cli(capsys, "render", str(path))
    assert code == 0
    assert out == "X1X\n1X1\nX1X\n"


def test_build_writes_verifiable_witness(tmp_path, capsys):
    out_path = tmp_path / "w.txt"
    code, _ = run_cli(capsys, "build", "perfect", "4", "6", "6", "-o", str(out_path))
    assert code == 0
    dims, seeds = parse_set(out_path.read_text())
    assert dims == GridDims(4, 6, 6)
    assert len(seeds) == 28
    code, out = run_cli(capsys, "verify", str(out_path))
    assert code == 0 and "Perfect" in out


def test_build_dependency_error_exit(capsys):
    code = main(["build", "perfect", "3", "15", "15"])
    assert code == 1


def test_build_bad_catalog_exit(tmp_path, capsys):
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("wat\n")
    code = main(["build", "perfect", "1", "3", "3", "--catalog", str(catalog)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: expected 'entry'")


@pytest.mark.parametrize("argv", [
    ["verify", "{m}"],
    ["build", "perfect", "3", "3", "3", "--catalog", "{m}"],
    ["family", "list", "--patterns", "{m}"],
])
def test_missing_files_are_usage_errors(tmp_path, capsys, argv):
    missing = tmp_path / "missing.txt"
    assert main([arg.format(m=missing) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_search_exhaustive(capsys):
    code, out = run_cli(capsys, "--machine", "search", "exhaustive", "2", "2", "3")
    record = json.loads(out.splitlines()[0])
    assert code == 0
    assert record["min_size"] == 6


def test_search_atbound_failure_exit(capsys):
    # impossible target: (1,1,4) has no 4-cell-minus-one percolating set;
    # budget exhausts quickly
    code = main(["search", "atbound", "2", "5", "5", "--budget", "3", "--rng-seed", "1"])
    assert code == 1


def test_family_assemble(tmp_path, capsys):
    out_path = tmp_path / "fam.txt"
    code, out = run_cli(capsys, "family", "assemble", "2x5", "11", "-o", str(out_path))
    assert code == 0
    dims, seeds = parse_set(out_path.read_text())
    assert dims == GridDims(2, 5, 11)
    assert len(seeds) == 29


def test_family_usage_error(capsys):
    assert main(["family", "assemble"]) == 2
    assert main(["family", "discover", "9x9"]) == 2
    assert main(["family", "assemble", "9x9", "11"]) == 2
    assert main(["family", "assemble", "2x5", "6"]) == 2


def test_combine_cli(tmp_path, capsys):
    from gridperc.pipelines import Builder

    builder = Builder()
    p1 = tmp_path / "p1.txt"
    p2 = tmp_path / "p2.txt"
    p1.write_text(DIAMOND_TEXT)
    p2.write_text(write_set(builder.perfect(GridDims(3, 3, 3)).seeds))
    out_path = tmp_path / "combined.txt"
    code, out = run_cli(
        capsys, "combine", str(p1), str(p2), str(p2), str(p1), "-o", str(out_path)
    )
    assert code == 0
    dims, seeds = parse_set(out_path.read_text())
    assert dims == GridDims(4, 6, 6)
    assert len(seeds) == 28


def test_search_emits_catalog_records(tmp_path, capsys):
    from gridperc.catalog import Catalog

    cat_path = tmp_path / "cat.txt"
    code, _ = run_cli(capsys, "search", "atbound", "3", "3", "3",
                      "--rng-seed", "2", "--catalog-out", str(cat_path),
                      "-o", str(tmp_path / "w.txt"))
    assert code == 0
    code, _ = run_cli(capsys, "search", "exhaustive", "2", "2", "3",
                      "--catalog-out", str(cat_path), "-o", str(tmp_path / "w2.txt"))
    assert code == 0
    cat = Catalog.load(cat_path)
    assert set(cat.entries) == {"3x3x3:perfect", "2x2x3:optimal"}
    verify_all(cat)


def test_search_catalogues_only_three_neighbour_witnesses(tmp_path, capsys):
    # 9 seeds percolate 3x3x3 at r = 2 but not at r = 3, which the catalog holds
    cat_path = tmp_path / "cat.txt"
    code = main(["search", "atbound", "3", "3", "3", "--r", "2", "--target", "9",
                 "--catalog-out", str(cat_path), "-o", str(tmp_path / "w.txt")])
    assert code == 0
    assert "not recorded in the catalog" in capsys.readouterr().err
    assert not cat_path.exists()


def test_machine_output_deterministic(capsys):
    argv = ["--machine", "search", "atbound", "3", "3", "3", "--rng-seed", "9"]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert (code1, out1) == (code2, out2)


def test_console_script_entrypoint():
    # byte-identical repeated runs through the real process boundary
    cmd = [sys.executable, "-m", "gridperc.cli", "--machine", "bound", "7", "7", "11"]
    runs = [subprocess.run(cmd, capture_output=True, timeout=60) for _ in range(2)]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_package_imports_without_the_pattern_store(tmp_path):
    # the store regeneration script must start with no store on disk
    package = tmp_path / "gridperc"
    shutil.copytree(Path(gridperc.bounds.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    (package / "data" / "families.txt").unlink()
    cmd = [sys.executable, "-c", "import gridperc, gridperc.cli"]
    run = subprocess.run(cmd, capture_output=True, timeout=60, cwd=tmp_path,
                         env={"PYTHONPATH": str(tmp_path)})
    assert run.returncode == 0, run.stderr.decode()


def test_family_list_reads_the_given_store(tmp_path, capsys):
    store = tmp_path / "families.txt"
    copy = replace(builtin_patterns()["2x5"], family_id="2x5copy")
    save_patterns({"2x5copy": copy}, store)
    code, out = run_cli(capsys, "--machine", "family", "list", "--patterns", str(store))
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["id"] for r in records] == ["2x5copy"]
    assert records[0]["section"] == "2x5" and records[0]["min_c"] == 5


@pytest.mark.parametrize("argv", [
    ["build", "perfect", "4", "6", "6", "--max-steps", "1"],
    ["verify", "{d}", "--out", "{x}"],
    ["combine", "{d}", "{p}", "{p}", "{d}", "--r", "2"],
])
def test_unread_flags_are_usage_errors(tmp_path, capsys, argv):
    # each command takes only the flags it reads
    diamond, part = tmp_path / "d.txt", tmp_path / "p.txt"
    diamond.write_text(DIAMOND_TEXT)
    part.write_text(write_set(CellSet.full(GridDims(3, 3, 3))))
    paths = {"d": diamond, "p": part, "x": tmp_path / "x.txt"}
    code = main([arg.format(**paths) for arg in argv])
    assert code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not paths["x"].exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "{d}", "--r", "3", "--max-steps", "5", "--trace"],
    ["verify", "{d}", "--r", "3", "--max-steps", "5"],
    ["render", "{d}", "--r", "3", "--max-steps", "5"],
    ["search", "exhaustive", "1", "3", "3", "--r", "3", "-o", "{x}"],
    ["build", "perfect", "3", "3", "3", "--out", "{x}"],
])
def test_read_flags_still_parse(tmp_path, capsys, argv):
    diamond = tmp_path / "d.txt"
    diamond.write_text(DIAMOND_TEXT)
    paths = {"d": diamond, "x": tmp_path / "x.txt"}
    assert main([arg.format(**paths) for arg in argv]) == 0
    assert paths["x"].exists() == ("{x}" in argv)


@pytest.mark.parametrize("text", [DIAMOND_TEXT, "X..\n...\n...\n", "X.X\n...\nX..\n\n.X.\nX..\n..X\n"])
@pytest.mark.parametrize("argv", [["simulate", "FILE", "--trace"], ["render", "FILE"], ["--machine", "render", "FILE"]])
def test_traced_commands_simulate_once(tmp_path, capsys, monkeypatch, text, argv):
    # the status is read off the printed trace: the untraced kernel never runs
    path = tmp_path / "seeds.txt"
    path.write_text(text)
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    want = run_cli(capsys, *argv)

    def refuse(*args, **kwargs):
        raise AssertionError("fixed_point_mask called")

    monkeypatch.setattr(gridperc.bounds, "fixed_point_mask", refuse)
    assert run_cli(capsys, *argv) == want


def test_build_simulates_the_witness_once(capsys, monkeypatch):
    # the Builder verifies the witness at its status; the command reprints it
    dims = GridDims(9, 10, 11)
    calls = []
    kernel = gridperc.bounds.fixed_point_mask

    def counting(grid, *args, **kwargs):
        calls.append(grid)
        return kernel(grid, *args, **kwargs)

    monkeypatch.setattr(gridperc.bounds, "fixed_point_mask", counting)
    code, out = run_cli(capsys, "build", "optimal", "9", "10", "11")
    assert code == 0 and out.startswith(f"built {dims}: size ")
    assert calls.count(dims) == 1
