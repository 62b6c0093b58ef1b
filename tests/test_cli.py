import json
import re
import time

import pytest

from ldt.cli import main


@pytest.fixture()
def ksum_file(tmp_path):
    p = tmp_path / "inst.txt"
    p.write_text("5 -1 -4 7 2 9\n")
    return str(p)


def test_solve_human_output(ksum_file, capsys):
    assert main(["solve", "ksum", "--input", ksum_file, "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "answer: True" in out
    assert "queries:" in out


def test_solve_json_schema(ksum_file, capsys):
    assert main(["solve", "ksum", "--input", ksum_file, "--k", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["answer"] is True
    assert payload["problem"] == "ksum"
    assert payload["queries"]["total"] == (
        payload["queries"]["label"] + payload["queries"]["comparison"]
    )
    assert "wall_time_ms" in payload


def test_solve_json_reproducible_modulo_walltime(ksum_file, capsys):
    outs = []
    for _ in range(3):
        assert main(
            ["solve", "ksum", "--input", ksum_file, "--k", "3", "--json", "--seed", "4"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        del payload["wall_time_ms"]
        outs.append(json.dumps(payload, sort_keys=True))
    assert outs[0] == outs[1] == outs[2]


def test_solve_json_of_an_empty_family_is_pinned(tmp_path, capsys):
    # a graph with no triangle encodes to no hyperplanes: nothing is
    # queried, and the answer is False
    p = tmp_path / "tri.txt"
    p.write_text("3\n1 2 5\n2 3 -5\n")
    assert main(["solve", "triangles", "--input", str(p), "--json"]) == 0
    out = capsys.readouterr().out
    wall = re.search(r'"wall_time_ms": ([^,}]+)', out)
    assert float(wall.group(1)) >= 0
    assert out[: wall.start(1)] + "W" + out[wall.end(1) :] == (
        '{"answer": false, "command": "solve", "d_estimate": 0, "dim": 2,'
        ' "family_size": 0, "final_labels": 0, "parameters":'
        ' {"sample_constant": "2", "seed": 0, "strict_comparison": false},'
        ' "problem": "triangles", "queries": {"comparison": 0, "label": 0,'
        ' "total": 0}, "rounds": [], "sample_target": 0, "schema": 1,'
        ' "wall_time_ms": W}\n'
    )


def test_solve_sortab_groups(tmp_path, capsys):
    p = tmp_path / "ab.txt"
    p.write_text("0 1\n0 2\n")
    assert main(["solve", "sortab", "--input", str(p), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["answer"] == [[[1, 1]], [[2, 1]], [[1, 2]], [[2, 2]]]


def test_solve_strict_comparison_mode(ksum_file, capsys):
    assert main(
        ["solve", "ksum", "--input", ksum_file, "--k", "3", "--strict-comparison"]
    ) == 0
    assert "answer: True" in capsys.readouterr().out


def test_solve_writes_query_log(ksum_file, tmp_path, capsys):
    log = tmp_path / "q.jsonl"
    assert main(
        ["solve", "ksum", "--input", ksum_file, "--k", "3", "--log-queries", str(log)]
    ) == 0
    capsys.readouterr()
    lines = log.read_text().strip().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert first["kind"] in ("label", "cmp")


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("one two three\n")
    assert main(["solve", "ksum", "--input", str(p), "--k", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["solve", "ksum", "--input", "/nonexistent/x.txt", "--k", "3"]) == 2


def test_cap_exit_code(tmp_path, capsys):
    p = tmp_path / "big.txt"
    p.write_text(" ".join(["1"] * 20) + "\n")
    assert main(["solve", "subsetsum", "--input", str(p)]) == 3
    assert "refused:" in capsys.readouterr().err


def test_ksum_cap_exit_code(tmp_path, capsys):
    p = tmp_path / "big.txt"
    p.write_text(" ".join(str(v) for v in range(80)) + "\n")
    assert main(["solve", "ksum", "--input", str(p), "--k", "3"]) == 3
    assert "refused:" in capsys.readouterr().err


def test_entry_cap_exit_code(tmp_path, capsys):
    # 3000 values pass the 1-subset row cap, and 3000 x 3000 entries do not
    p = tmp_path / "wide.txt"
    p.write_text(" ".join(str(v) for v in range(3000)) + "\n")
    assert main(["solve", "ksum", "--input", str(p), "--k", "1"]) == 3
    assert "exceeds cap" in capsys.readouterr().err


def test_triangle_files_are_refused_or_solved_by_their_triangle_count(tmp_path, capsys):
    # K_60 has 34,220 triangles over 1,770 edges, past the entry cap; a
    # graph of 100,000 vertices and no edge has none and solves at once
    p = tmp_path / "k60.txt"
    p.write_text("60\n" + "".join(f"{u} {v} 1\n" for u in range(1, 61) for v in range(u + 1, 61)))
    assert main(["solve", "triangles", "--input", str(p)]) == 3
    assert "34220 x 1770" in capsys.readouterr().err
    p = tmp_path / "edgeless.txt"
    p.write_text("100000\n")
    start = time.perf_counter()
    assert main(["solve", "triangles", "--input", str(p), "--json"]) == 0
    assert time.perf_counter() - start < 1.0
    out = json.loads(capsys.readouterr().out)
    assert out["answer"] is False and out["family_size"] == 0


def test_kldt_k_mismatch(tmp_path, capsys):
    p = tmp_path / "l.txt"
    p.write_text("-3 1 1\n1 2 5\n")
    assert main(["solve", "kldt", "--input", str(p), "--k", "5"]) == 2


def test_ksum_without_k_exit_code(ksum_file, capsys):
    # a missing subset size is bad input (exit 2), not a failed lab check (1)
    assert main(["solve", "ksum", "--input", ksum_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--k" in err


def test_lab_bad_parameter_exit_code(capsys):
    # --d beyond the family size is bad input, not a crash
    assert main(["lab", "infdim", "--dim", "2", "--count", "3", "--d", "4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bench_csv(capsys):
    assert main(["bench", "ksum", "--sizes", "8", "--trials", "4", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("size,trial,planted,answer")
    assert len(lines) == 5
    for row in lines[1:]:
        cells = row.split(",")
        assert len(cells) == 8
        assert cells[-1] == "1"  # all decisions correct


def test_bench_reproducible(capsys):
    runs = []
    for _ in range(2):
        assert main(["bench", "subsetsum", "--sizes", "8", "--trials", "3"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_lab_cells_record(capsys):
    assert main(["lab", "cells", "--dim", "2", "--count", "4", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(ln) for ln in lines]
    assert {r["check"] for r in records} == {"cells", "orderings"}
    assert all(r["pass"] for r in records)
    assert all(r["observed"] <= r["bound"] for r in records)


def test_lab_infdim_record(capsys):
    assert main(
        ["lab", "infdim", "--dim", "2", "--count", "4", "--d", "3", "--seed", "1"]
    ) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["check"] == "infdim"
    assert record["pass"] is True
    assert record["observed"] <= record["bound"]


def test_lab_collision_record(capsys):
    assert main(["lab", "collision", "--n", "2", "--w", "1", "--m", "8"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["check"] == "collision"
    assert record["pass"] is True


def test_lab_crosscheck_record(capsys):
    assert main(["lab", "crosscheck-lp", "--trials", "40", "--cells", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(ln) for ln in lines]
    assert len(records) == 2
    assert all(r["pass"] for r in records)

