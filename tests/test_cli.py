import json
import math
import sys
import time

import pytest

from oplab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_check_identity_commutative(capsys):
    code, payload = run_json(
        capsys,
        "check-identity",
        "--poly",
        "x1*x2-x2*x1",
        "--algebra",
        '{"type":"matrix","k":1}',
    )
    assert code == 0
    assert payload["result"] == {"identity": True}
    assert payload["command"] == "check-identity"
    assert payload["version"]


def test_check_identity_general_poly(capsys):
    code, payload = run_json(
        capsys,
        "check-identity",
        "--poly",
        "x1^2*x2 - x2*x1^2",
        "--algebra",
        '{"type":"matrix","k":1}',
    )
    assert code == 0
    assert payload["result"] == {"identity": True}


def test_check_identity_multiple_from_file(capsys, tmp_path):
    path = tmp_path / "polys.txt"
    path.write_text("x1*x2-x2*x1; x1*x2+x2*x1")
    code, payload = run_json(
        capsys,
        "check-identity",
        "--poly-file",
        str(path),
        "--algebra",
        '{"type":"matrix","k":1}',
    )
    assert code == 0
    assert payload["result"] == {"identities": [True, False]}


def test_min_degree_matrix2(capsys):
    code, payload = run_json(
        capsys, "min-degree", "--algebra", '{"type":"matrix","k":2}', "--max", "5"
    )
    assert code == 0
    assert payload["result"] == {"min_degree": 4}


def test_min_degree_none_within_bound(capsys):
    code, payload = run_json(
        capsys, "min-degree", "--algebra", '{"type":"matrix","k":2}', "--max", "3"
    )
    assert code == 0
    assert payload["result"] == {"min_degree": None}


def test_codim_grassmann(capsys):
    code, payload = run_json(
        capsys,
        "codim",
        "--algebra",
        '{"type":"grassmann","generators":6}',
        "--n",
        "4",
        "--budget",
        "20000000",
    )
    assert code == 0
    assert payload["result"] == {"codim": 8}


def test_ideal_dim_and_cache_transparency(capsys, tmp_path):
    args = (
        "ideal-dim",
        "--polys",
        "x1*x2-x2*x1",
        "--n",
        "3",
        "--cache-dir",
        str(tmp_path),
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # warm cache output is byte-identical to cold
    payload = json.loads(out1)
    assert payload["result"]["dim"] == 5
    assert list(tmp_path.glob("*.opideal"))


def test_ideal_dim_closure_algorithm(capsys):
    code, payload = run_json(
        capsys,
        "ideal-dim",
        "--polys",
        "x1*x2-x2*x1",
        "--n",
        "3",
        "--algorithm",
        "closure",
    )
    assert code == 0
    assert payload["result"]["dim"] == 5
    # a unital generator above n + 2 contracts down to n = 1
    code, payload = run_json(
        capsys, "ideal-dim", "--gens", "1*(1,2,3,4)", "--n", "1", "--algorithm", "closure"
    )
    assert code == 0
    assert payload["result"] == {"ambient_dim": 1, "arity": 1, "dim": 1}


def test_determinism_without_cache(capsys):
    args = ("phi", "--poly", "x2*x1*x3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_determinism_across_processes():
    import subprocess
    import sys

    argv = [
        sys.executable,
        "-m",
        "oplab.cli",
        "ideal-dim",
        "--polys",
        "x1*x2-x2*x1",
        "--n",
        "3",
    ]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout


def test_generators_from_file(capsys, tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("1*(1,2) - 1*(2,1); 1*(2,1,3) - 1*(1,2,3)")
    code, payload = run_json(
        capsys, "ideal-dim", "--gens", f"@{path}", "--n", "3"
    )
    assert code == 0
    assert payload["result"]["dim"] == 5


def test_membership(capsys):
    code, payload = run_json(
        capsys,
        "membership",
        "--element",
        "1*(1,2,3,4) - 1*(2,1,3,4)",
        "--polys",
        "x1*x2-x2*x1",
    )
    assert code == 0
    assert payload["result"] == {"member": True}


def test_slices_equal(capsys):
    code, payload = run_json(
        capsys,
        "slices-equal",
        "--polys1",
        "x1*x2-x2*x1",
        "--gens2",
        "1*(2,1) - 1*(1,2)",
        "--max-arity",
        "3",
    )
    assert code == 0
    assert payload["result"] == {"equal": True}


def test_roundtrip_command(capsys):
    code, payload = run_json(
        capsys, "roundtrip", "--polys", "x1*x2-x2*x1", "--max-arity", "3"
    )
    assert code == 0
    assert payload["result"]["ok"] is True
    assert payload["result"]["arities"] == {"1": True, "2": True, "3": True}


def test_closure_verify_algebra(capsys):
    code, payload = run_json(
        capsys,
        "closure-verify",
        "--algebra",
        '{"type":"matrix","k":2}',
        "--max-arity",
        "3",
    )
    assert code == 0
    assert payload["result"]["closed"] is True


def test_closure_verify_generators(capsys):
    code, payload = run_json(
        capsys,
        "closure-verify",
        "--polys",
        "x1*x2-x2*x1",
        "--max-arity",
        "3",
    )
    assert code == 0
    assert payload["result"]["closed"] is True


def test_phi_both_directions(capsys):
    code, payload = run_json(capsys, "phi", "--element", "1*(3,1,2)")
    assert code == 0
    assert payload["result"] == {"poly": "1*x3*x1*x2"}
    code, payload = run_json(capsys, "phi", "--poly", "1*x3*x1*x2")
    assert code == 0
    assert payload["result"] == {"element": "1*(3,1,2)"}
    code, payload = run_json(capsys, "phi", "--poly", "x1*x1")
    assert code == 1
    assert payload["error"]["type"] == "ValueError"


def test_multilinearize_command(capsys):
    code, payload = run_json(capsys, "multilinearize", "--poly", "x1^2")
    assert code == 0
    assert payload["result"] == {"polys": ["1*x1*x2 + 1*x2*x1"]}


def test_compose_partial_and_full(capsys):
    code, payload = run_json(
        capsys, "compose", "--outer", "1*(2,1)", "--slot", "1", "--inner", "1*(2,1)"
    )
    assert code == 0
    assert payload["result"] == {"element": "1*(3,2,1)", "arity": 3}
    code, payload = run_json(
        capsys, "compose", "--outer", "1*(2,1)", "--parts", "1*(2,1); 1*(1)"
    )
    assert code == 0
    assert payload["result"]["element"] == "1*(3,2,1)"


def test_compose_nonunital_rejects_empty_slot(capsys):
    code, payload = run_json(
        capsys,
        "compose",
        "--outer",
        "1*(2,1)",
        "--slot",
        "1",
        "--inner",
        "1*()",
        "--mode",
        "nonunital",
    )
    assert code == 1
    assert "nonunital" in payload["error"]["message"]
    # the same composition is fine in the default mode
    code, payload = run_json(
        capsys, "compose", "--outer", "1*(2,1)", "--slot", "1", "--inner", "1*()"
    )
    assert code == 0
    assert payload["result"] == {"element": "1*(1)", "arity": 1}


def test_domain_error_is_structured(capsys):
    code, payload = run_json(
        capsys,
        "check-identity",
        "--poly",
        "x1*(x2",
        "--algebra",
        '{"type":"matrix","k":1}',
    )
    assert code == 1
    assert payload["error"]["type"] == "PolyParseError"
    assert "position" in payload["error"]["message"]


def test_budget_error_is_structured(capsys):
    code, payload = run_json(
        capsys,
        "codim",
        "--algebra",
        '{"type":"grassmann","generators":6}',
        "--n",
        "5",
        "--budget",
        "100",
    )
    assert code == 1
    assert payload["error"]["type"] == "BudgetExceeded"


def test_check_identity_refuses_too_many_tuples(capsys):
    # 9^12 basis tuples: refused before any is evaluated
    poly = "*".join(f"x{i}" for i in range(1, 13)) + " - x2*x1*" + "*".join(
        f"x{i}" for i in range(3, 13)
    )
    start = time.perf_counter()
    code, payload = run_json(
        capsys, "check-identity", "--poly", poly, "--algebra", '{"type":"matrix","k":3}'
    )
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert payload["error"]["type"] == "BudgetExceeded"
    assert str(9**12) in payload["error"]["message"]


def test_ideal_dim_refuses_slices_wider_than_the_budget(capsys):
    # 11! = 39,916,800 coordinates for spanning at n = 11, and 0! + ... + 11!
    # in the closure window of n = 11: both above 10^7
    for args in (("--n", "11"), ("--n", "11", "--algorithm", "closure")):
        start = time.perf_counter()
        code, payload = run_json(capsys, "ideal-dim", "--polys", "x1*x2-x2*x1", *args)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert payload["error"]["type"] == "BudgetExceeded"
        assert "tuple evaluations" not in payload["error"]["message"]


def test_ideal_dim_refuses_huge_arities_without_forming_n_factorial(capsys):
    # the refusal stops at the first partial product (or sum) of n! over
    # the budget: 10^6! or 0! + ... + 3000! is never formed
    for args in (("--n", "1000000"), ("--n", "3000", "--algorithm", "closure")):
        start = time.perf_counter()
        code, payload = run_json(capsys, "ideal-dim", "--polys", "x1*x2-x2*x1", *args)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert payload["error"]["type"] == "BudgetExceeded"


@pytest.mark.parametrize("max_arity", ["10", "11"])
def test_closure_verify_of_zero_slices_builds_no_translates(capsys, max_arity):
    # nonunital, an arity-40 generator reaches nothing up to 11: no row
    # is checked, and none of the 11! translates is formed
    unit = "1*(" + ",".join(map(str, range(1, 41))) + ")"
    start = time.perf_counter()
    code, payload = run_json(
        capsys, "closure-verify", "--mode", "nonunital", "--gens", unit,
        "--max-arity", max_arity,
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert payload["result"] == {"checked": 0, "closed": True, "failure": None}


@pytest.mark.parametrize("command", ["multilinearize", "check-identity"])
@pytest.mark.parametrize("power", ["x1^11", "x1^12"])
def test_polarizing_a_high_power_is_refused(capsys, command, power):
    # x1^11 polarizes into 11! = 39,916,800 words, over the budget
    algebra = ("--algebra", '{"type":"matrix","k":2}') if command == "check-identity" else ()
    start = time.perf_counter()
    code, payload = run_json(capsys, command, "--poly", power, *algebra)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert payload["error"] == {
        "type": "BudgetExceeded",
        "message": "multilinearizing forms 39916800 words, more than the budget of 10000000",
    }


def test_ideal_dim_refuses_contractions_over_the_budget(capsys):
    # the unit of arity 60 contracts to arity 10 in comb(60, 10) ways, and
    # to arity 9 in comb(60, 9): refused before one is formed
    unit = "1*(" + ",".join(map(str, range(1, 61))) + ")"
    start = time.perf_counter()
    code, payload = run_json(capsys, "ideal-dim", "--gens", unit, "--n", "10")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert payload["error"] == {
        "type": "BudgetExceeded",
        "message": "contracting arity 60 to arity 10 forms 90177170226 terms, "
        "more than the budget of 10000000",
    }


@pytest.mark.parametrize(
    "algebra", ['{"type":"matrix","k":2}', '{"type":"grassmann","generators":2}']
)
def test_codim_refuses_slices_wider_than_the_budget(capsys, algebra):
    # 12! coordinates: refused before the 455 (or fewer) tuples are walked
    start = time.perf_counter()
    code, payload = run_json(capsys, "codim", "--algebra", algebra, "--n", "12")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert payload["error"] == {
        "type": "BudgetExceeded",
        "message": "a slice of arity 12 spans 12! coordinates, more than the budget of 10000000",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("roundtrip", "--polys", "x1*x2-x2*x1", "--max-arity", "-1"),
        ("slices-equal", "--polys1", "x1*x2-x2*x1", "--polys2", "x1*x2-x2*x1", "--max-arity", "-2"),
        ("closure-verify", "--polys", "x1*x2-x2*x1", "--max-arity", "-1"),
        ("closure-verify", "--algebra", '{"type":"matrix","k":1}', "--max-arity", "-1"),
        ("min-degree", "--algebra", '{"type":"matrix","k":2}', "--max", "-3"),
    ],
)
def test_negative_arity_bounds_are_refused(capsys, argv):
    code, payload = run_json(capsys, *argv)
    assert code == 1
    assert payload["error"] == {
        "type": "ValueError", "message": "the arity bound must be nonnegative"
    }
    # a zero bound checks nothing, and says so without an error
    argv = argv[:-1] + ("0",)
    code, payload = run_json(capsys, *argv)
    assert code == 0 and "error" not in payload


def test_installed_entry_point_prints_what_main_prints(capsys, monkeypatch):
    # [project.scripts] runs oplab.cli:entrypoint, which exits with main's code
    from oplab.cli import entrypoint

    argv = ["phi", "--element", "1*(2,1)"]
    code, expected, _ = run_cli(capsys, *argv)
    monkeypatch.setattr("sys.argv", ["oplab", *argv])
    with pytest.raises(SystemExit) as exited:
        entrypoint()
    assert exited.value.code == code == 0
    assert capsys.readouterr().out == expected


def test_cache_write_and_read_load_no_openssl(tmp_path):
    # an ideal-dim call that writes a cache entry, then one that reads it,
    # in one process: neither loads hashlib's OpenSSL module, and both
    # print what they printed when the entry was named through hashlib
    import hashlib
    import subprocess
    import sys

    probe = (
        "import contextlib, io, json, sys\n"
        "from oplab.cli import main\n"
        "outs = []\n"
        "for _ in range(2):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        main(sys.argv[1:])\n"
        "    outs.append([out.getvalue(), err.getvalue()])\n"
        "print(json.dumps([outs, sorted({'_hashlib', 'hashlib'} & set(sys.modules))]))\n"
    )
    polys = "x1*x2*x3-x2*x1*x3-x3*x1*x2+x3*x2*x1"
    argv = ["ideal-dim", "--polys", polys, "--n", "5", "--cache-dir", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, check=True
    )
    outs, loaded = json.loads(done.stdout)
    assert loaded == []
    expected = (
        '{"command":"ideal-dim","params":{"algorithm":"spanning","cache_dir":'
        + json.dumps(str(tmp_path))
        + ',"mode":"unital","n":5,"polys":"x1*x2*x3-x2*x1*x3-x3*x1*x2+x3*x2*x1"},'
        '"result":{"ambient_dim":120,"arity":5,"dim":104},"version":"0.1.0"}\n'
    )
    assert [out for out, _ in outs] == [expected, expected]
    assert ["cache_hit=False" in outs[0][1], "cache_hit=True" in outs[1][1]] == [True, True]
    digest = hashlib.sha256(b"1*(1,2,3) - 1*(2,1,3) - 1*(3,1,2) + 1*(3,2,1)").hexdigest()
    assert [p.name for p in tmp_path.iterdir()] == [f"{digest}-unital-n5.opideal"]


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_flags_only_on_commands_that_read_them(capsys):
    # --budget belongs to min-degree, codim and closure-verify only
    assert main(["phi", "--element", "1*(1,2)", "--budget", "5"]) == 2
    assert main(
        ["check-identity", "--poly", "x1", "--algebra", '{"type":"matrix","k":1}', "--budget", "5"]
    ) == 2
    # the closure derives its arity window, so no command takes --headroom
    assert main(
        ["ideal-dim", "--polys", "x1", "--n", "2", "--algorithm", "closure", "--headroom", "1"]
    ) == 2
    assert main(["phi", "--element", "1*(1,2)", "--cache-dir", "somewhere"]) == 2
    capsys.readouterr()
    code, payload = run_json(capsys, "phi", "--element", "1*(1,2)")
    assert code == 0
    assert payload["params"] == {"element": "1*(1,2)", "mode": "unital"}


def test_nonunital_mode_refuses_arity_0_generators(capsys, tmp_path):
    args = ("ideal-dim", "--gens", "1*()", "--n", "3")
    code, payload = run_json(capsys, *args, "--mode", "nonunital")
    assert code == 1
    assert payload["error"] == {
        "type": "ValueError", "message": "nonunital mode has no elements below arity 1"
    }
    # unital mode contracts with it: the whole arity-3 slice
    code, payload = run_json(capsys, *args)
    assert (code, payload["result"]["dim"]) == (0, 6)
    # a slice that no generator reaches is zero, and is neither read nor
    # written through the cache
    args = ("ideal-dim", "--gens", "1*(1,2,3,4)", "--mode", "nonunital", "--cache-dir", str(tmp_path))
    code, out, err = run_cli(capsys, *args, "--n", "3")
    assert code == 0
    assert json.loads(out)["result"] == {"arity": 3, "dim": 0, "ambient_dim": 6}
    assert "cache_hit=False" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="needs the default limit of 4300 digits on int-to-text conversion",
)
def test_a_result_too_long_for_text_is_a_structured_error(capsys, tmp_path):
    # a nonunital generator of arity 1560 gives the zero slice at once;
    # its ambient_dim n! has 4300 digits at n = 1558 and 4303 at n = 1559
    gens = tmp_path / "gens"
    gens.write_text("1*(" + ",".join(map(str, range(1, 1561))) + ")")
    args = ("ideal-dim", "--mode", "nonunital", "--gens", f"@{gens}", "--n")
    code, payload = run_json(capsys, *args, "1558")
    assert code == 0
    assert payload["result"] == {"arity": 1558, "dim": 0, "ambient_dim": math.factorial(1558)}
    code, out, _ = run_cli(capsys, *args, "1559")
    assert code == 1
    payload = json.loads(out)
    assert "result" not in payload
    assert payload["error"]["type"] == "ValueError"
    assert "digits" in payload["error"]["message"]
    assert payload["params"]["n"] == 1559


def test_corrupt_cache_entry_is_recomputed(capsys, tmp_path):
    from oplab import GeneratorSet, parse_poly, poly_to_operad, slice_cache_path

    gens = GeneratorSet([poly_to_operad(parse_poly("x1*x2-x2*x1"))])
    path = slice_cache_path(tmp_path, gens, 3)
    path.write_text("garbage\n")
    args = ("ideal-dim", "--polys", "x1*x2-x2*x1", "--n", "3", "--cache-dir", str(tmp_path))
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    assert json.loads(out)["result"]["dim"] == 5
    assert "cache_hit=False" in err
    assert path.read_text().startswith("OPIDEAL v1\n")
    _, again, err = run_cli(capsys, *args)
    assert again == out
    assert "cache_hit=True" in err


def test_pretty_flag(capsys):
    code, out, _ = run_cli(capsys, "phi", "--element", "1*(1,2)", "--pretty")
    assert code == 0
    assert out.startswith("{\n")


def test_cache_list_and_gc(capsys, tmp_path):
    run_cli(
        capsys,
        "ideal-dim",
        "--polys",
        "x1*x2-x2*x1",
        "--n",
        "2",
        "--cache-dir",
        str(tmp_path),
    )
    code, payload = run_json(capsys, "cache", "list", "--cache-dir", str(tmp_path))
    assert code == 0
    assert len(payload["result"]["entries"]) == 1
    assert "arity=2" in payload["result"]["entries"][0]["header"]
    code, payload = run_json(capsys, "cache", "gc", "--cache-dir", str(tmp_path))
    assert code == 0
    assert payload["result"] == {"removed": 1}
    assert not list(tmp_path.glob("*.opideal"))


def test_cache_list_marks_unreadable_entry(capsys, tmp_path):
    run_cli(capsys, "ideal-dim", "--polys", "x1*x2-x2*x1", "--n", "2", "--cache-dir", str(tmp_path))
    (tmp_path / "broken.opideal").write_bytes(b"\xff\xfe garbage\n")
    code, payload = run_json(capsys, "cache", "list", "--cache-dir", str(tmp_path))
    assert code == 0
    broken, good = sorted(payload["result"]["entries"], key=lambda e: e["file"] != "broken.opideal")
    assert broken == {"file": "broken.opideal", "header": "", "unreadable": True}
    assert "arity=2" in good["header"] and "unreadable" not in good


def test_cache_gc_removes_orphaned_temp_files(capsys, tmp_path):
    run_cli(capsys, "ideal-dim", "--polys", "x1*x2-x2*x1", "--n", "2", "--cache-dir", str(tmp_path))
    (entry,) = tmp_path.glob("*.opideal")
    orphan = tmp_path / f"{entry.name}k3j9x_q.tmp"  # as left by a killed writer
    orphan.write_text("OPIDEAL v1\n")
    unrelated = tmp_path / "notes.tmp"
    unrelated.write_text("kept")
    code, payload = run_json(capsys, "cache", "gc", "--cache-dir", str(tmp_path))
    assert code == 0
    assert payload["result"] == {"removed": 2}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["notes.tmp"]


def test_cache_dir_from_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("OPLAB_CACHE_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, "ideal-dim", "--polys", "x1*x2-x2*x1", "--n", "2")
    assert code == 0
    assert list(tmp_path.glob("*.opideal"))


def test_timing_goes_to_stderr_not_stdout(capsys):
    _, out, err = run_cli(capsys, "phi", "--element", "1*(1,2)")
    assert "elapsed_ms" in err
    assert "elapsed_ms" not in out


@pytest.mark.parametrize(
    "spec",
    [
        '{"type":"custom"}',
        '{"type":"matrix"}',
        '{"type":"custom","basis":["1"],"unit":[null],"table":[[[1]]]}',
        '{"type":"custom","basis":["1"],"unit":[1],"table":[[1]]}',
        '{"type":"matrix","k":2.5}',
        '{"type":"matrix","k":true}',
        '{"type":"direct_sum","parts":3}',
        "[]",
    ],
)
def test_malformed_algebra_spec_is_a_structured_error(capsys, spec):
    code, payload = run_json(capsys, "codim", "--algebra", spec, "--n", "2")
    assert code == 1
    assert payload["error"]["type"] == "AlgebraError"
    assert payload["error"]["message"]


def test_cli_import_leaves_out_dataclasses_and_hashlib():
    # startup cost: the CLI needs neither; a cache entry is named with the
    # interpreter's built-in SHA-256, not hashlib
    import subprocess
    import sys

    probe = (
        "import sys, oplab.cli; "
        "print(sorted({'dataclasses', 'inspect', 'hashlib'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


# The probe reads each submodule's __dict__ past the lazy module's
# __getattribute__, which would load it; exec gives a run module __builtins__.
_RAN_PROBE = """
import sys, oplab.cli
def ran():
    return [name for name in ("perms", "linalg", "operad", "freealg", "algebras", "ideals")
            if "__builtins__" in object.__getattribute__(sys.modules["oplab." + name], "__dict__")]
print(ran())
if len(sys.argv) > 1:
    oplab.cli.main(sys.argv[1:])
    print(ran())
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        ([], []),
        (["phi", "--element", "1*(2,1)"], ["perms", "linalg", "operad", "freealg"]),
        (["phi", "--poly", "x1*x2"], ["perms", "linalg", "operad", "freealg"]),
        (["multilinearize", "--poly", "x1^2*x2"], ["perms", "linalg", "operad", "freealg"]),
        (["compose", "--outer", "1*(1,2)", "--slot", "1", "--inner", "1*(2,1)"],
         ["perms", "linalg", "operad"]),
        (["compose", "--outer", "1*(1,2)", "--parts", "1*(1);1*()", "--mode", "nonunital"],
         ["perms", "linalg", "operad"]),
        (["check-identity", "--poly", "x1*x2-x2*x1", "--algebra", '{"type":"matrix","k":1}'],
         ["perms", "linalg", "operad", "freealg", "algebras"]),
        (["check-identity", "--poly", "x1^2", "--algebra", '{"type":"matrix","k":1}'],
         ["perms", "linalg", "operad", "freealg", "algebras"]),
        (["ideal-dim", "--polys", "x1*x2-x2*x1", "--n", "3", "--algorithm", "closure"],
         ["perms", "linalg", "operad", "freealg", "algebras", "ideals"]),
    ],
    ids=["import", "phi-element", "phi-poly", "multilinearize", "compose-slot", "compose-parts",
         "check-identity", "check-identity-general", "ideal-dim"],
)
def test_cli_runs_only_the_submodules_its_command_uses(argv, expected):
    import subprocess

    done = subprocess.run(
        [sys.executable, "-c", _RAN_PROBE, *argv], capture_output=True, text=True, check=True
    )
    lines = done.stdout.splitlines()
    assert lines[0] == "[]"  # importing the CLI runs none of them
    if argv:
        assert json.loads(lines[1])["command"] == argv[0]
        assert lines[2] == repr(expected)


# Records, when main() builds the parser, whether ideals has run yet and
# whether argparse is loaded.
_ORDER_PROBE = """
import sys, oplab.cli
build = oplab.cli.build_parser
def probed():
    ideals = object.__getattribute__(sys.modules["oplab.ideals"], "__dict__")
    print("__builtins__" in ideals, "argparse" in sys.modules)
    return build()
oplab.cli.build_parser = probed
oplab.cli.main(sys.argv[1:])
"""


@pytest.mark.parametrize(
    "argv, ideals_first",
    [
        (["codim", "--algebra", '{"type":"matrix","k":1}', "--n", "2"], True),
        (["cache", "list", "--cache-dir", "."], True),
        (["phi", "--element", "1*(2,1)"], False),
        (["--version"], False),
    ],
    ids=["codim", "cache", "phi", "not-a-command"],
)
def test_cli_runs_ideals_before_argparse_for_the_commands_that_use_it(argv, ideals_first):
    # peak memory: compiling ideals with no bytecode cached takes a few MB
    # of scratch, which the parser built afterwards reuses
    import subprocess

    done = subprocess.run(
        [sys.executable, "-c", _ORDER_PROBE, *argv], capture_output=True, text=True
    )
    assert done.stdout.splitlines()[0] == f"{ideals_first} False"
