from reallocsched.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    assert main(["gen", "random", "--out", str(a), "--n-max", "30",
                 "--machines", "2", "--gamma", "192", "--seed", "7"]) == 0
    assert main(["gen", "random", "--out", str(b), "--n-max", "30",
                 "--machines", "2", "--gamma", "192", "--seed", "7"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_reservation_on_underallocated_trace(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    main(["gen", "random", "--out", str(trace), "--n-max", "40",
          "--machines", "2", "--gamma", "192", "--seed", "3"])
    code, out = run_cli(capsys, "run", str(trace), "--scheduler", "reservation",
                        "--audit", "invariants")
    assert code == 0
    summary = [l for l in out.splitlines() if l.startswith("summary")][0]
    fields = dict(kv.split("=", 1) for kv in summary.split()[1:])
    assert fields["status"] == "ok"
    assert fields["audit_failures"] == "0"
    assert int(fields["max_migrations"]) <= 1


def test_run_edf_on_realloc_adversary(tmp_path, capsys):
    trace = tmp_path / "adv.trace"
    main(["gen", "realloc-adversary", "--out", str(trace), "--requests", "40"])
    code, out = run_cli(capsys, "run", str(trace), "--scheduler", "edf",
                        "--machines", "1", "--audit", "off")
    assert code == 0
    summary = [l for l in out.splitlines() if l.startswith("summary")][0]
    fields = dict(kv.split("=", 1) for kv in summary.split()[1:])
    assert int(fields["total_reallocations"]) >= 200


def test_run_surfaces_precondition_violation_as_exit_2(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    trace.write_text("insert x 0 1\ninsert y 0 1\n")
    code, out = run_cli(capsys, "run", str(trace), "--machines", "1", "--gamma", "1")
    assert code == 2
    error = [l for l in out.splitlines() if l.startswith("error")][0]
    assert "index=1" in error
    assert "[0, 1)" in error  # diagnostic names the window


def test_run_malformed_trace_exits_3(tmp_path, capsys):
    trace = tmp_path / "junk.trace"
    trace.write_text("insert broken\n")
    code, out = run_cli(capsys, "run", str(trace))
    assert code == 3


def test_gen_migration_adversary_divisibility_error(tmp_path, capsys):
    code = main(["gen", "migration-adversary", "--out", str(tmp_path / "x"),
                 "--machines", "3", "--requests", "20"])
    assert code != 0


def test_csv_ledger_is_byte_identical_across_replays(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    main(["gen", "random", "--out", str(trace), "--n-max", "25",
          "--machines", "4", "--gamma", "192", "--seed", "9"])
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", str(trace), "--csv", str(csv_a)]) == 0
    assert main(["run", str(trace), "--csv", str(csv_b)]) == 0
    capsys.readouterr()
    assert csv_a.read_bytes() == csv_b.read_bytes()


def test_verify_reports_verdicts(tmp_path, capsys):
    good = tmp_path / "good.trace"
    main(["gen", "random", "--out", str(good), "--n-max", "20",
          "--machines", "2", "--gamma", "192", "--seed", "1"])
    code, out = run_cli(capsys, "verify", str(good))
    assert code == 0
    assert "underallocated=1" in out

    adv = tmp_path / "adv.trace"
    main(["gen", "realloc-adversary", "--out", str(adv), "--requests", "20"])
    code, out = run_cli(capsys, "verify", str(adv), "--machines", "1", "--gamma", "2")
    assert code == 1
    assert "underallocated=0" in out
    assert "first_violation=" in out

    empty = tmp_path / "empty.trace"
    empty.write_text("")
    code, out = run_cli(capsys, "verify", str(empty))
    assert code == 0


def test_verify_malformed_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text("delete ghost\n")
    code, _ = run_cli(capsys, "verify", str(bad))
    assert code == 3


def test_parallel_run_outputs_in_input_order(tmp_path, capsys):
    paths = []
    for i in range(3):
        p = tmp_path / f"t{i}.trace"
        main(["gen", "random", "--out", str(p), "--n-max", "10",
              "--machines", "1", "--gamma", "64", "--seed", str(i)])
        paths.append(str(p))
    capsys.readouterr()
    code, out = run_cli(capsys, "run", *paths, "--audit", "off")
    assert code == 0
    summaries = [l for l in out.splitlines() if l.startswith("summary")]
    assert [f"trace={p}" in s for p, s in zip(paths, summaries)] == [True] * 3


def test_per_request_rows(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    main(["gen", "random", "--out", str(trace), "--n-max", "5",
          "--machines", "1", "--gamma", "32", "--seed", "0", "--length", "10"])
    code, out = run_cli(capsys, "run", str(trace), "--per-request", "--audit", "off")
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("req ")]
    assert len(rows) == 10
    assert rows[0].startswith("req index=0 op=")
