"""Benchmark-baseline artifacts: write, load, validate, CLI."""

import json

import pytest

from repro.experiments.baseline import (
    baseline_path,
    compare_directories,
    compare_metrics,
    load_baseline,
    main,
    metric_direction,
    run_fingerprint,
    run_meta,
    validate_baseline,
    validate_directory,
    write_baseline,
)


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        path = write_baseline(tmp_path, "fig9", {"p99_s": 0.012, "apps": 3})
        assert path == baseline_path(tmp_path, "fig9")
        assert path.name == "BENCH_fig9.json"
        document = load_baseline(path)
        assert document["name"] == "fig9"
        assert document["metrics"] == {"apps": 3, "p99_s": 0.012}

    def test_fingerprint_stamped(self, tmp_path):
        path = write_baseline(tmp_path, "x", {"m": 1})
        fingerprint = load_baseline(path)["fingerprint"]
        assert fingerprint == run_fingerprint()
        assert fingerprint["python"]
        assert fingerprint["platform"]

    def test_metrics_sorted_and_stable(self, tmp_path):
        path = write_baseline(tmp_path, "x", {"b": 2, "a": 1})
        raw = path.read_text()
        assert raw.index('"a"') < raw.index('"b"')
        assert raw == write_baseline(tmp_path, "x", {"a": 1, "b": 2}).read_text()

    @pytest.mark.parametrize(
        "name, metrics",
        [
            ("", {"m": 1}),
            ("a/b", {"m": 1}),
            ("ok", {}),
            ("ok", {"m": float("nan")}),
            ("ok", {"m": [1, 2]}),
        ],
    )
    def test_rejects_bad_input(self, tmp_path, name, metrics):
        with pytest.raises((ValueError, TypeError)):
            write_baseline(tmp_path, name, metrics)


class TestValidate:
    def test_accepts_written_document(self, tmp_path):
        path = write_baseline(tmp_path, "x", {"m": 1})
        validate_baseline(load_baseline(path), source=str(path))

    @pytest.mark.parametrize("drop", ["name", "fingerprint", "metrics"])
    def test_rejects_missing_key(self, tmp_path, drop):
        path = write_baseline(tmp_path, "x", {"m": 1})
        document = load_baseline(path)
        del document[drop]
        with pytest.raises(ValueError, match=drop):
            validate_baseline(document, source=str(path))

    def test_rejects_incomplete_fingerprint(self, tmp_path):
        path = write_baseline(tmp_path, "x", {"m": 1})
        document = load_baseline(path)
        del document["fingerprint"]["python"]
        with pytest.raises(ValueError, match="python"):
            validate_baseline(document, source=str(path))

    def test_directory_counts_and_requires(self, tmp_path):
        write_baseline(tmp_path, "a", {"m": 1})
        write_baseline(tmp_path, "b", {"m": 2})
        assert validate_directory(tmp_path) == ["a", "b"]
        assert validate_directory(tmp_path, require=2) == ["a", "b"]
        with pytest.raises(ValueError, match="expected >= 3"):
            validate_directory(tmp_path, require=3)

    def test_directory_flags_corrupt_file(self, tmp_path):
        write_baseline(tmp_path, "a", {"m": 1})
        (tmp_path / "BENCH_broken.json").write_text(json.dumps({"name": "b"}))
        with pytest.raises(ValueError, match="BENCH_broken"):
            validate_directory(tmp_path)


class TestMeta:
    def test_meta_stamped_on_write(self, tmp_path):
        path = write_baseline(tmp_path, "x", {"m": 1}, execution="process")
        meta = load_baseline(path)["meta"]
        assert meta["execution"] == "process"
        assert meta["cpu_count"] >= 1
        assert meta["python"] and meta["platform"]
        assert isinstance(meta["git_sha"], str)

    def test_run_meta_matches_environment(self):
        import os
        import platform

        meta = run_meta()
        assert meta["python"] == platform.python_version()
        assert meta["cpu_count"] == (os.cpu_count() or 1)
        assert meta["execution"] == "threaded"

    def test_audit_block_round_trips(self, tmp_path):
        audit = {"send_lag_p99_s": 0.0001, "send_lag_max_s": 0.0002}
        path = write_baseline(tmp_path, "x", {"m": 1}, audit=audit)
        document = load_baseline(path)
        assert document["audit"] == audit
        validate_baseline(document, source=str(path))

    def test_validate_rejects_bad_meta_and_audit(self, tmp_path):
        path = write_baseline(tmp_path, "x", {"m": 1}, audit={"a": 1.0})
        document = load_baseline(path)
        document["meta"] = {"python": "3.11"}  # missing required keys
        with pytest.raises(ValueError, match="meta"):
            validate_baseline(document, source=str(path))
        good = load_baseline(path)
        good["audit"] = {"a": "not-a-number"}
        with pytest.raises(ValueError, match="audit"):
            validate_baseline(good, source=str(path))


class TestCompare:
    def test_direction_heuristics(self):
        assert metric_direction("p99_s") == "lower"
        assert metric_direction("qps_4proc") == "higher"
        assert metric_direction("speedup_4proc") == "higher"
        assert metric_direction("service_time_ms") == "lower"
        assert metric_direction("n_apps") == "both"
        assert metric_direction("events_per_s") == "higher"
        assert metric_direction("sim_requests_per_s") == "higher"

    def test_within_tolerance_passes(self):
        baseline = {"qps": 100.0, "p99_s": 0.010}
        current = {"qps": 90.0, "p99_s": 0.012}  # both 10-20% worse
        assert compare_metrics(baseline, current, tolerance=0.25,
                               source="t") == []

    def test_regression_in_worse_direction_fails(self):
        regressions = compare_metrics(
            {"qps": 100.0}, {"qps": 60.0}, tolerance=0.25, source="t"
        )
        assert len(regressions) == 1 and "qps" in regressions[0]

    def test_improvement_never_fails(self):
        assert compare_metrics(
            {"qps": 100.0, "p99_s": 0.010},
            {"qps": 500.0, "p99_s": 0.001},
            tolerance=0.1, source="t",
        ) == []

    def test_missing_metric_fails(self):
        regressions = compare_metrics(
            {"qps": 100.0}, {}, tolerance=0.25, source="t"
        )
        assert regressions and "disappeared" in regressions[0]

    def test_directories_intersection(self, tmp_path):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        base.mkdir()
        cur.mkdir()
        write_baseline(base, "a", {"qps": 100.0})
        write_baseline(base, "only_base", {"qps": 1.0})
        write_baseline(cur, "a", {"qps": 99.0})
        regressions, notes = compare_directories(base, cur)
        assert regressions == []
        assert any("only_base" in n for n in notes)

    def test_directories_empty_intersection_noted(self, tmp_path):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        base.mkdir()
        cur.mkdir()
        regressions, notes = compare_directories(base, cur)
        assert regressions == []
        assert any("no comparable baseline pairs" in n for n in notes)


class TestCli:
    def test_ok(self, tmp_path, capsys):
        write_baseline(tmp_path, "a", {"m": 1})
        assert main([str(tmp_path), "--require", "1"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_failure_exit_code(self, tmp_path, capsys):
        assert main([str(tmp_path), "--require", "1"]) == 1
        assert "expected >= 1" in capsys.readouterr().err

    def test_explicit_validate_subcommand(self, tmp_path, capsys):
        write_baseline(tmp_path, "a", {"m": 1})
        assert main(["validate", str(tmp_path), "--require", "1"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_compare_ok(self, tmp_path, capsys):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        base.mkdir()
        cur.mkdir()
        write_baseline(base, "a", {"qps": 100.0})
        write_baseline(cur, "a", {"qps": 98.0})
        assert main(["compare", str(base), str(cur)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_regression_exit_code(self, tmp_path, capsys):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        base.mkdir()
        cur.mkdir()
        write_baseline(base, "a", {"qps": 100.0})
        write_baseline(cur, "a", {"qps": 10.0})
        assert main(["compare", str(base), str(cur),
                     "--tolerance", "0.25"]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_compare_strict_fingerprint_policy(self, tmp_path, capsys):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        base.mkdir()
        cur.mkdir()
        path = write_baseline(base, "a", {"qps": 100.0})
        document = load_baseline(path)
        document["fingerprint"]["python"] = "0.0.0"
        path.write_text(json.dumps(document))
        write_baseline(cur, "a", {"qps": 100.0})
        assert main(["compare", str(base), str(cur),
                     "--fingerprint-policy", "strict"]) == 1
        assert main(["compare", str(base), str(cur),
                     "--fingerprint-policy", "skip"]) == 0
