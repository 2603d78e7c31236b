import json
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_canonical_digest_ignores_only_the_fields_equal_runs_differ_in(tmp_path):
    digest = runpy.run_path(str(SCRIPTS / "canonical_digests.py"))["digest"]

    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return digest(path)

    summary = {"exit_code": 0, "per_L": {"10": 1.5}}
    assert write("a_summary.json", dict(summary, wall_time_s=1.0)) == \
        write("b_summary.json", dict(summary, wall_time_s=2.0))
    assert write("c_summary.json", dict(summary, exit_code=2)) != \
        write("a_summary.json", summary)
    manifest = {"config": {"out_dir": "one", "trials": 5}, "package_version": "0.1.0"}
    assert write("manifest.json", manifest) == \
        write("manifest.json", {"config": {"out_dir": "two", "trials": 5},
                                "package_version": "0.1.0"})
    assert write("manifest.json", manifest) != \
        write("manifest.json", {"config": {"out_dir": "one", "trials": 6},
                                "package_version": "0.1.0"})
    # any other file counts byte for byte
    (tmp_path / "x.csv").write_text("trial,L\n0,10\n")
    (tmp_path / "y.csv").write_text("trial,L\n0,10 \n")
    assert digest(tmp_path / "x.csv") != digest(tmp_path / "y.csv")


def test_workers_differ_names_each_config_whose_outputs_move_with_the_worker_count(
        tmp_path):
    script = runpy.run_path(str(SCRIPTS / "canonical_digests.py"))
    fingerprint, workers_differ = script["fingerprint"], script["workers_differ"]

    def run(workers, csv="trial,L\n0,10\n", code=0):
        out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
        out.mkdir()
        (out / "maxlaw_L10.csv").write_text(csv)
        (out / "maxlaw_summary.json").write_text(
            json.dumps({"exit_code": code, "wall_time_s": float(workers)}))
        (out / "manifest.json").write_text(json.dumps(
            {"config": {"out_dir": str(out), "workers": workers, "trials": 5}}))
        return fingerprint(code, out)

    serial = {"maxlaw": run(1), "sandwich": run(1)}
    # the wall time, the output directory and the worker count may differ
    assert workers_differ({"maxlaw": run(2), "sandwich": run(2)}, serial) == []
    # a byte of a CSV, an exit code, or a missing run may not
    assert workers_differ({"maxlaw": run(2, csv="trial,L\n0,11\n"), "sandwich": run(2)},
                          serial) == ["workers-differ maxlaw"]
    assert workers_differ({"maxlaw": run(2), "sandwich": run(2, code=2)},
                          serial) == ["workers-differ sandwich"]
    assert workers_differ({"maxlaw": run(2)}, serial) == ["workers-differ sandwich"]
    # a run that wrote nothing is its exit code alone
    assert fingerprint(1, tmp_path / "never") == {"exit": "1"}


def test_main_times_each_printed_run_on_stderr(tmp_path, capsys):
    # a tree of one small config, run on this checkout's source
    main = runpy.run_path(str(SCRIPTS / "canonical_digests.py"))["main"]
    (tmp_path / "src").symlink_to(SCRIPTS.parent / "src")
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "tailsum.cfg").write_text(
        "experiment = tailsum\nradii = 10\nalpha = 0.5\nscaling_mode = calibrated\n"
        "x_grid = 1\n")
    assert main([str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "exit 0  tailsum"
    assert [line.split("  ")[1] for line in lines[1:]] == [
        "tailsum/manifest.json", "tailsum/tailsum_L10.csv", "tailsum/tailsum_summary.json"]
    name, config, seconds = err.split()
    assert (name, config) == ("time", "tailsum") and float(seconds) > 0.0
