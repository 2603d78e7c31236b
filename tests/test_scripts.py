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
