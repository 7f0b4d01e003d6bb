"""Command-line round trips: config errors, determinism and sidecar hashes."""

import hashlib
import json

import pytest
import yaml

from bcmac import cli

H1_CAP = [[1.0, 0.0], [0.2, 0.6]]
H2_CAP = [[0.5, 0.0], [0.2, 1.0]]
H3 = [[0.3, 0.1], [0.0, 0.8]]
PER_ANTENNA = [{"type": "per_antenna", "antenna": a, "budget": 5.0} for a in (1, 2)]


def _region_doc(**extra):
    doc = {"objective": "wsr_region", "channels": {"h": [H1_CAP, H2_CAP]},
           "constraints": PER_ANTENNA, "sweep": {"resolution": 2}, "seed": 3}
    doc.update(extra)
    return doc


def _write(tmp_path, doc):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


def _args(command, config, out):
    return [command, "--config", config] + ([] if command == "validate" else ["--out", out])


@pytest.mark.parametrize("command", ["validate", "region"])
@pytest.mark.parametrize("doc, message", [
    (_region_doc(channels={"h": [H1_CAP, H2_CAP, H3]}), "one or two users"),
    (_region_doc(heuristic=True), "not positive definite"),
], ids=["three_users", "heuristic_singular_first"])
def test_config_errors_exit_2(tmp_path, capsys, command, doc, message):
    out = tmp_path / "out"
    assert cli.main(_args(command, _write(tmp_path, doc), str(out))) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


def test_heuristic_with_definite_first_constraint_validates(tmp_path):
    cons = [{"type": "sum_power", "budget": 8.0}] + PER_ANTENNA
    doc = _region_doc(heuristic=True, constraints=cons)
    assert cli.main(_args("validate", _write(tmp_path, doc), "")) == 0


def test_region_deterministic_and_hashed(tmp_path):
    config = _write(tmp_path, _region_doc())
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli.main(_args("region", config, str(out))) == 0
        meta = json.loads((out / "wsr_region.meta.json").read_text(encoding="utf-8"))
        assert not meta["partial"]
        assert sorted(meta["content_sha256"]) == ["wsr_region.csv"]
        files = {}
        for fname, digest in meta["content_sha256"].items():
            files[fname] = (out / fname).read_bytes()
            assert hashlib.sha256(files[fname]).hexdigest() == digest
        runs.append(files)
    assert runs[0] == runs[1]
    lines = runs[0]["wsr_region.csv"].decode("utf-8").splitlines()
    assert len(lines) == 1 + 3  # header and weights 0, 1/2, 1
