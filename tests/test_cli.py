import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import switchflow
from switchflow import chains, cli
from switchflow.cli import main
from switchflow.config import ExperimentConfig
from switchflow.graph import ValidationError
from switchflow.literals import (
    LiteralError,
    format_sequence,
    format_signal,
    parse_sequence,
    parse_signal,
)
from switchflow.graph import DirectedGraph

COMPLETE2 = {
    "graph": {"vertices": 2, "edges": [[0, 0], [0, 1], [1, 0], [1, 1]],
              "labels": ["A", "B"]},
    "system": {"box": [[0.0, 2.0]], "h": 0.1, "substeps": 20,
               "fields": ["-x1*(x1-1)*(x1-2)", "-x1*(x1-2)"]},
    "analysis": {"cells": [100], "eps": 0.02, "m": 1,
                 "references": [[0.0, 1.0], [2.0, 2.0]]},
    "run": {"seed": 0, "out": "out", "tol": 1e-10},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(COMPLETE2))
    return path


class TestLiterals:
    def test_sequence_roundtrip(self):
        g = DirectedGraph.from_edges(2, [(0, 0), (0, 1), (1, 0), (1, 1)],
                                     labels=["A", "B"])
        x = parse_sequence(g, "left=(A B) core=[B A] right=(A) shift=-2")
        assert x.left_period == (0, 1) and x.core == (1, 0)
        assert x.right_period == (0,) and x.index_shift == -2
        again = parse_sequence(g, format_sequence(x))
        assert again == x

    def test_signal_roundtrip(self):
        g = DirectedGraph.complete(2)
        f = parse_signal(g, "left=(0) core=[] right=(1 0) shift=0 tau=0.05 h=0.1")
        assert f.offset == 0.05 and f.step == 0.1
        again = parse_signal(g, format_signal(f))
        assert again.offset == f.offset and again.base == f.base

    def test_error_carries_position(self):
        g = DirectedGraph.complete(2)
        with pytest.raises(LiteralError) as err:
            parse_sequence(g, "left=(A C) core=[] right=(A)")
        assert "position" in str(err.value)

    def test_signal_errors_point_into_the_given_text(self):
        g = DirectedGraph.complete(2)
        for text, at in [("tau=0.05 h=0.1 left=(0 7) right=(1)", "left="),
                         ("tau=0.05 h=0.1 left=(0 1) core=[] right=(1) shift=x", "shift="),
                         ("tau=0.05 h=0.1 left=(0 1)", None),
                         ("left=(0) right=(1) tua=0.3 h=0.1", "tua=")]:
            with pytest.raises(LiteralError) as err:
                parse_signal(g, text)
            assert err.value.position == (len(text) if at is None else text.index(at))

    def test_sequence_rejects_signal_keys_at_their_position(self):
        g = DirectedGraph.complete(2)
        for text, key in [("left=(0) core=[1] right=(1) tau=0.5", "tau="),
                          ("h=0.1 left=(0) right=(1)", "h=")]:
            with pytest.raises(LiteralError, match="unknown key") as err:
                parse_sequence(g, text)
            assert err.value.position == text.index(key)

    def test_word_tokens_resolve_as_index_of_does(self):
        # labels spelling other vertices' indices win; other spellings of an
        # index resolve; a bad token is reported at its word's key
        g = DirectedGraph.from_edges(3, [(0, 0), (0, 1), (1, 2), (2, 0), (1, 1)],
                                     labels=["1", "2", "0"])
        x = parse_sequence(g, "left=(1) core=[1 01 +1 2] right=(0 1 2)")
        assert (x.left_period, x.core, x.right_period) == ((0,), (0, 1, 1, 1), (2, 0, 1))
        for text, message, key in [
                ("left=(1) core=[1 C] right=(1)", "unknown vertex 'C'", "core="),
                ("left=(1) right=(1 7)", "vertex index 7 out of range", "right=")]:
            with pytest.raises(LiteralError, match=f"{message}$") as err:
                parse_sequence(g, text)
            assert err.value.position == text.index(key)

    def test_unknown_vertex_rejected(self):
        g = DirectedGraph.complete(2)
        with pytest.raises(LiteralError):
            parse_signal(g, "left=(7) core=[] right=(0) h=0.1")


class TestConfig:
    def test_field_count_must_match(self, tmp_path):
        doc = json.loads(json.dumps(COMPLETE2))
        doc["system"]["fields"] = ["-x1"]
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict(doc)

    def test_bad_tolerance_rejected(self):
        doc = json.loads(json.dumps(COMPLETE2))
        doc["run"]["tol"] = 0.0
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict(doc)

    def test_unknown_keys_are_named(self):
        doc = json.loads(json.dumps(COMPLETE2))
        doc["run"]["sed"] = 1
        doc["run"]["outt"] = "o"
        with pytest.raises(ValidationError, match=r"run\.outt, run\.sed"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("name", ["sine_curve_reduced", "two_well_complete",
                                      "two_well_cycle"])
    def test_resolved_config_round_trips(self, name):
        # provenance headers are configs too: reading one back gives the same run
        cfg = ExperimentConfig.from_file(CONFIG_DIR / f"{name}.json")
        assert ExperimentConfig.from_dict(cfg.resolved()).resolved() == cfg.resolved()

    def test_json_error_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{'graph': }")
        with pytest.raises(ValidationError) as err:
            ExperimentConfig.from_file(path)
        assert "line" in str(err.value)


def _without(block, key):
    def edit(doc):
        del doc[block][key]
    return edit


def _with(block, key, value):
    def edit(doc):
        doc[block][key] = value
    return edit


def _with_top(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _plane(doc, references):
    """``doc`` on the 2-D box [0, 2]^2, with the given ``analysis.references``."""
    doc["system"].update(box=[[0.0, 2.0], [0.0, 2.0]], fields=[["x2", "-x1"], ["-x1", "-x2"]])
    doc["analysis"].update(cells=[10, 10], references=references)


@pytest.mark.parametrize("edit", [
    pytest.param(_without("system", "box"), id="missing-box"),
    pytest.param(_with("system", "h", "abc"), id="h-not-a-number"),
    pytest.param(_without("analysis", "eps"), id="missing-eps"),
    pytest.param(_with("system", "box", [[0.0, 2.0, 3.0]]), id="box-row-of-three"),
    pytest.param(_with("graph", "edges", [[0, 0], [0, 1], [1, 0], [0]]), id="edge-of-one"),
    pytest.param(_with("graph", "edges", [[0, 0], [0, 1], [1, 0], [1, 1.7]]),
                 id="edge-fractional"),
    pytest.param(_with("graph", "edges", [[0, 0], [0, 1], [1, 0], [True, 1]]), id="edge-bool"),
    pytest.param(_with("analysis", "references", [[0]]), id="reference-of-one"),
    pytest.param(_with("analysis", "references", [[2, 0]]), id="reversed-reference"),
    pytest.param(_with("system", "fields", [{"type": "poly1d"}, "x1"]),
                 id="poly1d-without-coeffs"),
    pytest.param(_with("analysis", "eps", float("nan")), id="eps-nan"),
    pytest.param(_with("system", "h", float("nan")), id="h-nan"),
    pytest.param(_with("system", "h", float("inf")), id="h-inf"),
    pytest.param(_with("run", "tol", float("nan")), id="tol-nan"),
    pytest.param(_with("analysis", "references", [[float("nan"), 1.0]]), id="reference-nan"),
    pytest.param(_with("analysis", "q", 3), id="analysis-q"),
    pytest.param(_with("system", "clamp", True), id="system-clamp"),
    pytest.param(_with("analysis", "epsilon", 5), id="analysis-typo"),
    pytest.param(_with_top("rn", {"tol": 5}), id="top-level-typo"),
    pytest.param(_with("graph", "lables", ["A", "B"]), id="graph-typo"),
    pytest.param(_with("analysis", "mode", "free-switching"), id="analysis-mode"),
    pytest.param(_with("analysis", "max_work", -1), id="max-work-negative"),
    pytest.param(_with("analysis", "max_work", 0), id="max-work-zero"),
    pytest.param(_with("analysis", "max_work", float("inf")), id="max-work-inf"),
    pytest.param(_with("analysis", "m", 2.7), id="m-fractional"),
    pytest.param(_with("analysis", "m", True), id="m-bool"),
    pytest.param(_with("analysis", "cells", [100.9]), id="cells-fractional"),
    pytest.param(_with("system", "substeps", 20.5), id="substeps-fractional"),
    pytest.param(_with("graph", "vertices", 2.5), id="vertices-fractional"),
    pytest.param(_with("run", "seed", 1.5), id="seed-fractional"),
    pytest.param(_with("graph", "labels", ["A", "A"]), id="duplicate-labels"),
    pytest.param(_with("graph", "labels", ["A B", "C)"]), id="label-with-space"),
    pytest.param(_with("graph", "labels", ["", "B"]), id="empty-label"),
    # a bool or a string is no real: eps true ran as eps 1.0, h "0.1" as 0.1
    pytest.param(_with("analysis", "eps", True), id="eps-bool"),
    pytest.param(_with("system", "h", "0.1"), id="h-string"),
    pytest.param(_with("system", "box", [[False, 2.0]]), id="box-bool"),
    pytest.param(_with("system", "box", [[0.0, "2"]]), id="box-string"),
    pytest.param(_with("analysis", "references", [[0.0, True]]), id="reference-bool"),
    pytest.param(_with("run", "tol", "1e-10"), id="tol-string"),
    pytest.param(_with("system", "fields", [{"type": "poly1d", "coeffs": [0, "1"]}, "x1"]),
                 id="poly1d-coeff-string"),
    pytest.param(_with("system", "fields", [{"type": "linear", "matrix": [[True]]}, "x1"]),
                 id="linear-entry-bool"),
    # numpy refused a negative seed with a traceback; labels "AB" and
    # {"A": 0, "B": 1} ran as labels A, B; out 5 wrote to a directory "5"
    pytest.param(_with("run", "seed", -1), id="seed-negative"),
    pytest.param(_with("graph", "labels", "AB"), id="labels-string"),
    pytest.param(_with("graph", "labels", {"A": 0, "B": 1}), id="labels-object"),
    pytest.param(_with("run", "out", 5), id="out-number"),
    # the object form {"type": "expr"} repeated the list of strings and ran
    # str() on each component; an object of fields ran on its keys; and
    # references on a 2-D box were ignored, as Hausdorff distances are 1-D
    pytest.param(_with("system", "fields", [{"type": "expr", "components": [1]}, "x1"]),
                 id="expr-form"),
    pytest.param(_with("system", "fields", {"-x1*(x1-1)*(x1-2)": "ignored", "-x1*(x1-2)": None}),
                 id="fields-object"),
    pytest.param(lambda doc: _plane(doc, [[0.0, 1.0]]), id="references-in-2d"),
])
def test_malformed_config_exits_2(edit, tmp_path, capsys):
    doc = json.loads(json.dumps(COMPLETE2))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "--out", str(tmp_path / "o"), "chain-sets"]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and "Traceback" not in err


@pytest.mark.parametrize("edit, message", [
    (_with("system", "fields", {"-x1": 0, "x1": 1}), "system.fields must be a list"),
    (lambda doc: _plane(doc, [[0.0, 1.0]]), "analysis.references"),
], ids=["fields-object", "references-in-2d"])
def test_refused_config_names_the_key(edit, message):
    doc = json.loads(json.dumps(COMPLETE2))
    edit(doc)
    with pytest.raises(ValidationError, match=message):
        ExperimentConfig.from_dict(doc)


def test_vertex_without_in_edge_is_named(tmp_path, capsys):
    doc = json.loads(json.dumps(COMPLETE2))
    doc["graph"]["edges"] = [[0, 0], [1, 0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "--out", str(tmp_path / "o"), "analyze-graph"]) == 2
    err = capsys.readouterr().err
    assert "invalid switching graph: vertices with in-degree 0: [1]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("block, key, value", [
    ("analysis", "m", 2.7), ("analysis", "m", True), ("analysis", "cells", [100.9]),
    ("analysis", "cells", True), ("analysis", "max_work", 1.5),
    ("system", "substeps", 20.5), ("graph", "vertices", 2.5), ("run", "seed", 1.5),
])
def test_non_integral_count_is_named(block, key, value):
    doc = json.loads(json.dumps(COMPLETE2))
    doc.setdefault(block, {})[key] = value
    with pytest.raises(ValidationError, match=f"{key} must be an integer"):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("block, key, value", [
    ("analysis", "eps", True), ("system", "h", "0.1"), ("run", "tol", "1e-10"),
])
def test_non_real_is_named(block, key, value):
    doc = json.loads(json.dumps(COMPLETE2))
    doc[block][key] = value
    with pytest.raises(ValidationError, match=f"{block}.{key} must be a number"):
        ExperimentConfig.from_dict(doc)


def test_whole_float_count_is_a_count():
    doc = json.loads(json.dumps(COMPLETE2))
    doc["analysis"].update(m=2.0, max_work=1e6)
    a = ExperimentConfig.from_dict(doc).analysis
    assert (a.m, a.max_work) == (2, 1_000_000) and type(a.m) is int


CONSTANT_A = "left=(A) core=[] right=(A)"
SIMULATE = ["simulate", "--signal", CONSTANT_A]
PRODUCT = ["metric", "--kind", "product", "--a", CONSTANT_A, "--b", CONSTANT_A]


@pytest.mark.parametrize("config, command", [
    pytest.param(None, [*SIMULATE, "--x0", "abc", "--t-end", "1", "--sample-dt", "0.5"],
                 id="x0-not-a-number"),
    pytest.param(None, [*SIMULATE, "--x0", "0.5,1", "--t-end", "1", "--sample-dt", "0.5"],
                 id="x0-of-two"),
    pytest.param(None, [*SIMULATE, "--x0", "0.5", "--t-end", "nan", "--sample-dt", "0.5"],
                 id="t-end-nan"),
    pytest.param(None, [*SIMULATE, "--x0", "0.5", "--t-end", "1", "--sample-dt", "nan"],
                 id="sample-dt-nan"),
    pytest.param(None, [*SIMULATE, "--x0", "0.5", "--t-end", "1", "--sample-dt", "inf"],
                 id="sample-dt-inf"),
    pytest.param(None, [*PRODUCT, "--x", "1,abc", "--y", "0.5"], id="x-not-a-number"),
    pytest.param(None, [*PRODUCT, "--x", "1,2", "--y", "0.5"], id="x-of-two"),
    pytest.param(None, [*PRODUCT, "--x", "1", "--y", "0.5,1,2"], id="y-of-three"),
    pytest.param(None, ["metric", "--kind", "delta", "--a", "left=(A) right=(B) tua=0.3",
                        "--b", CONSTANT_A], id="signal-key-typo"),
    pytest.param(None, ["metric", "--kind", "omega", "--a", "left=(A) right=(B) tau=0.5",
                        "--b", CONSTANT_A], id="sequence-with-tau"),
    pytest.param("missing.json", ["analyze-graph"], id="missing-config"),
    pytest.param(".", ["analyze-graph"], id="config-is-a-directory"),
])
def test_bad_cli_input_exits_2(config, command, config_path, tmp_path, capsys):
    path = config_path if config is None else tmp_path / config
    assert main(["--config", str(path), "--out", str(tmp_path / "o"), *command]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and "Traceback" not in err


@pytest.mark.parametrize("field", [
    pytest.param({"type": "poly1d", "coeffs": [0.0, -1.0]}, id="poly1d"),
    pytest.param({"type": "linear", "matrix": [[-1.0]]}, id="linear"),
    pytest.param({"type": "poly1d", "coeffs": [0.0, -1.0], "matrix": [[2]]}, id="poly1d-stray-key"),
    pytest.param({"type": "linear", "matrix": [[-1.0]], "coeffs": [1.0]}, id="linear-stray-key"),
])
def test_object_field_exits_2(field, tmp_path, capsys):
    # a field is expression text: an object entry, named or not, is refused
    doc = json.loads(json.dumps(COMPLETE2))
    doc["system"]["fields"][0] = field
    path = tmp_path / "object.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "--out", str(tmp_path / "o"), "chain-sets"]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and "cannot interpret field entry" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("constant", ["(-1.0)**0.5", "0.0**-1", "10.0**400", "10**400",
                                      "cos(2)**0.5", "exp(1000)**1", "9**9**9", "1/0",
                                      "1e308*10", "exp(1000)"])
def test_bad_constant_power_exits_2(constant, tmp_path, capsys):
    # 9**9**9 would run without bound if Python computed it
    doc = json.loads(json.dumps(COMPLETE2))
    expr = f"-x1 + {constant}"
    doc["system"]["fields"][0] = expr
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "--out", str(tmp_path / "o"), *SIMULATE,
                 "--x0", "0.5", "--t-end", "0.2", "--sample-dt", "0.1"]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and repr(expr) in err and "Traceback" not in err


def test_simulate_infinite_t_end_exits_2_at_once(config_path, tmp_path):
    # a fresh interpreter with a timeout, so that an endless loop fails the test
    src = Path(switchflow.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "switchflow.cli", "--config", str(config_path),
         "--out", str(tmp_path / "o"), *SIMULATE, "--x0", "0.5",
         "--t-end", "inf", "--sample-dt", "0.5"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 2
    assert "validation error" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("t_end, sample_dt", [
    # 1e12 samples would run until killed
    pytest.param("1", "1e-12", id="samples"),
    # one sample, but across 1e8 signal cells of h = 0.1, each its own
    # integration: about 50 minutes
    pytest.param("1e7", "1e7", id="cells"),
])
def test_simulate_too_many_samples_exits_4_at_once(tmp_path, t_end, sample_dt):
    # the guard refuses them up front
    src = Path(switchflow.__file__).resolve().parents[1]
    config = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "two_well_complete.json"
    done = subprocess.run(
        [sys.executable, "-m", "switchflow.cli", "--config", str(config),
         "--out", str(tmp_path / "o"), *SIMULATE, "--x0", "0.5",
         "--t-end", t_end, "--sample-dt", sample_dt],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 4
    assert "resource guard" in done.stderr and "Traceback" not in done.stderr


def test_simulate_reaches_a_small_t_end(config_path, tmp_path):
    # an absolute 1e-12 stop margin swallowed the whole of t_end = 1e-13
    out = tmp_path / "o"
    assert main(["--config", str(config_path), "--out", str(out), *SIMULATE, "--x0", "0.5",
                 "--t-end", "1e-13", "--sample-dt", "1e-14"]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[2:]
    assert len(rows) == 11
    assert float(rows[-1].split(",")[0]) == pytest.approx(1e-13)


@pytest.mark.parametrize("links, window, code, message", [
    # 10**6 links would hold about 10**13 symbols
    (1_000_000, 5, 4, "resource guard"),
    # a window below 1 must not turn the symbol bound negative
    (1_000_000, -5, 2, "validation error"),
    (0, 5, 2, "validation error"),
])
def test_stitch_demo_refused_before_any_signal_is_built(links, window, code, message,
                                                        monkeypatch, config_path,
                                                        tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("signal built before the input checks")

    monkeypatch.setattr(cli, "sigma_embed", refuse)
    assert main(["--config", str(config_path), "--out", str(tmp_path / "o"), "stitch-demo",
                 "--links", str(links), "--window", str(window)]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_stitch_demo_draws_empty_cores(tmp_path):
    # a core drawn with length 0 is empty: f_head, written unstitched as the
    # first signal, has one within a few seeds
    heads = []
    for seed in range(8):
        doc = json.loads(json.dumps(COMPLETE2))
        doc["run"]["seed"] = seed
        path = tmp_path / f"seed{seed}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / f"o{seed}"
        assert main(["--config", str(path), "--out", str(out), "stitch-demo"]) == 0
        heads.append(json.loads((out / "stitch_demo.json").read_text())["signals"][0])
    assert any("core=[]" in head for head in heads), heads


def test_chain_sets_too_many_words_exits_4_before_listing_them(monkeypatch, tmp_path, capsys):
    # 2**40 words of length 40: refused from walk counts, before any is listed
    def refuse(*args):
        raise AssertionError("words listed before the work guard")

    monkeypatch.setattr(chains, "enumerate_admissible_words", refuse)
    doc = json.loads(json.dumps(COMPLETE2))
    doc["analysis"]["m"] = 40
    path = tmp_path / "long_words.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "--out", str(tmp_path / "o"), "chain-sets"]) == 4
    err = capsys.readouterr().err
    assert "resource guard" in err and "Traceback" not in err


def test_chain_sets_batch_overflow_exits_3(tmp_path, capsys):
    # the link images of a constant 1e308 overflow in the batch RK4; with
    # warnings as errors, as pytest runs them, the finiteness check alone
    # reports it
    doc = json.loads(json.dumps(COMPLETE2))
    doc["system"]["fields"] = ["1e308", "-x1"]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "--out", str(tmp_path / "o"), "chain-sets"]) == 3
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err


# sha256 of the files each command writes for scripts/configs, recorded
# before chain-sets computed its centres once per component, and re-recorded
# when the keys analysis.q, system.clamp and parameters.q left the outputs
# (nothing else in them changed), and again when analysis.mode and
# parameters.mode left them (two_well_cycle's components, whose sizes had
# counted (cell, vertex) nodes, also came out re-sorted by cell count).
# plane2d was recorded before the rounding-margin row query.
CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"
FROZEN_OUTPUTS = {
    ("plane2d", "chain-sets"): {
        "components.csv": "c2f0144557ec467ad43f9a4781f61a128de7c4a99a9b8637fa7f149ed5eeb40c",
        "chain_summary.json": "a4aae88c141a62cc80f8b4fcc14af3245ebb31c1a55c71146d347fbbf80fb93a"},
    ("plane2d", "analyze-graph"): {
        "graph_analysis.json": "906f16a62bc9b13e99a08ad902eae078fdbc7de89473c9bec52f8c1a98e542f1"},
    ("sine_curve_reduced", "chain-sets"): {
        "components.csv": "34df419be45c8465ee86be9c426315b63c5a10ad25137184cf1b0fa5c2d08529",
        "chain_summary.json": "33a1014479a5addd896cbbd2b1ecac2506f8b41e217d303ed325f1ef4b02eb51"},
    ("two_well_complete", "chain-sets"): {
        "components.csv": "d6a586653b8a128113340c663d509ab15be36436d04611a11954eb24ed4b5480",
        "chain_summary.json": "01cb4b44363a492f8594544e57e60838171f4bc6f0bb7a1dd6f35045b6a8751e"},
    ("two_well_cycle", "chain-sets"): {
        "components.csv": "0c031a20af6ea712a787e0c876f25222c81daa0ca68cae9b19ce68af0a41037c",
        "chain_summary.json": "3c4134a6c2ab7c6670dc1b8aea5b7a6091cb7b45d8bac85eafb47cbfcc275ad8"},
    ("sine_curve_reduced", "analyze-graph"): {
        "graph_analysis.json": "e0b531faa87160b1a04a6b5ff2e580eec741af0abfee3a4bee9e8d5ba6ea8922"},
    ("two_well_complete", "analyze-graph"): {
        "graph_analysis.json": "d6eb3fd00f20b55f67333a5481d97395a9e5365bf9529cf9e0e2d8a5435e024e"},
    ("two_well_cycle", "analyze-graph"): {
        "graph_analysis.json": "aa6c4308d8c518c60ffd6115eaee4b480e388a67cab56bbae724e41e62ffdb3d"},
}


@pytest.mark.parametrize("name, command", sorted(FROZEN_OUTPUTS))
def test_config_outputs_frozen(name, command, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["--config", str(CONFIG_DIR / f"{name}.json"), "--out", str(out),
                 command]) == 0
    expected = FROZEN_OUTPUTS[(name, command)]
    assert {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in expected} == expected


# Van der Pol (A, with x1**2) against a stable focus (B), the benchmark's plane2d system.
PLANE2D = {
    "graph": COMPLETE2["graph"],
    "system": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 6.0, "substeps": 20,
               "fields": [["x2", "-x1+(1-x1**2)*x2"], ["-x1+x2", "-x1-x2"]]},
    "analysis": {"cells": [20, 20], "eps": 0.05, "m": 6, "references": []},
    "run": {"seed": 0, "out": "o", "tol": 1e-10},
}

# sha256 of simulate's trajectory.csv, which flows one lone point per
# sample; recorded before fields were evaluated on coordinate columns.  The
# config is a file under scripts/configs or a document; plane2d.json runs
# with the arguments of the CI smoke run, recorded before field code was
# printed by ast.unparse.
FROZEN_TRAJECTORIES = {
    "two_well_complete": (
        "two_well_complete", ["--x0", "0.5", "--signal", "left=(B) core=[] right=(B)",
                              "--t-end", "3.0", "--sample-dt", "0.1"],
        "6407a62fa5aac62a746c06725cab1e02935429ae689fd48bf483aa0f24dafaf7"),
    "plane2d": (
        PLANE2D, ["--x0", "0.5,-0.3", "--signal", "left=(A B) core=[A A B] right=(B)",
                  "--t-end", "3.0", "--sample-dt", "0.1"],
        "2ea6b6cdb980fe1bcf394e5942ef3b6c53c1b1f40ceec1b56a4b05dc2184c330"),
    "plane2d_config": (
        "plane2d", ["--x0", "0.5,0.1", "--signal", "left=(A) core=[A B B] right=(B A) tau=0.05",
                    "--t-end", "3.0", "--sample-dt", "0.1"],
        "d2f7f825f53a67aec75566ecee57224b46bf431592a1c9519890aec61189afa4"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_TRAJECTORIES))
def test_simulate_trajectory_frozen(name, tmp_path, capsys):
    doc, args, expected = FROZEN_TRAJECTORIES[name]
    if isinstance(doc, str):
        config = CONFIG_DIR / f"{doc}.json"
    else:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["--config", str(config), "--out", str(out), "simulate", *args]) == 0
    assert hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest() == expected


# sha256 of stitch-demo's file and of metric's stdout on two_well_complete.json
# with the arguments of the signal demos and the CI smoke run; recorded before
# field code was printed by ast.unparse.
FROZEN_COMMANDS = {
    "stitch-demo": (["stitch-demo", "--links", "4", "--window", "5"], "stitch_demo.json",
                    "8fd67a8506a9076e98d6c6f9adbe23a24939fe6cb8c033a054a7955ce298765d"),
    "metric product": (
        ["metric", "--kind", "product", "--x", "0.5", "--y", "0.52",
         "--a", "left=(A) core=[B A] right=(A B) tau=0.03",
         "--b", "left=(A) core=[A A] right=(A B) tau=0.03"], None,
        "b1d6cc6e185f5bf8acc9760241cf7f34149e7fd4fcefbf5966314943efec4f1f"),
    "metric omega": (
        ["metric", "--kind", "omega", "--check-isometry",
         "--a", "left=(A) core=[] right=(A)", "--b", "left=(B) core=[] right=(B)"], None,
        "3ff939cf71e988177594c217c96c70df7f04a2ab12c7911a51809255a3b270bc"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_COMMANDS))
def test_command_output_frozen(name, tmp_path, capsys):
    """The named file the command writes, or its stdout when none is named."""
    args, written, expected = FROZEN_COMMANDS[name]
    out = tmp_path / "o"
    assert main(["--config", str(CONFIG_DIR / "two_well_complete.json"), "--out", str(out),
                 *args]) == 0
    stdout = capsys.readouterr().out.encode()
    data = stdout if written is None else (out / written).read_bytes()
    assert hashlib.sha256(data).hexdigest() == expected


class TestCommands:
    def test_analyze_graph(self, config_path, tmp_path, capsys):
        code = main(["--config", str(config_path), "--out", str(tmp_path / "o"),
                     "analyze-graph"])
        assert code == 0
        doc = json.loads((tmp_path / "o" / "graph_analysis.json").read_text())
        assert doc["components"] == [["A", "B"]]
        assert doc["certificates"][0]["kind"] == "chaotic"
        assert doc["certificates"][0]["witness"] == "A"
        assert "config" in doc

    def test_analyze_graph_cycle_periodic(self, tmp_path):
        doc = json.loads(json.dumps(COMPLETE2))
        doc["graph"] = {"vertices": 2, "edges": [[0, 1], [1, 0]], "labels": ["A", "B"]}
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(doc))
        code = main(["--config", str(path), "--out", str(tmp_path / "o"),
                     "analyze-graph"])
        assert code == 0
        out = json.loads((tmp_path / "o" / "graph_analysis.json").read_text())
        assert out["certificates"][0] == {"component": 0, "kind": "periodic_orbit",
                                          "orbit": ["A", "B"]}

    def test_analyze_graph_two_components(self, tmp_path):
        doc = json.loads(json.dumps(COMPLETE2))
        doc["graph"] = {"vertices": 2, "edges": [[0, 0], [0, 1], [1, 1]]}
        doc["system"]["fields"] = ["-x1", "x1"]
        path = tmp_path / "split.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "--out", str(tmp_path / "o"),
                     "analyze-graph"]) == 0
        out = json.loads((tmp_path / "o" / "graph_analysis.json").read_text())
        assert out["components"] == [["0"], ["1"]]
        assert [0, 1] in out["order_pairs"]

    def test_invalid_graph_exit_code(self, tmp_path):
        doc = json.loads(json.dumps(COMPLETE2))
        doc["graph"] = {"vertices": 2, "edges": [[0, 0], [0, 1]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "analyze-graph"]) == 2

    def test_simulate_drift_directions(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert main(["--config", str(config_path), "--out", str(out), "simulate",
                     "--x0", "0.5", "--signal", "left=(B) core=[] right=(B)",
                     "--t-end", "2.0", "--sample-dt", "0.2"]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[0].startswith("# config=")
        assert rows[1] == "t,x1,active_vertex"
        xs = [float(line.split(",")[1]) for line in rows[2:]]
        assert all(b > a for a, b in zip(xs, xs[1:]))  # B drives upward
        # constant A from 0.5 decays toward 0
        assert main(["--config", str(config_path), "--out", str(out), "simulate",
                     "--x0", "0.5", "--signal", "left=(A) core=[] right=(A)",
                     "--t-end", "2.0", "--sample-dt", "0.2"]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        xs = [float(line.split(",")[1]) for line in rows[2:]]
        assert all(b < a for a, b in zip(xs, xs[1:]))

    def test_simulate_outside_box_rejected(self, config_path, tmp_path):
        assert main(["--config", str(config_path), "--out", str(tmp_path), "simulate",
                     "--x0", "5.0", "--signal", "left=(A) core=[] right=(A)",
                     "--t-end", "1.0", "--sample-dt", "0.5"]) == 2

    def test_metric_identical_zero(self, config_path, capsys):
        assert main(["--config", str(config_path), "metric", "--kind", "delta",
                     "--a", "left=(A) core=[] right=(A)",
                     "--b", "left=(A) core=[] right=(A)"]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["value"] == 0.0

    def test_metric_isometry_flag(self, config_path, capsys):
        assert main(["--config", str(config_path), "metric", "--kind", "omega",
                     "--check-isometry",
                     "--a", "left=(A) core=[] right=(A)",
                     "--b", "left=(B) core=[] right=(B)"]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["value"] == pytest.approx(5.0 / 3.0, abs=1e-9)
        assert out["isometry_ok"] is True

    def test_metric_parse_error_exit(self, config_path):
        assert main(["--config", str(config_path), "metric", "--kind", "omega",
                     "--a", "left=(A", "--b", "left=(A) core=[] right=(A)"]) == 2

    def test_metric_product_sums_parts(self, config_path, capsys):
        assert main(["--config", str(config_path), "metric", "--kind", "product",
                     "--a", "left=(A) core=[] right=(A)",
                     "--b", "left=(B) core=[] right=(B)",
                     "--x", "0.0", "--y", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["value"] == pytest.approx(0.5 + 5.0 / 3.0, abs=1e-9)

    def test_numeric_failure_exit_code(self, tmp_path):
        doc = json.loads(json.dumps(COMPLETE2))
        doc["system"] = {"box": [[-1e308, 1e308]], "h": 1.0, "substeps": 1,
                         "fields": ["x1*x1*x1", "x1*x1*x1"]}
        del doc["analysis"]
        path = tmp_path / "blow.json"
        path.write_text(json.dumps(doc))
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["--config", str(path), "--out", str(tmp_path / "o"),
                         "simulate", "--x0", "1e150", "--signal",
                         "left=(A) core=[] right=(A)", "--t-end", "10.0",
                         "--sample-dt", "1.0"])
        assert code == 3
        assert (tmp_path / "o" / "trajectory_partial.csv").exists()

    def test_division_by_zero_exits_3(self, tmp_path, capsys):
        # the lone point divides by zero at its first field evaluation
        doc = json.loads(json.dumps(COMPLETE2))
        doc["system"]["fields"] = ["1/(x1-0.5)", "-x1"]
        path = tmp_path / "pole.json"
        path.write_text(json.dumps(doc))
        with np.errstate(divide="ignore"):  # the batch of one it is rerun as gives inf
            code = main(["--config", str(path), "--out", str(tmp_path / "o"), *SIMULATE,
                         "--x0", "0.5", "--t-end", "1.0", "--sample-dt", "0.5"])
        assert code == 3
        assert "Traceback" not in capsys.readouterr().err
        rows = (tmp_path / "o" / "trajectory_partial.csv").read_text().splitlines()
        assert rows[-2:] == ["t,x1,active_vertex", "0.0,0.5,A"]

    def test_chain_sets_outputs(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert main(["--config", str(config_path), "--out", str(out),
                     "chain-sets"]) == 0
        summary = json.loads((out / "chain_summary.json").read_text())
        assert summary["component_count"] >= 2
        assert summary["components"][0]["hausdorff_to_references"]
        csv_lines = (out / "components.csv").read_text().splitlines()
        assert csv_lines[1] == "component_id,cell_index,center_x1"

    def test_chain_sets_resource_guard(self, tmp_path):
        doc = json.loads(json.dumps(COMPLETE2))
        doc["analysis"]["max_work"] = 10
        path = tmp_path / "guard.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "--out", str(tmp_path / "o"),
                     "chain-sets"]) == 4

    def test_chain_sets_loads_no_scipy(self, config_path, tmp_path):
        # a fresh interpreter, since other tests may import scipy
        src = Path(switchflow.__file__).resolve().parents[1]
        script = (
            "import sys\n"
            "from switchflow.cli import main\n"
            f"assert main(['--config', {str(config_path)!r}, '--out', "
            f"{str(tmp_path / 'o')!r}, 'chain-sets']) == 0\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n")
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_stitch_demo_bound(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert main(["--config", str(config_path), "--out", str(out),
                     "stitch-demo", "--links", "3", "--window", "5"]) == 0
        doc = json.loads((out / "stitch_demo.json").read_text())
        assert doc["all_below_bound"] is True
        assert len(doc["gaps"]) == len(doc["signals"]) - 1

    def test_stitch_demo_needs_complete_graph(self, tmp_path):
        doc = json.loads(json.dumps(COMPLETE2))
        doc["graph"] = {"vertices": 2, "edges": [[0, 1], [1, 0]]}
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "--out", str(tmp_path / "o"),
                     "stitch-demo"]) == 2

    def test_outputs_deterministic(self, config_path, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert main(["--config", str(config_path), "--out", str(out),
                         "chain-sets"]) == 0
        assert (out1 / "components.csv").read_bytes() == \
            (out2 / "components.csv").read_bytes()
        assert (out1 / "chain_summary.json").read_bytes() == \
            (out2 / "chain_summary.json").read_bytes()

    def test_provenance_embedded_everywhere(self, config_path, tmp_path):
        out = tmp_path / "o"
        main(["--config", str(config_path), "--out", str(out), "chain-sets"])
        summary = json.loads((out / "chain_summary.json").read_text())
        assert summary["config"]["system"]["h"] == 0.1
        first = (out / "components.csv").read_text().splitlines()[0]
        assert json.loads(first.removeprefix("# config="))["system"]["h"] == 0.1
