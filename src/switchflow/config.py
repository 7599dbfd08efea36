"""Experiment configuration: one JSON document per reproducible run.

Blocks: ``graph`` (switching rules), ``system`` (box, step, fields),
``analysis`` (grid and chain parameters), ``run`` (seed, output, tolerance).
The resolved configuration is embedded verbatim in every output file.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .fields import VectorField, field_from_config
from .flow import SwitchedSystem
from .graph import DirectedGraph, ValidationError, require_int, require_real, require_valid


@dataclass(frozen=True)
class AnalysisConfig:
    cells: tuple[int, ...]
    eps: float
    m: int = 1
    max_work: int = 2_000_000
    references: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not 0 < self.eps < math.inf:
            raise ValidationError("analysis.eps must be positive and finite")
        if self.max_work < 1:
            raise ValidationError("analysis.max_work must be a positive integer")
        if not all(-math.inf < lo <= hi < math.inf for lo, hi in self.references):
            raise ValidationError("analysis.references must be finite intervals [lo, hi] "
                                  "with lo <= hi")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out: str = "out"
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValidationError(f"run.seed must be non-negative, got {self.seed}")
        if not isinstance(self.out, str):
            raise ValidationError(f"run.out must be a string, got {self.out!r}")
        if not 0 < self.tol < math.inf:
            raise ValidationError("run.tol must be positive and finite")


def _block(doc: dict, name: str | None, keys: str) -> dict:
    """The ``name`` block of ``doc`` (empty if absent), or ``doc`` itself if
    ``name`` is None; keys outside the space-separated ``keys`` are rejected."""
    block = doc if name is None else doc.get(name, {})
    if not isinstance(block, dict):
        raise ValidationError(f"{name or 'config'} must be an object")
    unknown = sorted(set(block) - set(keys.split()))
    if unknown:
        prefix = "" if name is None else f"{name}."
        raise ValidationError("unknown config key " + ", ".join(prefix + k for k in unknown))
    return block


@dataclass(frozen=True)
class ExperimentConfig:
    graph: DirectedGraph
    system: SwitchedSystem
    analysis: AnalysisConfig | None
    run: RunConfig
    raw: dict = field(repr=False, compare=False, default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Parse and validate a config document; any malformed entry raises
        ``ValidationError``."""
        try:
            return cls._from_dict(doc)
        except ValidationError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            what = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            raise ValidationError(f"malformed config: {what}") from exc

    @classmethod
    def _from_dict(cls, doc: dict) -> "ExperimentConfig":
        _block(doc, None, "graph system analysis run")
        if "graph" not in doc or "system" not in doc:
            raise ValidationError("config needs 'graph' and 'system' blocks")
        graph = require_valid(DirectedGraph.from_json_dict(
            _block(doc, "graph", "vertices edges labels")))

        sysdoc = _block(doc, "system", "box h substeps fields")
        box = tuple((require_real(lo, "system.box"), require_real(hi, "system.box"))
                    for lo, hi in sysdoc["box"])
        dim = len(box)
        raw_fields = sysdoc["fields"]
        if len(raw_fields) != graph.n:
            raise ValidationError(
                f"system.fields has {len(raw_fields)} entries but the graph "
                f"has {graph.n} vertices")
        fields: tuple[VectorField, ...] = tuple(
            field_from_config(sp, dim) for sp in raw_fields)
        system = SwitchedSystem(
            graph=graph, box=box, step=require_real(sysdoc["h"], "system.h"), fields=fields,
            substeps=require_int(sysdoc.get("substeps", 20), "system.substeps"))

        analysis = None
        if "analysis" in doc:
            a = _block(doc, "analysis", "cells eps m max_work references")
            cells = a["cells"]
            if not isinstance(cells, (list, tuple)):
                cells = [cells] * dim
            refs = tuple((require_real(lo, "analysis.references"),
                          require_real(hi, "analysis.references"))
                         for lo, hi in a.get("references", []))
            analysis = AnalysisConfig(
                cells=tuple(require_int(c, "analysis.cells") for c in cells),
                eps=require_real(a["eps"], "analysis.eps"),
                m=require_int(a.get("m", 1), "analysis.m"),
                max_work=require_int(a.get("max_work", 2_000_000), "analysis.max_work"),
                references=refs)
            if len(analysis.cells) != dim:
                raise ValidationError("analysis.cells must give one count per axis")

        r = _block(doc, "run", "seed out tol")
        run = RunConfig(seed=require_int(r.get("seed", 0), "run.seed"),
                        out=r.get("out", "out"),
                        tol=require_real(r.get("tol", 1e-10), "run.tol"))
        return cls(graph, system, analysis, run, raw=doc)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"config {path}: cannot read: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config {path}: invalid JSON at line "
                                  f"{exc.lineno} column {exc.colno}: {exc.msg}") from exc
        return cls.from_dict(doc)

    def resolved(self) -> dict:
        """Fully resolved configuration for provenance headers."""
        doc: dict = {
            "graph": {
                "vertices": self.graph.n,
                "edges": sorted([list(e) for e in self.graph.edges]),
            },
            "system": {
                "box": [list(b) for b in self.system.box],
                "h": self.system.step,
                "substeps": self.system.substeps,
                "fields": self.raw.get("system", {}).get("fields"),
            },
            "run": asdict(self.run),
        }
        if self.graph.labels:
            doc["graph"]["labels"] = list(self.graph.labels)
        if self.analysis is not None:
            doc["analysis"] = asdict(self.analysis)
        return doc

    def provenance_json(self) -> str:
        return json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
