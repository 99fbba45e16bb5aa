"""Scenario specs: the declarative surface of the chaos harness.

A scenario is one document — a Python dict, a YAML file, or YAML text —
declaring five things (the k-eval config/runner split the ROADMAP names):

- ``topology``: what serves the traffic — ``single`` filter, ``sharded``
  fleet (optionally ``durable`` for crash events), ``replicated``
  remote replica sets over a :class:`~repro.db.faults.FaultyNetwork`,
  a ``procpool`` of worker processes, or a multi-tenant ``tenants``
  directory;
- ``workload``: key distribution (``zipf`` / ``uniform`` /
  ``adversarial`` hot-set), op mix (``insert`` / ``delete`` / ``query``
  / ``contains`` plus bulk bursts), and arrival pattern (``closed``
  one-at-a-time or ``open`` rate-driven on the simulated clock) with an
  optional per-op end-to-end ``deadline``;
- ``phases``: named traffic segments, each overriding mix/arrival;
- ``faults``: the schedule — events fired at global op indices or phase
  starts (see :mod:`repro.scenario.faults` for the action vocabulary);
- ``oracle``: checker knobs — audit sample size, per-phase availability
  floors, ambiguity tolerance (see :mod:`repro.scenario.oracle`).

:func:`load_spec` normalises any of the three input forms into one
validated plain dict (defaults applied, unknown keys rejected) so the
runner never guesses.  YAML goes through one parser,
:func:`parse_simple_yaml`, a small block-style subset parser (nested
mappings, lists, scalars, comments) sufficient for every spec under
``specs/``, so a spec parses the same wherever it runs — the harness
needs no YAML library (the test suite checks it against PyYAML when
that is installed).
"""

from __future__ import annotations

import os

__all__ = ["load_spec", "parse_simple_yaml", "SpecError",
           "TOPOLOGY_KINDS", "VERBS"]

#: topology rungs the builder knows (the serving-stack ladder)
TOPOLOGY_KINDS = ("single", "sharded", "replicated", "procpool", "tenants")

#: op verbs a workload mix may weight
VERBS = ("insert", "delete", "query", "contains")


class SpecError(ValueError):
    """A scenario document failed validation."""


# --------------------------------------------------------------------------
# Minimal YAML-subset parsing (fallback when PyYAML is absent)
# --------------------------------------------------------------------------

def _scalar(text: str):
    """Parse one YAML scalar: null/bool/int/float/quoted/plain string."""
    text = text.strip()
    if text in ("", "~", "null", "Null", "NULL"):
        return None
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    try:
        return int(text, 0)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _strip_comment(line: str) -> str:
    """Drop a trailing ``#`` comment (quote-aware enough for specs)."""
    quote = None
    for i, ch in enumerate(line):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch == "#" and (i == 0 or line[i - 1] in " \t"):
            return line[:i]
    return line


def _logical_lines(text: str) -> list[tuple[int, str]]:
    lines: list[tuple[int, str]] = []
    for raw in text.splitlines():
        line = _strip_comment(raw).rstrip()
        if not line.strip() or line.strip() == "---":
            continue
        indent = len(line) - len(line.lstrip(" "))
        lines.append((indent, line.strip()))
    return lines


def _parse_block(lines: list[tuple[int, str]], pos: int, indent: int,
                 ) -> tuple[object, int]:
    """Parse the block starting at *pos* whose items sit at *indent*."""
    if pos >= len(lines):
        return None, pos
    if lines[pos][1].startswith("- "):
        return _parse_list(lines, pos, indent)
    return _parse_map(lines, pos, indent)


def _parse_map(lines, pos: int, indent: int) -> tuple[dict, int]:
    result: dict = {}
    while pos < len(lines):
        line_indent, content = lines[pos]
        if line_indent < indent:
            break
        if line_indent > indent or content.startswith("- "):
            raise SpecError(f"bad YAML structure near {content!r}")
        if ":" not in content:
            raise SpecError(f"expected 'key: value', got {content!r}")
        key, _, rest = content.partition(":")
        key = _scalar(key)
        rest = rest.strip()
        pos += 1
        if rest:
            result[key] = _scalar(rest)
        elif pos < len(lines) and lines[pos][0] > indent:
            result[key], pos = _parse_block(lines, pos, lines[pos][0])
        else:
            result[key] = None
    return result, pos


def _parse_list(lines, pos: int, indent: int) -> tuple[list, int]:
    result: list = []
    while pos < len(lines):
        line_indent, content = lines[pos]
        if line_indent < indent or not content.startswith("- "):
            break
        item_text = content[2:].strip()
        # The "- key: value" form opens an inline mapping whose further
        # keys sit at the dash's indent + 2 on the following lines.
        if ":" in item_text and not item_text.startswith(("'", '"')):
            inner_indent = indent + 2
            lines.insert(pos + 1, (inner_indent, item_text))
            del lines[pos]
            item, pos = _parse_map(lines, pos, inner_indent)
            result.append(item)
        else:
            result.append(_scalar(item_text))
            pos += 1
    return result, pos


def parse_simple_yaml(text: str) -> dict:
    """Parse the block-style YAML subset the shipped specs use.

    Supports nested mappings, ``- `` item lists (scalars or mappings),
    comments, and the usual scalars.  Flow style (``{...}``/``[...]``),
    anchors, multi-line strings, and multi-document files are out of
    scope — a spec needing them should be written as a Python dict.
    """
    lines = _logical_lines(text)
    if not lines:
        return {}
    value, pos = _parse_block(lines, 0, lines[0][0])
    if pos != len(lines):
        raise SpecError(
            f"trailing unparsed YAML near {lines[pos][1]!r}")
    if not isinstance(value, dict):
        raise SpecError(f"a scenario spec must be a mapping, "
                        f"got {type(value).__name__}")
    return value


# --------------------------------------------------------------------------
# Normalisation / validation
# --------------------------------------------------------------------------

_TOPOLOGY_DEFAULTS = {
    "kind": "sharded", "shards": 4, "m": 1 << 14, "k": 4,
    "method": "ms", "backend": "array", "hash_family": "blocked",
    "durable": False, "fsync": "checkpoint",
    "rf": 3, "read_consistency": "quorum", "write_consistency": "one",
    "eject_after": 3, "probe_every": 1 << 30,
    "breaker": None, "hedge": None, "retry_budget": None,
    "wire_latency": 0.0005, "max_retries": 3,
    "base_backoff": 0.01, "max_backoff": 0.05,
    "tenants": None,
}

_ENGINE_DEFAULTS = {
    "max_queue": 1024, "batch_size": 64, "policy": "reject_new",
    "maintenance_every": 64,
}

_KEYS_DEFAULTS = {
    "dist": "zipf", "n": 2000, "skew": 1.1,
    "hot": 8, "hot_fraction": 0.9,
}

_WORKLOAD_DEFAULTS = {
    "mix": None,              # filled below
    "arrival": None,          # filled below
    "deadline": None,
    "insert_count_max": 3,
    "absent_fraction": 0.1,
    "contains_threshold": 2,
    "bulk_size": 16,
    "bulk_fraction": 0.0,
}

_ARRIVAL_DEFAULTS = {
    "pattern": "closed", "spacing": 0.0002,
    "rate": 1000.0, "tick": 0.01, "pumps_per_tick": 1,
}

_ORACLE_DEFAULTS = {
    "audit_sample": 200,
    "min_availability": 0.0,      # float, or {phase: float}
    "max_ambiguous": None,        # None = unbounded (still reported)
    "conservation": True,
    "settle": True,
}

_PHASE_KEYS = {"name", "ops", "mix", "arrival", "deadline"}
_TOP_KEYS = {"name", "description", "seed", "topology", "engine",
             "workload", "phases", "faults", "oracle"}


def _merged(defaults: dict, given: object, what: str) -> dict:
    if given is None:
        return dict(defaults)
    if not isinstance(given, dict):
        raise SpecError(f"{what} must be a mapping, got {given!r}")
    unknown = set(given) - set(defaults)
    if unknown:
        raise SpecError(f"{what} has unknown key(s) {sorted(unknown)}; "
                        f"known: {sorted(defaults)}")
    merged = dict(defaults)
    merged.update(given)
    return merged


def _check_mix(mix: object) -> dict:
    if mix is None:
        mix = {"insert": 0.3, "query": 0.7}
    if not isinstance(mix, dict) or not mix:
        raise SpecError(f"mix must be a non-empty mapping, got {mix!r}")
    unknown = set(mix) - set(VERBS)
    if unknown:
        raise SpecError(f"mix has unknown verb(s) {sorted(unknown)}; "
                        f"known: {list(VERBS)}")
    total = sum(float(p) for p in mix.values())
    if total <= 0 or any(float(p) < 0 for p in mix.values()):
        raise SpecError(f"mix weights must be >= 0 and sum > 0: {mix!r}")
    return {verb: float(p) / total for verb, p in mix.items()}


def load_spec(source: object) -> dict:
    """Normalise a scenario document into one validated dict.

    *source* may be a dict (taken as-is), YAML text, or a path to a
    ``.yaml``/``.yml`` file.  Returns a fresh dict with every default
    applied; raises :class:`SpecError` on anything malformed.
    """
    if isinstance(source, dict):
        document = dict(source)
    elif isinstance(source, (str, os.PathLike)):
        text = str(source)
        if text.endswith((".yaml", ".yml")) or os.path.exists(text):
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        document = parse_simple_yaml(text)
    else:
        raise SpecError(f"cannot load a spec from {type(source).__name__}")

    unknown = set(document) - _TOP_KEYS
    if unknown:
        raise SpecError(f"spec has unknown key(s) {sorted(unknown)}; "
                        f"known: {sorted(_TOP_KEYS)}")
    name = document.get("name")
    if not name or not isinstance(name, str):
        raise SpecError("a scenario needs a string 'name'")

    spec: dict = {
        "name": name,
        "description": str(document.get("description", "")),
        "seed": int(document.get("seed", 0)),
    }
    topology = _merged(_TOPOLOGY_DEFAULTS, document.get("topology"),
                       "topology")
    if topology["kind"] not in TOPOLOGY_KINDS:
        raise SpecError(f"topology.kind must be one of {TOPOLOGY_KINDS}, "
                        f"got {topology['kind']!r}")
    if topology["kind"] == "single":
        topology["shards"] = 1
    if topology["kind"] == "tenants" and not topology["tenants"]:
        raise SpecError("a 'tenants' topology needs a tenants list")
    if topology["shards"] < 1:
        raise SpecError(f"topology.shards must be >= 1, "
                        f"got {topology['shards']}")
    spec["topology"] = topology
    spec["engine"] = _merged(_ENGINE_DEFAULTS, document.get("engine"),
                             "engine")
    if spec["engine"]["policy"] not in ("reject_new", "shed_oldest"):
        raise SpecError(f"engine.policy must be reject_new or shed_oldest, "
                        f"got {spec['engine']['policy']!r}")

    workload_doc = document.get("workload") or {}
    if not isinstance(workload_doc, dict):
        raise SpecError(f"workload must be a mapping, got {workload_doc!r}")
    keys = _merged(_KEYS_DEFAULTS, workload_doc.pop("keys", None),
                   "workload.keys")
    if keys["dist"] not in ("zipf", "uniform", "adversarial"):
        raise SpecError(f"workload.keys.dist must be zipf, uniform or "
                        f"adversarial, got {keys['dist']!r}")
    workload = _merged(_WORKLOAD_DEFAULTS, workload_doc, "workload")
    workload["keys"] = keys
    workload["mix"] = _check_mix(workload["mix"])
    workload["arrival"] = _merged(_ARRIVAL_DEFAULTS, workload["arrival"],
                                  "workload.arrival")
    if workload["arrival"]["pattern"] not in ("closed", "open"):
        raise SpecError(f"arrival.pattern must be closed or open, got "
                        f"{workload['arrival']['pattern']!r}")
    spec["workload"] = workload

    phases_doc = document.get("phases") or [{"name": "main", "ops": 500}]
    if not isinstance(phases_doc, list) or not phases_doc:
        raise SpecError("phases must be a non-empty list")
    phases = []
    seen_names = set()
    for i, phase in enumerate(phases_doc):
        if not isinstance(phase, dict):
            raise SpecError(f"phase {i} must be a mapping, got {phase!r}")
        unknown = set(phase) - _PHASE_KEYS
        if unknown:
            raise SpecError(f"phase {i} has unknown key(s) "
                            f"{sorted(unknown)}; known: "
                            f"{sorted(_PHASE_KEYS)}")
        entry = {
            "name": str(phase.get("name", f"phase{i}")),
            "ops": int(phase.get("ops", 0)),
            "mix": _check_mix(phase["mix"]) if phase.get("mix") is not None
            else workload["mix"],
            "arrival": _merged(workload["arrival"], phase.get("arrival"),
                               f"phase {i} arrival"),
            "deadline": phase.get("deadline", workload["deadline"]),
        }
        if entry["ops"] < 1:
            raise SpecError(f"phase {entry['name']!r} needs ops >= 1")
        if entry["name"] in seen_names:
            raise SpecError(f"duplicate phase name {entry['name']!r}")
        seen_names.add(entry["name"])
        phases.append(entry)
    spec["phases"] = phases

    faults_doc = document.get("faults") or []
    if not isinstance(faults_doc, list):
        raise SpecError("faults must be a list of events")
    spec["faults"] = [dict(event) for event in faults_doc]

    spec["oracle"] = _merged(_ORACLE_DEFAULTS, document.get("oracle"),
                             "oracle")
    return spec
