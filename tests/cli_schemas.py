"""JSON schemas for the output of the command line.

Exact integers travel as decimal strings so arbitrary precision
survives a round-trip; optimized bound values are native floats. The
tests validate the JSON of ``bounds``, ``verify``, ``series`` and
``table``, and ``BoundReport.to_json``, against these schemas.
"""

from __future__ import annotations

_COUNT_STRING = {"type": "string", "pattern": "^[0-9]+$"}

PROFILE_SCHEMA = {
    "type": "object",
    "required": ["delta", "t", "t_tilde"],
    "additionalProperties": False,
    "properties": {
        "delta": {"type": "integer", "minimum": 1},
        "t": {"type": "array", "items": _COUNT_STRING},
        "t_tilde": {"type": "array", "items": _COUNT_STRING},
    },
}

BOUND_REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "graph_id",
        "delta",
        "profile",
        "c_sokal",
        "c_star_delta",
        "c_star_graph",
        "c_star_graph_series",
        "max_root_modulus",
        "zero_free_verified",
    ],
    "additionalProperties": False,
    "properties": {
        "graph_id": {"type": "string"},
        "delta": {"type": "integer", "minimum": 0},
        "profile": {"anyOf": [PROFILE_SCHEMA, {"type": "null"}]},
        "c_sokal": {"type": "number"},
        "c_star_delta": {"type": "number"},
        "c_star_graph": {"type": ["number", "null"]},
        "c_star_graph_series": {"type": ["number", "null"]},
        "max_root_modulus": {"type": ["number", "null"]},
        "zero_free_verified": {"type": "boolean"},
    },
}

SERIES_OUTPUT_SCHEMA = {
    "type": "object",
    "required": ["source", "order", "coefficients", "radius", "radius_argmax"],
    "additionalProperties": False,
    "properties": {
        "source": {"type": "string"},
        "order": {"type": "integer", "minimum": 1},
        "coefficients": {"type": "array", "items": _COUNT_STRING},
        "radius": {"type": ["number", "string"]},
        "radius_argmax": {"type": ["number", "string"]},
        "b": {"type": ["number", "null"]},
        "threshold_x": {"type": ["number", "null"]},
    },
}

VERIFY_OUTPUT_SCHEMA = {
    "type": "object",
    "required": ["graph_id", "ok", "checks"],
    "additionalProperties": False,
    "properties": {
        "graph_id": {"type": "string"},
        "ok": {"type": "boolean"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "status", "detail"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "status": {"enum": ["PASS", "FAIL", "SKIP"]},
                    "detail": {"type": "string"},
                },
            },
        },
    },
}

TABLE_ROW_SCHEMA = {
    "type": "object",
    "required": ["delta", "sokal", "cstar_delta", "cstar_complete", "exact"],
    "additionalProperties": False,
    "properties": {
        "delta": {"type": ["integer", "string"]},
        "sokal": {"type": "string"},
        "cstar_delta": {"type": "string"},
        "cstar_complete": {"type": "string"},
        "exact": {"type": "string"},
    },
}
