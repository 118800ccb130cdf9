"""The report route that the CLI's direct encoder `cli._text` replaced,
used only as a test oracle.

It copies a report into a plain tree, a record by its `_fields`, and
hands the tree to `json.dumps(..., sort_keys=True, indent=2)`. The CLI
writes the same bytes walking the report once.
"""

import json
from fractions import Fraction

from logcavity.linalg import Record


def jsonable(x):
    """The plain tree a report value stands for."""
    if type(x) in (str, int, bool, type(None)):
        return x
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    if isinstance(x, Record):
        return jsonable({name: getattr(x, name) for name in x._fields})
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((jsonable(v) for v in x), key=str)
    return x


def text(value):
    """The JSON text of a value, without the report's closing newline."""
    return json.dumps(jsonable(value), sort_keys=True, indent=2)


def payload(report):
    """The tree of a RunReport, built field by field."""
    return jsonable(
        {
            "command": report.command,
            "inputs": report.inputs,
            "results": report.results,
            "findings": report.findings,
            "violations": report.violations,
            "version": report.version,
        }
    )


def report_bytes(report):
    """The JSON report file the old route wrote."""
    return json.dumps(payload(report), sort_keys=True, indent=2) + "\n"
