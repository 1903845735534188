"""A report's JSON text, as the CLI writes it, for byte-level comparisons."""

import io

from osnmasim.scenario import write_report


def report_to_json(report: dict) -> str:
    """The text write_report writes."""
    buf = io.StringIO()
    write_report(report, buf)
    return buf.getvalue()
