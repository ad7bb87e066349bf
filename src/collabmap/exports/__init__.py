"""File-format exporters: geographic maps, Pajek NET, VOSViewer, reports."""

from collabmap.exports.geo import export_geo
from collabmap.exports.pajek import export_pajek
from collabmap.exports.report import export_report, focus_stats
from collabmap.exports.vosviewer import export_vosviewer

__all__ = [
    "export_geo",
    "export_pajek",
    "export_report",
    "export_vosviewer",
    "focus_stats",
]
