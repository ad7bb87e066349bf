"""File-format exporters: geographic maps, Pajek NET, VOSViewer, reports."""
