"""Energy-aware video frame-rate scheduling and streaming toolkit.

The API is the stage modules: `evso.frame_source`, `evso.similarity`,
`evso.fscheduler`, `evso.vprocessor`, `evso.empd` and `evso.stream_sim`, plus
`evso.errors` and the command line in `evso.cli`. `import evso` loads none of
them; naming one as an attribute of the package imports it on first use.
"""

import importlib

__version__ = "1.0.0"


def __getattr__(name: str):
    if name in ("cli", "empd", "errors", "frame_source", "fscheduler",
                "similarity", "stream_sim", "vprocessor"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
