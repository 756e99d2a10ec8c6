"""mces: memory-bounded consolidation of streaming token-embedding sequences.

Frames stream through a fixed-size short-term buffer; each fill is merged
down under a question-relevance gate and banked in a capped long-term store.
Total resident memory never depends on stream length. The public API is each
module's ``__all__``; ``mces.__all__`` is their union, in module order.

``import mces`` loads only the streaming engine: ``errors``, ``frames``,
``memory``, ``consolidation`` and ``pipeline``. The first use of any other
name (``streamio``, ``baselines``, ``snapshot``, ``harness``, one of their
public names, or ``__all__``, which ``from mces import *`` reads) loads the
rest; until then ``dir(mces)`` does not list their names.
"""

__version__ = "0.1.0"

from .errors import *  # noqa: F403
from .frames import *  # noqa: F403
from .memory import *  # noqa: F403
from .consolidation import *  # noqa: F403
from .pipeline import *  # noqa: F403
from . import consolidation, errors, frames, memory, pipeline


def __getattr__(name: str):
    # PEP 562: reached only for a name not bound yet; imports every module
    # (which binds it), binds each one's __all__ and the package's __all__,
    # then looks the name up again
    from importlib import import_module
    modules = [import_module(f"{__name__}.{m}") for m in ("errors", "frames", "streamio", "memory",
               "consolidation", "baselines", "pipeline", "snapshot", "harness")]
    names = globals()
    names.update({n: getattr(m, n) for m in modules for n in m.__all__})
    names["__all__"] = [n for m in modules for n in m.__all__]
    if name not in names:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return names[name]
