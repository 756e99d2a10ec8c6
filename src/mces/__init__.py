"""mces: memory-bounded consolidation of streaming token-embedding sequences.

Frames stream through a fixed-size short-term buffer; each fill is merged
down under a question-relevance gate and banked in a capped long-term store.
Total resident memory never depends on stream length. The public API is each
module's ``__all__``; ``mces.__all__`` is their union, in import order.
"""

__version__ = "0.1.0"

from .errors import *  # noqa: F403
from .frames import *  # noqa: F403
from .streamio import *  # noqa: F403
from .memory import *  # noqa: F403
from .consolidation import *  # noqa: F403
from .baselines import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .snapshot import *  # noqa: F403
from .harness import *  # noqa: F403
from . import (baselines, consolidation, errors, frames, harness, memory, pipeline,
               snapshot, streamio)

__all__ = [name for module in (errors, frames, streamio, memory, consolidation, baselines,
                               pipeline, snapshot, harness) for name in module.__all__]
