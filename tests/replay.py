"""Event times of a run, replayed from its own streams.

A run records its state only at the caller's checkpoints, and a checkpoint
at an event's time sees the post-jump state.  Tests that check a run event
by event put these times in the grid.
"""

from functools import partial
from itertools import accumulate, takewhile

from continuized.gossip import sample_event_stream
from continuized.graphs import Graph
from continuized.schedules import sample_interarrival


def event_times(source, horizon, streams) -> list[float]:
    """The event times up to ``horizon`` of a run on ``streams``.

    ``source`` is the optimizer's ``EventClock``, or the ``Graph`` whose edge
    activations drive gossip and the dual.  Pass a fresh copy of the run's
    streams: the replay consumes them as the run does.
    """
    if isinstance(source, Graph):
        return sample_event_stream(source, horizon, streams)[0].tolist()
    waits = iter(partial(sample_interarrival, source, streams.clock), None)
    return list(takewhile(lambda te: te <= horizon, accumulate(waits)))
