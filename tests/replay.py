"""Event times of a run, replayed from its own streams.

A run records its state only at the caller's checkpoints, and a checkpoint
at an event's time sees the post-jump state.  Tests that check a run event
by event put these times in the grid.  ``ScriptedClock`` stands in for a
run's clock stream where a test needs chosen uniforms, such as u = 0.0.
"""

from itertools import accumulate, takewhile

import numpy as np

from continuized.gossip import sample_event_stream
from continuized.graphs import Graph
from continuized.schedules import sample_interarrival


def event_times(source, horizon, streams) -> list[float]:
    """The event times up to ``horizon`` of a run on ``streams``.

    ``source`` is the optimizer's ``EventClock``, or the ``Graph`` whose edge
    activations drive gossip and the dual.  Pass a fresh copy of the run's
    streams: the replay consumes them as the run does.  The optimizer's
    times are drawn one ``streams.clock.random()`` per event, independently
    of the engine's block sampler.
    """
    if isinstance(source, Graph):
        return sample_event_stream(source, horizon, streams)[0].tolist()
    uniforms = iter(streams.clock.random, None)
    waits = (sample_interarrival(source, u) for u in uniforms)
    return list(takewhile(lambda te: te <= horizon, accumulate(waits)))


class ScriptedClock:
    """A clock stream that yields the uniforms ``head`` first, then those of
    a generator seeded with ``seed``; a block draw of n uniforms reads the
    same sequence as n single draws, as a numpy generator's does."""

    def __init__(self, head, seed):
        self.head = list(head)
        self.rest = np.random.default_rng(seed)

    def random(self, size=None):
        n = 1 if size is None else size
        take, self.head = self.head[:n], self.head[n:]
        out = np.concatenate([take, self.rest.random(n - len(take))])
        return float(out[0]) if size is None else out
