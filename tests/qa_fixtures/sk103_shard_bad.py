"""SK103 bad (shard scope): merging by raw cell writes.

The shard router's merge path must go through the validating
``ClockArray.load_values`` entry point — hand-rolled elementwise-max
writes into the cell buffer bypass the range/shape checks the runtime
sanitizer hooks.
"""
import numpy as np


def merge_by_hand(clock, other_values):
    clock.values[:] = np.maximum(clock.values, other_values)


def merge_masked(clock, other_values, mask):
    clock.values[mask] = other_values[mask]


def merge_via_alias(replica, other_values):
    cells = replica.clock.values
    cells[:] = np.maximum(cells, other_values)


def shard_width(replica):
    return (1 << replica.s) - 1
