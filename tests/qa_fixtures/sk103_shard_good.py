"""SK103 good (shard scope): merges through the sanctioned clock API."""
import numpy as np


def merge(clock, other_values):
    clock.load_values(np.maximum(clock.values, other_values))


def rebind(clock, view):
    clock.bind_buffer(view)


def restore(clock, image):
    clock.load_values(image)


def reading_cells_is_fine(clock, other_values):
    return np.array_equal(clock.values, other_values)


def shard_width(replica):
    return replica.clock.max_value
