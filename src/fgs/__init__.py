"""Feature-guided STRIPS planning with tool construction episodes."""

__version__ = "0.1.0"
