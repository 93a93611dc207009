"""The benchmark objective suite: base types, closed forms, instances, local optima, registry."""
