"""Runtime-bound curves (bounds), exact progress laws (pmf) and lemma checks (lemmas)."""
