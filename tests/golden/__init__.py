"""Golden corpus: pinned output digests of fixed experiment cells."""
