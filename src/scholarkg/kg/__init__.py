"""Knowledge graph store: terms, triple patterns, matching and Turtle IO."""
