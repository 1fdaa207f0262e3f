"""Wall-clock performance ledger: see README.md in this directory."""
