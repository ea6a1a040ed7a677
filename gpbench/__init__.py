"""The repo's benchmark (see gpbench/README.md)."""
