"""End-to-end benchmark of the localization service (see README.md)."""
