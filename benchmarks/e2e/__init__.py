"""End-to-end benchmark of the Nepal reproduction (see README.md here)."""
