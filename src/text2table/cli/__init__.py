"""Command-line interface: ``text2table gen-data|train|decode|eval|ablate``."""
