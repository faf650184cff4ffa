"""The mlacalc test suite, a package so that its conftest and helper modules
have names of their own (tests.conftest, tests.self_pairs, ...)."""
