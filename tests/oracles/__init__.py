"""Reference implementations the test suite checks the package against.

Nothing under ``src/repro`` imports these; they exist so a test can
compare a production path with a slower or simpler one.
"""
