"""Tape references that the tests check the hand-derived numpy against.

The package computes every gradient by hand. The modules here build the
same quantities on the ``diffcore`` tape and take their gradients with
``dc.grad``, so that a test can compare the two routes bit for bit:

- ``student``: the student's losses, its encoder and decoder forwards, the
  tape form of ``semisup.student_step`` and of the ``vat-lite`` probe.
"""
