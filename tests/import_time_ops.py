"""A module that registers one compensation when it is first imported.

Imported for the first time from inside a test body
(``tests/test_registry_and_views.py``), so the registration happens
while a test runs, the way a lazily imported workload module's does.
"""

from repro.compensation.registry import agent_compensation


@agent_compensation("t.import_time_note")
def forget_import_time_note(wro, params, ctx):
    wro.pop("note", None)
