"""One module per ``faascost`` command: ``bill``, ``analyze``, ``simulate``
and ``profile``.

``faascost.cli.main`` imports only the module of the command it runs. Each
module's ``command(args, run)`` reads every layer name as an attribute of
``faascost.cli``.
"""
