"""One config path: ``config.COMMANDS`` names exactly the subcommands that take
``--config``, so a config naming any other command is refused when it is
parsed, not later by the subcommand it was handed to."""

import argparse

from orbitforge import cli, config


def test_config_commands_are_the_subcommands_taking_config():
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    subcommands = action.choices
    assert {"nrange", "orbit", "flatten", "verify", "replay"} <= set(subcommands)
    taking = {
        name for name, sub in subcommands.items() if "--config" in sub._option_string_actions
    }
    assert set(config.COMMANDS) == taking
