"""``python -m blockcast``: the command-line pipeline of ``blockcast.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
