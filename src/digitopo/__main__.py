"""``python -m digitopo``: the command line of ``digitopo.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
