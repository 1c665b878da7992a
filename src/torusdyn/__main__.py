"""`python -m torusdyn`: the command-line front end."""

from .cli import main

main()
