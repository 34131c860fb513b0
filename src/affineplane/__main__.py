import gc

gc.disable()  # before cli's imports, which made one pass: see cli.run
from .cli import run

run()
