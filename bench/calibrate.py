"""A fixed pure-Python job, run as a process of its own to time the processor.

run.py starts it just before each command, the same way it starts the
command, and scales the command's wall time by this job's wall time (see
README.md).  Like the program, it starts an interpreter and then builds,
composes and looks up permutations as tuples, lists and dicts.
"""

import random

rng = random.Random(0)
n = 81
perms = [tuple(rng.sample(range(n), n)) for _ in range(400)]
index = {p: i for i, p in enumerate(perms)}
hits = 0
for a in perms:
    for b in perms[:40]:
        hits += tuple([a[x] for x in b]) in index
print(hits)
