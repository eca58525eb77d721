"""Fixed pure-Python work that measures how fast the machine is right now.

The benchmark times this program between repeats and scales its times by
``run.REFERENCE_S`` over this program's median time in the run. The work
is the kind textmask does (string splitting, dictionary lookups over a
20k-word table, seeded random draws, float math, sorting), so a machine
slowed by other tenants slows both alike. It depends on nothing in
``src/`` and must not change, or calibrated times stop being comparable.
"""

import math
import random


def work() -> float:
    rng = random.Random(12345)
    vocab = [f"w{i:05d}" for i in range(20_000)]
    table = {word: i + 1 for i, word in enumerate(vocab)}
    text = " ".join(vocab[int(len(vocab) * rng.random() ** 3)] for _ in range(60_000))
    total = 0.0
    for _ in range(2):
        keys = []
        for word in text.upper().lower().split():
            count = table.get(word, 1)
            keys.append(-math.log(1.0 - rng.random()) / math.sqrt(count))
        total += sum(sorted(keys)[:1000])
    return total


if __name__ == "__main__":
    work()
