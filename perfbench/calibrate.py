"""Fixed host-speed calibration job for the socmine benchmark.

Pure stdlib and independent of socmine, so no change to socmine moves its
time. It does the kind of work socmine does, at a similar memory footprint:
JSON decoding, regex tokenizing, counting 52,500 tag pairs, sorting them and
writing them as CSV. It is deterministic and takes about 0.4 s on a 2-vCPU
shared host with Python 3.11.
"""

import csv
import io
import json
import re
from collections import Counter
from itertools import combinations

lines = [
    json.dumps({
        "text": "słowo%d Ąb%d x%d" % (i % 997, i % 13, i % 4001),
        "tags": ["t%d" % ((i * 7919 + k * k * 104729) % 5000) for k in range(1, 7)],
    })
    for i in range(3500)
]
pairs: Counter = Counter()
words: Counter = Counter()
for line in lines:
    record = json.loads(line)
    pairs.update(combinations(sorted(set(record["tags"])), 2))
    words.update(m.group().lower() for m in re.finditer(r"[^\W_]+", record["text"]))
writer = csv.writer(io.StringIO())
for key, count in sorted(pairs.items(), key=lambda kv: (-kv[1], kv[0])):
    writer.writerow([key[0], key[1], count])
