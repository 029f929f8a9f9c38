"""Naive per-line LRU cache: the semantic reference for ExtentLRUCache.

Bulk accesses touch lines in ascending address order, one at a time.
This is the ground truth the extent-based simulator must match exactly.
"""

from collections import OrderedDict


class ReferenceLRUCache:
    def __init__(self, capacity_lines: int) -> None:
        self.capacity = capacity_lines
        self.od: "OrderedDict[int, bool]" = OrderedDict()  # line -> dirty

    @property
    def used_lines(self) -> int:
        return len(self.od)

    def access(self, start: int, end: int, write: bool):
        hits = misses = writebacks = 0
        for line in range(start, end):
            if line in self.od:
                hits += 1
                dirty = self.od.pop(line)
            else:
                misses += 1
                dirty = False
                if len(self.od) >= self.capacity:
                    _, evicted_dirty = self.od.popitem(last=False)
                    if evicted_dirty:
                        writebacks += 1
            self.od[line] = dirty or write
        return hits, misses, writebacks

    def __contains__(self, line: int) -> bool:
        return line in self.od

    def flush(self) -> int:
        dirty = sum(self.od.values())
        self.od.clear()
        return dirty

    def resident_lines(self, start: int, end: int) -> int:
        return sum(1 for line in range(start, end) if line in self.od)

    def invalidate(self, start: int, end: int):
        resident = dirty = 0
        for line in range(start, end):
            if line in self.od:
                resident += 1
                if self.od.pop(line):
                    dirty += 1
        return resident, dirty

    def downgrade(self, start: int, end: int) -> int:
        dirtied = 0
        for line in range(start, end):
            if self.od.get(line):
                self.od[line] = False
                dirtied += 1
        return dirtied

    def peek(self, start: int, end: int):
        segs = []
        for line in range(start, end):
            if line in self.od:
                dirty = self.od[line]
                if segs and segs[-1][1] == line and segs[-1][2] == dirty:
                    segs[-1] = (segs[-1][0], line + 1, dirty)
                else:
                    segs.append((line, line + 1, dirty))
        return [tuple(s) for s in segs]
