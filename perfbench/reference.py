"""Fixed pure-Python yardstick for the host's speed.

Usage: python3 perfbench/reference.py

run.py runs this process before every job and times it the same way.
It imports nothing from the package and never changes, so its time moves
only with the host: on a shared VM the CPU runs faster and slower by 20%
and more over minutes.  The work is the same kind as the CLI's: row
reduction of integer matrices mod a prime, and tuple-keyed dict lookups,
in plain Python.  It prints a checksum so that run.py can check it ran.
"""

P = 251


def rank_mod_p(rows):
    rows = [row[:] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], P - 2, P)
        rows[rank] = [v * inv % P for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(a - c * b) % P for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def main():
    state = 12345
    checksum = 0
    for _ in range(10):
        matrix = []
        for _ in range(40):
            row = []
            for _ in range(120):
                state = (state * 1103515245 + 12345) % 2**31
                row.append(state % P)
            matrix.append(row)
        checksum += rank_mod_p(matrix)
    table = {}
    for i in range(200000):
        key = (i % 97, i % 89)
        table[key] = (table.get(key, 0) + i) % P
    checksum += sum(table.values())
    print(checksum)


if __name__ == "__main__":
    main()
